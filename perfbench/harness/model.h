// The benchmark's correctness model: self-describing values and the
// per-key read-staleness check.
//
// Values. Every value the benchmark writes names its key and a per-key
// version. An insert writes one record of the workload's value size; an
// append adds one 64-byte record carrying the next version. A stored value
// is therefore [insert a][append a+1]...[append u], and its version is u.
//   record := tag ('I' | 'A') | 8 hex digits key | 8 hex digits version |
//             fill bytes, all equal to FillByte(key, version)
// ParseValue rejects any value that is not exactly such a chain, so a lost,
// doubled or misplaced append, a torn value or another key's value all fail.
//
// Staleness. The generator never has two writes to one key in flight (a
// write to a busy key waits behind it, as one caller's writes would), so a
// key's writes are totally ordered and versions number them. A lookup is
// correct iff the version it returns was issued before the lookup completed
// and is no older than the last write acknowledged before the lookup was
// sent. KeyModel tracks exactly those two bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kRecordHeader = 17;  // tag + 8 + 8 hex digits
inline constexpr std::size_t kAppendBytes = 64;

char FillByte(std::uint32_t key, std::uint32_t version);

// Builds the insert record for (key, version) at `size` bytes (>= 17).
std::string MakeInsertValue(std::uint32_t key, std::uint32_t version,
                            std::size_t size);
// Builds the 64-byte append record for (key, version).
std::string MakeAppendValue(std::uint32_t key, std::uint32_t version);

// Validates `value` as key `key`'s record chain with an insert record of
// `insert_size` bytes. Returns the version of the last record, or 0 when
// the value is malformed.
std::uint32_t ParseValue(std::string_view value, std::uint32_t key,
                         std::size_t insert_size);

// Per-key version bookkeeping for the staleness check (single-threaded:
// the generator and the latency-phase caller each drive one in turn).
class KeyModel {
 public:
  explicit KeyModel(std::size_t keys);

  bool write_inflight(std::uint32_t key) const {
    return keys_[key].write_inflight;
  }
  std::uint32_t issued(std::uint32_t key) const { return keys_[key].issued; }
  std::uint32_t acked(std::uint32_t key) const { return keys_[key].acked; }
  // A write whose outcome is unknown (it failed) may or may not have been
  // applied; the key then accepts any issued version at or above `acked`.
  bool uncertain(std::uint32_t key) const { return keys_[key].uncertain; }

  // Issues the next version of `key`; the caller guarantees no write to
  // `key` is in flight.
  std::uint32_t BeginWrite(std::uint32_t key);
  void AckWrite(std::uint32_t key, std::uint32_t version);
  void FailWrite(std::uint32_t key);

  // Floor for a lookup sent now: the last acknowledged version.
  std::uint32_t BeginRead(std::uint32_t key) const { return keys_[key].acked; }
  // Whether `seen`, returned by a lookup sent with `floor`, is allowed now
  // (at the lookup's completion).
  bool CheckRead(std::uint32_t key, std::uint32_t floor,
                 std::uint32_t seen) const {
    return seen != 0 && seen >= floor && seen <= keys_[key].issued;
  }

 private:
  struct KeyState {
    std::uint32_t issued = 0;
    std::uint32_t acked = 0;
    bool write_inflight = false;
    bool uncertain = false;
  };
  std::vector<KeyState> keys_;
};

}  // namespace perfbench
