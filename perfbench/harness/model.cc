#include "model.h"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

constexpr char kHex[] = "0123456789abcdef";
constexpr std::size_t kFillRun = 4096;

void PutHex8(char* out, std::uint32_t v) {
  for (int i = 7; i >= 0; --i) {
    out[i] = kHex[v & 15];
    v >>= 4;
  }
}

bool GetHex8(const char* in, std::uint32_t* v) {
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = in[i];
    std::uint32_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
    out = (out << 4) | d;
  }
  *v = out;
  return true;
}

std::string MakeRecord(char tag, std::uint32_t key, std::uint32_t version,
                       std::size_t size) {
  std::string out(size, FillByte(key, version));
  out[0] = tag;
  PutHex8(out.data() + 1, key);
  PutHex8(out.data() + 9, version);
  return out;
}

// Checks one record at `rec` of `size` bytes; returns its version or 0.
std::uint32_t CheckRecord(const char* rec, std::size_t size, char tag,
                          std::uint32_t key) {
  std::uint32_t rec_key = 0;
  std::uint32_t version = 0;
  if (rec[0] != tag || !GetHex8(rec + 1, &rec_key) || rec_key != key ||
      !GetHex8(rec + 9, &version) || version == 0) {
    return 0;
  }
  // memcmp against a run of the expected byte: values are up to a few KiB
  // and checked on every lookup, so a byte loop would cost the generator.
  thread_local std::string run;
  const char fill = FillByte(key, version);
  for (std::size_t off = kRecordHeader; off < size; off += kFillRun) {
    const std::size_t n = std::min(kFillRun, size - off);
    if (run.empty() || run[0] != fill) run.assign(kFillRun, fill);
    if (std::memcmp(rec + off, run.data(), n) != 0) return 0;
  }
  return version;
}

}  // namespace

char FillByte(std::uint32_t key, std::uint32_t version) {
  return static_cast<char>('a' + (key * 7u + version) % 26u);
}

std::string MakeInsertValue(std::uint32_t key, std::uint32_t version,
                            std::size_t size) {
  return MakeRecord('I', key, version,
                    size < kRecordHeader ? kRecordHeader : size);
}

std::string MakeAppendValue(std::uint32_t key, std::uint32_t version) {
  return MakeRecord('A', key, version, kAppendBytes);
}

std::uint32_t ParseValue(std::string_view value, std::uint32_t key,
                         std::size_t insert_size) {
  if (insert_size < kRecordHeader) insert_size = kRecordHeader;
  if (value.size() < insert_size ||
      (value.size() - insert_size) % kAppendBytes != 0) {
    return 0;
  }
  std::uint32_t version = CheckRecord(value.data(), insert_size, 'I', key);
  if (version == 0) return 0;
  for (std::size_t off = insert_size; off < value.size();
       off += kAppendBytes) {
    const std::uint32_t next =
        CheckRecord(value.data() + off, kAppendBytes, 'A', key);
    if (next != version + 1) return 0;
    version = next;
  }
  return version;
}

KeyModel::KeyModel(std::size_t keys) : keys_(keys) {}

std::uint32_t KeyModel::BeginWrite(std::uint32_t key) {
  KeyState& k = keys_[key];
  k.write_inflight = true;
  return ++k.issued;
}

void KeyModel::AckWrite(std::uint32_t key, std::uint32_t version) {
  KeyState& k = keys_[key];
  k.write_inflight = false;
  if (version > k.acked) k.acked = version;
}

void KeyModel::FailWrite(std::uint32_t key) {
  KeyState& k = keys_[key];
  k.write_inflight = false;
  k.uncertain = true;
}

}  // namespace perfbench
