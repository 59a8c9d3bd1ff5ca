// Pipelined closed-loop load generator.
//
// One thread keeps a fixed window of requests in flight over a few TCP
// connections, speaking ZHT's wire protocol directly (Request::Encode +
// FrameMessage) and routing zero-hop from its own membership table. Each
// completion immediately issues the next operation from the seeded stream,
// so the load is a closed loop with `window` callers. Every response is
// checked: its seq against the request it answers, its status, and — for
// lookups — its value against the KeyModel.
//
// Keys on each connection are random, as with a real client, so requests
// whose partition another reactor owns are forwarded across reactors.
// Connections are pinned to the accept-time reactor with a first PING
// (placement ignores control ops), which spreads them evenly.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "stats.h"
#include "membership/membership_table.h"
#include "serialize/envelope.h"
#include "model.h"
#include "workload.h"

namespace perfbench {

// What one call of Preload/Run/Drain observed.
struct LoadStats {
  std::uint64_t completed = 0;  // responses received
  std::uint64_t failed = 0;     // wrong seq/status/value among them
  std::uint64_t sent = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t user_bytes_written = 0;  // key + value of acked writes
  std::uint64_t bytes_out = 0;  // framed request bytes
  std::uint64_t bytes_in = 0;   // framed response bytes
  std::int64_t wall_ns = 0;
  std::int64_t gen_cpu_ns = 0;   // generator thread CPU
  std::int64_t proc_cpu_ns = 0;  // whole-process CPU
  double inflight_ns_sum = 0;    // time-weighted requests on the wire
  LogHistogram latency_ns;       // send -> response, per request

  double ops_per_s() const {
    return wall_ns > 0 ? completed * 1e9 / static_cast<double>(wall_ns) : 0;
  }
  double inflight_mean() const {
    return wall_ns > 0 ? inflight_ns_sum / static_cast<double>(wall_ns) : 0;
  }
};

class LoadGenerator {
 public:
  // `addresses[i]` serves instance i of `table`. `model` and `keys` outlive
  // the generator.
  LoadGenerator(const WorkloadSpec& spec, const zht::MembershipTable& table,
                std::vector<zht::NodeAddress> addresses, KeyModel* model,
                const std::vector<std::string>* keys, std::uint64_t seed,
                std::uint64_t client_id);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens kConnections connections, round-robin over the instances,
  // and pins each with a PING.
  zht::Status Connect();
  // Inserts version 1 of every key, `window` in flight, and drains.
  zht::Status Preload(LoadStats* stats);
  // Runs the closed loop for `duration`. The window stays full on return,
  // so consecutive calls measure back-to-back phases of one steady load.
  zht::Status Run(zht::Nanos duration, LoadStats* stats);
  // Stops issuing and waits for every request on the wire. Writes parked
  // behind a busy key are dropped unsent.
  zht::Status Drain(LoadStats* stats);

  // Diagnostics for the first failures seen.
  const std::vector<std::string>& failure_notes() const { return notes_; }

 private:
  struct Slot {
    Op op = Op::kLookup;
    std::uint32_t key = 0;
    std::uint32_t version = 0;  // write: issued version; lookup: floor
    std::int64_t sent_ns = 0;
  };
  struct Pending {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Conn {
    int fd = -1;
    int instance = 0;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_len = 0;
    std::size_t in_off = 0;
    std::deque<Pending> fifo;
    bool want_write = false;
  };
  enum class Mode { kStopped, kPreload, kLoad };

  zht::Status Loop(std::int64_t deadline_ns, bool until_empty,
                   LoadStats* stats);
  void Issue(std::uint32_t slot);
  void Send(std::uint32_t slot);
  zht::Status Flush(Conn& conn);
  zht::Status ReadConn(Conn& conn, LoadStats* stats);
  void Complete(Conn& conn, const zht::Response& resp, LoadStats* stats);
  void Fail(const std::string& note, LoadStats* stats);
  void FillWindow();

  const WorkloadSpec& spec_;
  std::uint32_t epoch_;
  std::vector<zht::NodeAddress> addresses_;
  std::vector<std::uint8_t> owner_;  // key -> instance
  KeyModel* model_;
  const std::vector<std::string>* keys_;
  OpStream stream_;
  std::uint64_t client_id_;
  std::uint64_t next_seq_ = 1;

  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<std::vector<int>> conns_of_instance_;
  std::vector<std::size_t> rr_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint32_t, std::deque<std::uint32_t>> parked_;
  std::size_t on_wire_ = 0;
  Mode mode_ = Mode::kStopped;
  std::uint32_t preload_next_ = 0;
  LoadStats* active_ = nullptr;  // stats of the call in progress
  std::vector<std::string> notes_;
};

}  // namespace perfbench
