// Workload definitions and the seeded operation stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"

namespace perfbench {

enum class Op : std::uint8_t { kLookup, kInsert, kAppend };

// Generator TCP connections, spread round-robin over the instances: one per
// core of the 4-core host the workloads are sized for.
inline constexpr int kConnections = 4;

struct WorkloadSpec {
  std::string name;
  int instances = 1;              // ZhtServer + EpollServer pairs
  int reactors_per_instance = 2;  // event loops = ownership shards
  int replicas = 0;               // num_replicas (sync secondary when 1)
  bool persistent = false;        // NoVoHT log per partition store
  std::size_t hot_cache_entries = 0;  // per shard
  std::uint32_t partitions = 64;  // whole table
  std::uint32_t keys = 0;
  std::size_t value_bytes = 0;
  double zipf_s = 0.0;  // 0 = uniform keys
  int pct_lookup = 0;   // the rest splits into insert and append
  int pct_append = 0;
  int window = 128;     // generator requests in flight
};

// The three workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// 15-byte key for index `i` (the paper's key size).
std::string KeyName(std::uint32_t i);

// Seeded stream of (op, key) draws for one workload. Zipf ranks come from
// the benches' shared ZipfGenerator and map to keys through a seeded
// permutation, so hot keys spread over partitions.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed);
  Op Next(std::uint32_t* key);

 private:
  std::uint32_t NextKey();

  const WorkloadSpec& spec_;
  zht::Rng rng_;
  std::optional<zht::bench::ZipfGenerator> zipf_;  // zipf workloads only
  std::vector<std::uint32_t> rank_to_key_;
};

}  // namespace perfbench
