#include "workload.h"

#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    // Per-message cost: framing, syscalls, codec, mailbox forwards. The
    // store is a small share; durability, replication and cache are off.
    WorkloadSpec w;
    w.name = "uniform-small";
    w.instances = 1;
    w.reactors_per_instance = 2;
    w.keys = 200000;
    w.value_bytes = 132;
    w.pct_lookup = 50;
    w.window = 128;
    out.push_back(w);
  }
  {
    // Ingress hot-key cache and per-byte costs of 4 KiB responses. 80 MB
    // of values against a 2 x 4096 x 4 KiB = 32 MB cache, so misses and
    // write invalidations are real.
    WorkloadSpec w;
    w.name = "hot-read";
    w.instances = 1;
    w.reactors_per_instance = 2;
    w.hot_cache_entries = 4096;
    w.keys = 20000;
    w.value_bytes = 4096;
    w.zipf_s = 1.1;
    w.pct_lookup = 95;
    w.window = 128;
    out.push_back(w);
  }
  {
    // The NoVoHT write-ahead log (page cache, no fsync), compaction, and the
    // synchronous replication leg on the finisher pool; append is
    // FusionFS's primitive. Group commit is left out: fsync on the VM disk
    // swings too much from minute to minute to gate on (README.md).
    WorkloadSpec w;
    w.name = "logged-write";
    w.instances = 2;
    w.reactors_per_instance = 1;
    w.replicas = 1;
    w.persistent = true;
    w.partitions = 16;
    w.keys = 20000;
    w.value_bytes = 1024;
    w.pct_lookup = 10;
    w.pct_append = 30;
    w.window = 256;
    out.push_back(w);
  }
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

std::string KeyName(std::uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%014u", i);
  return std::string(buf, 15);
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec.zipf_s > 0) {
    zipf_.emplace(spec.keys, spec.zipf_s, rng_.Next());
    rank_to_key_.resize(spec.keys);
    for (std::uint32_t i = 0; i < spec.keys; ++i) rank_to_key_[i] = i;
    for (std::uint32_t i = spec.keys - 1; i > 0; --i) {
      std::swap(rank_to_key_[i], rank_to_key_[rng_.Below(i + 1)]);
    }
  }
}

std::uint32_t OpStream::NextKey() {
  if (!zipf_) return static_cast<std::uint32_t>(rng_.Below(spec_.keys));
  return rank_to_key_[zipf_->Next()];
}

Op OpStream::Next(std::uint32_t* key) {
  *key = NextKey();
  const auto roll = static_cast<int>(rng_.Below(100));
  if (roll < spec_.pct_lookup) return Op::kLookup;
  if (roll < spec_.pct_lookup + spec_.pct_append) return Op::kAppend;
  return Op::kInsert;
}

}  // namespace perfbench
