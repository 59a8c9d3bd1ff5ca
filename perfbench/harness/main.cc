// perfbench: the live-request-path benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//             [--inject none|stale-read|drop-write]
//
// Boots real ZhtServers behind EpollServers on loopback TCP in this
// process, preloads them pipelined, and measures two closed-loop phases:
//   saturated  one generator thread, `window` requests in flight over at
//              most 4 connections (loadgen.h);
//   latency    one blocking ZhtClient caller, one request in flight.
// Every answer is checked (model.h); after logged-write both instances'
// logs are reopened and every acked write must be on primary and secondary.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced run with --trace 1. The line
// before it ("info") records the run's parameters and validity guards.
// --inject makes the program misbehave on purpose (the self-tests use it to
// show the checks fail the run).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "core/local_cluster.h"
#include "core/zht_client.h"
#include "core/zht_server.h"
#include "stats.h"
#include "loadgen.h"
#include "model.h"
#include "net/epoll_server.h"
#include "net/tcp_client.h"
#include "novoht/novoht.h"
#include "serialize/envelope.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using zht::Nanos;
using zht::Status;

enum class Inject { kNone, kStaleRead, kDropWrite };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  Inject inject = Inject::kNone;
};

// Span buffer sizing for the traced run: the saturated window keeps the
// first kSatSpans spans, the latency phase up to kTotalSpans in all.
constexpr std::size_t kSatSpans = 800'000;
constexpr std::size_t kTotalSpans = 1'600'000;

// Untraced runs alternate a saturated and a latency phase kBlocks times,
// so both phases sample the whole run, and cut each phase into
// kRoundsPerBlock back-to-back rounds. The two phases get equal time:
// the latency phase's p99 is the figure the host moves most, so it gets
// more time than its share of the metrics. Short rounds (0.19 s each at
// --seconds 36) let the choice of rounds (kStealLevels) find the quiet
// stretches between bursts of steal; back-to-back rounds keep the load
// steady across a 2.25 s saturated phase.
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kRoundsPerBlock = 12;

// Set-ups per untraced run; setup_s is their median. A traced run sets up
// once.
constexpr int kSetups = 3;

// steal_bound is set when the steal level chosen for a phase is above this:
// fewer than an eighth of its rounds lost at most this share of the CPU to
// other guests.
constexpr double kStealGuard = 0.04;

// Warm-up after the preload, part of set-up: the load runs, unmeasured.
constexpr Nanos kWarmup = 250 * zht::kNanosPerMilli;

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return SamplePercentile(v, 50); }

std::uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// Restarts the kernel's peak-RSS counter (VmHWM) for this process.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::uint64_t ProcWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string line;
  while (std::getline(io, line)) {
    if (line.rfind("write_bytes:", 0) == 0) {
      return std::strtoull(line.c_str() + 12, nullptr, 10);
    }
  }
  return 0;
}

void Accumulate(const LoadStats& from, LoadStats* into) {
  into->completed += from.completed;
  into->failed += from.failed;
  into->sent += from.sent;
  into->writes_completed += from.writes_completed;
  into->user_bytes_written += from.user_bytes_written;
  into->bytes_out += from.bytes_out;
  into->bytes_in += from.bytes_in;
  into->wall_ns += from.wall_ns;
  into->gen_cpu_ns += from.gen_cpu_ns;
  into->proc_cpu_ns += from.proc_cpu_ns;
  into->inflight_ns_sum += from.inflight_ns_sum;
  into->latency_ns.Merge(from.latency_ns);
}

double GeneratorCpuPerOp(const LoadStats& s) {
  return Ratio(s.gen_cpu_ns / 1e3, static_cast<double>(s.completed));
}

// Process CPU minus the generator thread's, per completed op.
double ServerCpuPerOp(const LoadStats& s) {
  return Ratio((s.proc_cpu_ns - s.gen_cpu_ns) / 1e3,
               static_cast<double>(s.completed));
}

// System-wide CPU time from /proc/stat, in ticks: everything, and the part
// the hypervisor gave to other guests ("steal").
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  return Ratio(static_cast<double>(to.steal - from.steal),
               static_cast<double>(to.total - from.total));
}

// ---- fault injection (self-tests only) ----

// Armed once set-up is over, so the preload itself stays clean.
std::atomic<bool> g_inject_armed{false};

// stale-read: after overwriting a key, answers its next lookup (at least
// 10 ms later, so the overwrite has been acknowledged) with the old value.
// drop-write: a replica store acknowledges its first puts without applying
// them.
class InjectingStore final : public ForwardingStore {
 public:
  InjectingStore(std::unique_ptr<zht::KVStore> inner, Inject mode)
      : ForwardingStore(std::move(inner)), mode_(mode) {}

  Status Put(std::string_view key, std::string_view value) override {
    if (g_inject_armed.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (mode_ == Inject::kDropWrite && injected_ < 16) {
        ++injected_;
        return Status::Ok();
      }
      if (mode_ == Inject::kStaleRead && injected_ < 64 &&
          !old_.count(std::string(key))) {
        auto old = inner_->Get(key);
        if (old.ok()) {
          ++injected_;
          old_[std::string(key)] = {std::move(*old), NowNs()};
        }
      }
    }
    return inner_->Put(key, value);
  }
  zht::Result<std::string> Get(std::string_view key) override {
    if (mode_ == Inject::kStaleRead) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = old_.find(std::string(key));
      if (it != old_.end() && NowNs() - it->second.second > 10'000'000) {
        std::string stale = std::move(it->second.first);
        old_.erase(it);
        return stale;
      }
    }
    return inner_->Get(key);
  }

 private:
  Inject mode_;
  std::mutex mu_;
  int injected_ = 0;
  std::unordered_map<std::string, std::pair<std::string, std::int64_t>> old_;
};

// ---- the system under test ----

// NoVoHT partition stores as built by the factory, for the traced run's
// compaction count. Stores are created lazily on shard threads, hence the
// mutex.
struct StoreRegistry {
  std::mutex mu;
  std::vector<zht::NoVoHT*> novoht;
};

class Cluster {
 public:
  static zht::Result<std::unique_ptr<Cluster>> Boot(const WorkloadSpec& spec,
                                                    const std::string& dir,
                                                    SpanBuffer* trace,
                                                    Inject inject);
  ~Cluster() {
    for (auto& node : nodes_) {
      if (node.net) node.net->Stop();
    }
    for (auto& node : nodes_) {
      if (node.server) node.server->FlushAsyncReplication();
    }
    // Servers before front-ends (the front-end's wakers must outlive the
    // server) and before the peer transports they call.
    for (auto& node : nodes_) node.server.reset();
    for (auto& node : nodes_) node.net.reset();
  }

  const zht::MembershipTable& table() const { return table_; }
  const std::vector<zht::NodeAddress>& addresses() const { return addresses_; }
  std::size_t size() const { return nodes_.size(); }
  zht::ZhtServer& server(std::size_t i) { return *nodes_[i].server; }
  zht::EpollServer& net(std::size_t i) { return *nodes_[i].net; }
  zht::TcpClient& peer(std::size_t i) { return *nodes_[i].peer_tcp; }
  StoreRegistry& stores() { return registry_; }

 private:
  struct Node {
    std::unique_ptr<zht::TcpClient> peer_tcp;
    std::unique_ptr<zht::ClientTransport> peer_traced;
    std::shared_ptr<zht::AsyncRequestHandler> target;
    std::unique_ptr<zht::EpollServer> net;
    std::unique_ptr<zht::ZhtServer> server;
  };

  zht::MembershipTable table_;
  std::vector<zht::NodeAddress> addresses_;
  StoreRegistry registry_;
  std::vector<Node> nodes_;
};

zht::ClusterOptions ClusterOptionsFor(const WorkloadSpec& spec) {
  zht::ClusterOptions cluster;
  cluster.num_replicas = spec.replicas;
  cluster.hot_cache_entries = spec.hot_cache_entries;
  return cluster;
}

zht::Result<std::unique_ptr<Cluster>> Cluster::Boot(const WorkloadSpec& spec,
                                                    const std::string& dir,
                                                    SpanBuffer* trace,
                                                    Inject inject) {
  std::unique_ptr<Cluster> c(new Cluster());
  c->nodes_.resize(static_cast<std::size_t>(spec.instances));
  // Front-ends first: the membership table needs their ports. Each hands
  // requests to a slot filled once the server exists (before Start).
  for (std::size_t i = 0; i < c->nodes_.size(); ++i) {
    Node& node = c->nodes_[i];
    node.target = std::make_shared<zht::AsyncRequestHandler>();
    zht::AsyncRequestHandler handler =
        [target = node.target](zht::Request&& request,
                               zht::ResponseCallback done) {
          (*target)(std::move(request), std::move(done));
        };
    zht::EpollServerOptions es;
    es.enable_udp = false;
    es.num_reactors = spec.reactors_per_instance;
    auto net = zht::EpollServer::Create(es, std::move(handler));
    if (!net.ok()) return net.status();
    node.net = std::move(*net);
    c->addresses_.push_back(node.net->address());
  }
  c->table_ =
      zht::MembershipTable::CreateUniform(spec.partitions, c->addresses_);

  const zht::ClusterOptions cluster = ClusterOptionsFor(spec);
  zht::StoreFactory base;
  if (spec.persistent) {
    base = zht::MakeNoVoHTStoreFactory(dir, cluster);
  } else {
    base = [](zht::InstanceId, zht::PartitionId) -> std::unique_ptr<zht::KVStore> {
      auto store = zht::NoVoHT::Open(zht::NoVoHTOptions{});
      if (!store.ok()) return nullptr;
      return std::move(*store);
    };
  }
  zht::StoreFactory factory = base;
  if (trace || inject != Inject::kNone) {
    const zht::MembershipTable* table = &c->table_;
    StoreRegistry* registry = &c->registry_;
    factory = [base, trace, inject, table, registry](
                  zht::InstanceId self,
                  zht::PartitionId partition) -> std::unique_ptr<zht::KVStore> {
      std::unique_ptr<zht::KVStore> store = base(self, partition);
      if (!store) return nullptr;
      auto* novoht = dynamic_cast<zht::NoVoHT*>(store.get());
      const bool replica_side = table->OwnerOf(partition) != self;
      if (inject == Inject::kStaleRead ||
          (inject == Inject::kDropWrite && replica_side)) {
        store = std::make_unique<InjectingStore>(std::move(store), inject);
      }
      if (trace) {
        store = std::make_unique<TracedStore>(
            std::move(store), static_cast<std::uint8_t>(self), trace);
      }
      if (novoht) {
        std::lock_guard<std::mutex> lock(registry->mu);
        registry->novoht.push_back(novoht);
      }
      return store;
    };
  }

  for (std::size_t i = 0; i < c->nodes_.size(); ++i) {
    Node& node = c->nodes_[i];
    node.peer_tcp = std::make_unique<zht::TcpClient>();
    zht::ClientTransport* peer = node.peer_tcp.get();
    if (trace) {
      node.peer_traced = std::make_unique<TracedTransport>(
          peer, static_cast<std::uint8_t>(i), trace);
      peer = node.peer_traced.get();
    }
    zht::ZhtServerOptions so;
    so.self = static_cast<zht::InstanceId>(i);
    so.cluster = cluster;
    so.store_factory = factory;
    so.num_shards = static_cast<std::size_t>(spec.reactors_per_instance);
    node.server = std::make_unique<zht::ZhtServer>(c->table_, so, peer);
    zht::AsyncRequestHandler handler = node.server->AsyncHandler();
    if (trace) {
      handler = TraceHandler(std::move(handler), static_cast<std::uint8_t>(i),
                             trace);
    }
    *node.target = std::move(handler);
    // Reactor hooks, shard binding and placement, then Start — the same
    // wiring zht-server uses.
    zht::LocalCluster::WireReactors(*node.server, *node.net);
  }
  return c;
}

// ---- phases ----

struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<KeyModel> model;
  std::unique_ptr<LoadGenerator> gen;
  LoadStats preload;
  LoadStats warmup;
  double seconds = 0;
};

zht::Result<Setup> SetUp(const WorkloadSpec& spec, const Options& opt,
                         const std::vector<std::string>& keys,
                         const std::string& dir, SpanBuffer* trace) {
  Setup s;
  const std::int64_t t0 = NowNs();
  std::filesystem::create_directories(dir);
  auto cluster = Cluster::Boot(spec, dir, trace, opt.inject);
  if (!cluster.ok()) return cluster.status();
  s.cluster = std::move(*cluster);
  s.model = std::make_unique<KeyModel>(keys.size());
  s.gen = std::make_unique<LoadGenerator>(
      spec, s.cluster->table(), s.cluster->addresses(), s.model.get(), &keys,
      opt.seed * 0x9e3779b97f4a7c15ULL + 1, opt.seed | 0x5a00000000000000ULL);
  Status status = s.gen->Connect();
  if (status.ok()) status = s.gen->Preload(&s.preload);
  if (status.ok()) status = s.gen->Run(kWarmup, &s.warmup);
  if (!status.ok()) return status;
  s.seconds = Seconds(NowNs() - t0);
  return s;
}

struct LatencyResult {
  LogHistogram latency_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

// One blocking ZhtClient caller, one request at a time: the paper's per-op
// latency, client library included.
class LatencyCaller {
 public:
  LatencyCaller(const WorkloadSpec& spec, const Options& opt,
                const zht::MembershipTable& table, KeyModel* model,
                const std::vector<std::string>* keys, SpanBuffer* trace)
      : spec_(spec),
        model_(model),
        keys_(keys),
        trace_(trace),
        traced_(&tcp_, kClientSide, trace),
        client_(table, ClientOptions(spec, opt),
                trace ? static_cast<zht::ClientTransport*>(&traced_) : &tcp_),
        stream_(spec, opt.seed * 0xbf58476d1ce4e5b9ULL + 7) {}

  void Run(Nanos duration, LatencyResult* r) {
    const std::int64_t end = NowNs() + duration;
    while (NowNs() < end) Call(r);
  }

  const zht::ZhtClientStats& client_stats() const { return client_.stats(); }

 private:
  static zht::ZhtClientOptions ClientOptions(const WorkloadSpec& spec,
                                             const perfbench::Options& opt) {
    zht::ZhtClientOptions co;
    co.cluster = ClusterOptionsFor(spec);
    co.client_id = opt.seed | 0x3c00000000000000ULL;
    return co;
  }

  void Call(LatencyResult* r) {
    std::uint32_t k = 0;
    const Op op = stream_.Next(&k);
    const std::string& key = (*keys_)[k];
    ++r->attempted;
    std::string note;
    const std::int64_t t0 = NowNs();
    if (op == Op::kLookup) {
      const std::uint32_t floor = model_->BeginRead(k);
      auto value = client_.Lookup(key);
      Finish(t0, key, r);
      const std::uint32_t seen =
          value.ok() ? ParseValue(*value, k, spec_.value_bytes) : 0;
      if (!value.ok()) {
        note = "lookup " + key + ": " + value.status().ToString();
      } else if (!model_->CheckRead(k, floor, seen)) {
        note = "lookup of " + key + " returned version " +
               std::to_string(seen) + ", allowed [" + std::to_string(floor) +
               ", " + std::to_string(model_->issued(k)) + "]";
      }
    } else {
      const std::uint32_t version = model_->BeginWrite(k);
      const Status status =
          op == Op::kInsert
              ? client_.Insert(key,
                               MakeInsertValue(k, version, spec_.value_bytes))
              : client_.Append(key, MakeAppendValue(k, version));
      Finish(t0, key, r);
      if (status.ok()) {
        model_->AckWrite(k, version);
      } else {
        model_->FailWrite(k);
        note = "write " + key + ": " + status.ToString();
      }
    }
    if (!note.empty()) {
      ++r->failed;
      if (r->notes.size() < 8) r->notes.push_back(note);
    }
  }

  void Finish(std::int64_t t0, const std::string& key, LatencyResult* r) {
    const std::int64_t t1 = NowNs();
    r->latency_ns.Record(static_cast<std::uint64_t>(t1 - t0));
    if (trace_) {
      Span s = MakeSpan(SpanKind::kClientCall, t0, t1);
      s.key_hash = KeyHash(key);
      trace_->Record(s);
    }
  }

  const WorkloadSpec& spec_;
  KeyModel* model_;
  const std::vector<std::string>* keys_;
  SpanBuffer* trace_;
  zht::TcpClient tcp_;
  TracedTransport traced_;  // used only when tracing
  zht::ZhtClient client_;
  OpStream stream_;
};

// Reopens every instance's partition logs and checks that each key holds
// its last acknowledged version on every member of its replica chain.
std::uint64_t VerifyLogs(const WorkloadSpec& spec, const std::string& dir,
                            const zht::MembershipTable& table,
                            const KeyModel& model,
                            const std::vector<std::string>& keys,
                            std::vector<std::string>* notes) {
  std::map<std::pair<zht::InstanceId, zht::PartitionId>,
           std::unique_ptr<zht::NoVoHT>>
      stores;
  std::uint64_t bad = 0;
  auto note = [&](const std::string& text) {
    ++bad;
    if (notes->size() < 8) notes->push_back(text);
  };
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    const zht::PartitionId p = table.PartitionOfKey(keys[k]);
    for (zht::InstanceId m : table.ReplicaChain(p, spec.replicas)) {
      auto& store = stores[{m, p}];
      if (!store) {
        zht::NoVoHTOptions options;
        options.path = dir + "/i" + std::to_string(m) + "_p" +
                       std::to_string(p) + ".novoht";
        auto opened = zht::NoVoHT::Open(options);
        if (!opened.ok()) {
          note("reopen " + options.path + ": " + opened.status().ToString());
          return bad;
        }
        store = std::move(*opened);
      }
      auto value = store->Get(keys[k]);
      const std::uint32_t seen =
          value.ok() ? ParseValue(*value, k, spec.value_bytes) : 0;
      const bool ok = model.uncertain(k)
                          ? seen >= model.acked(k) && seen <= model.issued(k)
                          : seen == model.acked(k);
      if (!ok) {
        note("instance " + std::to_string(m) + " holds version " +
             std::to_string(seen) + " of " + keys[k] + ", acked " +
             std::to_string(model.acked(k)));
      }
    }
  }
  return bad;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---- traced-run analysis ----

// Counters sampled from the running system at a phase boundary.
struct SystemSample {
  std::uint64_t served = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t data_ops = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t write_bytes = 0;
};

SystemSample Sample(Cluster& c) {
  SystemSample s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    s.served += c.net(i).requests_served();
    s.wakeups += c.net(i).loop_wakeups();
    zht::ZhtServer& server = c.server(i);
    for (std::size_t sh = 0; sh < server.num_shards(); ++sh) {
      s.forwarded += server.ShardForwardedOps(sh);
    }
    const zht::ZhtServerStats st = server.stats();
    s.data_ops += st.ops;
    s.cache_hits += st.hot_cache_hits;
    s.cache_misses += st.hot_cache_misses;
    s.cache_invalidations += st.hot_cache_invalidations;
  }
  StoreRegistry& reg = c.stores();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (zht::NoVoHT* store : reg.novoht) s.gc_runs += store->stats().gc_runs;
  s.write_bytes = ProcWriteBytes();
  return s;
}

double P(std::vector<double>& v, double p) { return SamplePercentile(v, p); }

// Codec cost on the workload's own messages: ns per message, median of
// several passes over a seeded sample.
void CodecTimings(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::vector<std::string>& keys,
                  std::vector<Metric>* out) {
  constexpr int kMessages = 4096;
  constexpr int kPasses = 9;
  OpStream stream(spec, seed ^ 0xc0dec0dec0deULL);
  std::vector<zht::Request> requests;
  std::vector<zht::Response> responses;
  for (int i = 0; i < kMessages; ++i) {
    std::uint32_t k = 0;
    const Op op = stream.Next(&k);
    zht::Request req;
    req.seq = static_cast<std::uint64_t>(i) + 1;
    req.key = keys[k];
    req.client_id = seed;
    zht::Response resp;
    resp.seq = req.seq;
    if (op == Op::kLookup) {
      req.op = zht::OpCode::kLookup;
      resp.value = MakeInsertValue(k, 2, spec.value_bytes);
    } else if (op == Op::kInsert) {
      req.op = zht::OpCode::kInsert;
      req.value = MakeInsertValue(k, 2, spec.value_bytes);
    } else {
      req.op = zht::OpCode::kAppend;
      req.value = MakeAppendValue(k, 2);
    }
    requests.push_back(std::move(req));
    responses.push_back(std::move(resp));
  }
  std::vector<std::string> req_wire(kMessages), resp_wire(kMessages);
  std::size_t sink = 0;
  auto time_pass = [&](auto&& body) {
    std::vector<double> per_msg;
    for (int pass = 0; pass < kPasses; ++pass) {
      const std::int64_t t0 = NowNs();
      for (int i = 0; i < kMessages; ++i) body(i);
      per_msg.push_back(static_cast<double>(NowNs() - t0) / kMessages);
    }
    return Median(per_msg);
  };
  const double req_enc =
      time_pass([&](int i) { req_wire[i] = requests[i].Encode(); });
  const double req_dec = time_pass([&](int i) {
    auto r = zht::Request::Decode(req_wire[i]);
    sink += r.ok() ? r->key.size() : 0;
  });
  const double resp_enc =
      time_pass([&](int i) { resp_wire[i] = responses[i].Encode(); });
  const double resp_dec = time_pass([&](int i) {
    auto r = zht::Response::Decode(resp_wire[i]);
    sink += r.ok() ? r->value.size() : 0;
  });
  if (sink == 1) std::fprintf(stderr, " ");  // keep the decodes alive
  out->push_back({"serialize.req_encode_ns", req_enc, "ns"});
  out->push_back({"serialize.req_decode_ns", req_dec, "ns"});
  out->push_back({"serialize.resp_encode_ns", resp_enc, "ns"});
  out->push_back({"serialize.resp_decode_ns", resp_dec, "ns"});
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Per-layer metrics of the traced run. Span-derived latency-phase figures
// come from the decomposition of each ZhtClient call; the rest come from
// the traced half of the saturated phase (spans and system counters).
std::vector<Metric> BuildLayerMetrics(
    const WorkloadSpec& spec, const Options& opt,
    const std::vector<std::string>& keys, const SpanBuffer& trace,
    const LoadStats& sat, const LoadStats& traced, const SystemSample& before,
    const SystemSample& mid, const SystemSample& after,
    const zht::ZhtClientStats& client_stats, std::vector<Metric> layer) {
  const std::vector<Span> spans = trace.Collect();
  const Links links = LinkSpans(spans);
  const std::vector<Decomposition> decomp = Decompose(spans, links);

  auto push = [&layer](const char* name, double value, const char* unit) {
    layer.push_back({name, value, unit});
  };
  auto column = [&decomp](double Decomposition::*field) {
    std::vector<double> v;
    for (const Decomposition& d : decomp) v.push_back(d.*field / 1e3);
    return v;
  };

  // loadgen: validity of the untraced saturated half.
  push("loadgen.cpu_us_per_op", GeneratorCpuPerOp(sat), "us");
  push("loadgen.inflight_mean", sat.inflight_mean(), "count");

  // client (latency phase).
  auto client_self = column(&Decomposition::client_self);
  auto transport = column(&Decomposition::transport);
  const double client_ops = static_cast<double>(client_stats.ops);
  push("client.self_us_p50", P(client_self, 50), "us");
  push("client.transport_us_p50", P(transport, 50), "us");
  push("client.retries_per_op",
       Ratio(static_cast<double>(client_stats.retries), client_ops),
       "ratio");
  push("client.redirects_per_op",
       Ratio(static_cast<double>(client_stats.redirects_followed),
             client_ops),
       "ratio");

  // serialize.
  CodecTimings(spec, opt.seed, keys, &layer);
  push("serialize.wire_bytes_per_op",
       Ratio(static_cast<double>(sat.bytes_out + sat.bytes_in),
             static_cast<double>(sat.completed)),
       "B");

  // net.
  auto net_self = column(&Decomposition::net_self);
  push("net.self_us_p50", P(net_self, 50), "us");
  push("net.requests_per_wakeup",
       Ratio(static_cast<double>(after.served - before.served),
             static_cast<double>(after.wakeups - before.wakeups)),
       "ratio");

  // server.
  auto handle = column(&Decomposition::handle);
  auto queue = column(&Decomposition::queue);
  auto other = column(&Decomposition::other);
  push("server.handle_us_p50", P(handle, 50), "us");
  push("server.handle_us_p99", P(handle, 99), "us");
  // A mean: on hot-read most requests are answered by the ingress cache
  // without a store call, and the median would read 0 on every run.
  push("server.queue_us_mean", Mean(queue), "us");
  push("server.other_us_p50", P(other, 50), "us");

  // Saturated-window spans.
  std::uint64_t handles = 0, inline_handles = 0, write_handles = 0;
  std::vector<double> put_ns, get_ns, append_ns, leg_us, wait_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.phase != 1) continue;
    const double dur = static_cast<double>(s.end - s.start);
    switch (s.kind) {
      case SpanKind::kHandle:
        if (s.flags & kFlagServerOrigin) break;
        ++handles;
        if (s.flags & kFlagInline) ++inline_handles;
        if (s.flags & kFlagWrite) ++write_handles;
        break;
      case SpanKind::kStorePut: put_ns.push_back(dur); break;
      case SpanKind::kStoreGet: get_ns.push_back(dur); break;
      case SpanKind::kStoreAppend: append_ns.push_back(dur); break;
      case SpanKind::kReplLeg: {
        leg_us.push_back(dur / 1e3);
        // Queue wait before the leg: from the primary's durability
        // callback, or from its store call when the store does not sync.
        const int parent = links.parent[i];
        if (parent < 0) break;
        std::int64_t ready = 0;
        bool durable = false;
        for (int c : links.children[static_cast<std::size_t>(parent)]) {
          const Span& child = spans[c];
          if (child.kind == SpanKind::kDurableWait) {
            ready = child.end;
            durable = true;
          } else if (!durable && child.kind != SpanKind::kReplLeg) {
            ready = std::max(ready, child.end);
          }
        }
        if (ready > 0) wait_us.push_back((s.start - ready) / 1e3);
        break;
      }
      default:
        break;
    }
  }
  push("server.inline_ratio",
       Ratio(static_cast<double>(inline_handles), static_cast<double>(handles)),
       "ratio");
  push("server.forward_ratio",
       Ratio(static_cast<double>(after.forwarded - mid.forwarded),
             static_cast<double>(after.data_ops - mid.data_ops)),
       "ratio");

  // cache.
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double writes =
      static_cast<double>(sat.writes_completed + traced.writes_completed);
  push("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  push("cache.invalidations_per_write",
       Ratio(static_cast<double>(after.cache_invalidations -
                                 before.cache_invalidations),
             writes),
       "ratio");

  // store.
  push("store.put_ns_p50", P(put_ns, 50), "ns");
  push("store.get_ns_p50", P(get_ns, 50), "ns");
  push("store.append_ns_p50", P(append_ns, 50), "ns");
  push("store.log_bytes_per_user_byte",
       Ratio(static_cast<double>(after.write_bytes - before.write_bytes),
             static_cast<double>(sat.user_bytes_written +
                                 traced.user_bytes_written)),
       "ratio");
  push("store.gc_runs", static_cast<double>(after.gc_runs - before.gc_runs),
       "count");

  // replication.
  push("repl.legs_per_write",
       Ratio(static_cast<double>(leg_us.size()),
             static_cast<double>(write_handles)),
       "ratio");
  push("repl.leg_us_p50", P(leg_us, 50), "us");
  push("repl.leg_us_p99", P(leg_us, 99), "us");
  push("repl.wait_us_p50", P(wait_us, 50), "us");

  // The tracing itself.
  std::size_t calls = 0;
  for (const Span& s : spans) calls += s.kind == SpanKind::kClientCall;
  std::vector<double> residual;
  for (const Decomposition& d : decomp) {
    residual.push_back((d.rtt - d.client_self - d.net_self - d.queue -
                        d.store - d.durable - d.repl - d.other) /
                       1e3);
  }
  push("trace.overhead", Ratio(traced.ops_per_s(), sat.ops_per_s()), "ratio");
  push("trace.unlinked_ratio",
       Ratio(static_cast<double>(links.unlinked_count),
             static_cast<double>(links.linkable)),
       "ratio");
  push("trace.decomposed_share",
       Ratio(static_cast<double>(decomp.size()), static_cast<double>(calls)),
       "ratio");
  push("trace.rtt_us_mean", Mean(column(&Decomposition::rtt)), "us");
  push("trace.residual_us_mean", Mean(residual), "us");
  push("trace.dropped_spans", static_cast<double>(trace.dropped()), "count");
  return layer;
}

// ---- main ----

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else if (flag == "--inject") {
      if (value == "stale-read") {
        opt->inject = Inject::kStaleRead;
      } else if (value == "drop-write") {
        opt->inject = Inject::kDropWrite;
      } else if (value != "none") {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] "
                 "[--trace-out FILE] [--inject none|stale-read|drop-write]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(opt.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  zht::Logger::Instance().SetLevel(zht::LogLevel::kError);

  std::vector<std::string> keys;
  keys.reserve(spec.keys);
  for (std::uint32_t i = 0; i < spec.keys; ++i) keys.push_back(KeyName(i));

  const std::string run_dir =
      opt.work_dir + "/run-" + std::to_string(::getpid());
  std::unique_ptr<SpanBuffer> trace;
  if (opt.trace) trace = std::make_unique<SpanBuffer>(kTotalSpans);

  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto fail_run = [&](const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::filesystem::remove_all(run_dir);
    return 1;
  };

  // Set-up, several times; the last one is measured.
  const int setups = opt.trace ? 1 : kSetups;
  std::vector<double> setup_seconds;
  Setup live;
  for (int i = 0; i < setups; ++i) {
    const std::string dir = run_dir + "/setup" + std::to_string(i);
    // rss_mb is the peak of the measured system alone: earlier set-ups gave
    // their memory back (malloc_trim below), and the peak restarts here.
    if (i + 1 == setups) ResetPeakRss();
    auto s = SetUp(spec, opt, keys, dir, trace.get());
    if (!s.ok()) return fail_run("set-up failed: " + s.status().ToString());
    setup_seconds.push_back(s->seconds);
    attempted += s->preload.sent + s->warmup.sent;
    failed += s->preload.failed + s->warmup.failed;
    if (i + 1 < setups) {
      LoadStats drain;
      Status drained = s->gen->Drain(&drain);
      attempted += drain.sent;
      failed += drain.failed;
      if (!drained.ok()) return fail_run("drain: " + drained.ToString());
      for (const auto& n : s->gen->failure_notes()) notes.push_back(n);
      s->gen.reset();
      s->cluster.reset();
      std::filesystem::remove_all(dir);
      ::malloc_trim(0);
    } else {
      live = std::move(*s);
    }
  }
  g_inject_armed = true;
  const std::string live_dir = run_dir + "/setup" + std::to_string(setups - 1);

  // Measurement. Untraced: kBlocks blocks, each a saturated phase then a
  // latency phase, each phase cut into kRoundsPerBlock back-to-back rounds;
  // every metric is computed over its phase's least-stolen rounds.
  // Traced: an untraced and a traced saturated half (their ratio is the
  // tracing overhead), then one traced latency phase.
  const Nanos total = static_cast<Nanos>(opt.seconds * 1e9);
  const Nanos sat_time = total / 2;
  const Nanos lat_time = total - sat_time;
  const std::size_t blocks = opt.trace ? 1 : kBlocks;
  const std::size_t rounds_per_block = opt.trace ? 1 : kRoundsPerBlock;
  const Nanos sat_round =
      opt.trace ? sat_time / 2 : sat_time / (kBlocks * kRoundsPerBlock);
  const Nanos lat_round = lat_time / (blocks * rounds_per_block);
  auto caller = std::make_unique<LatencyCaller>(
      spec, opt, live.cluster->table(), live.model.get(), &keys, trace.get());
  std::vector<double> sat_steal, lat_steal;  // per round
  LoadStats sat_all;  // every untraced saturated round together
  LoadStats sat_traced;
  LoadStats drain;
  LatencyResult lat_all;
  // Each round is pooled into every steal level it stays within; the
  // metrics come from one level per phase. Pooling keeps the generator's
  // memory (part of rss_mb) independent of the round count.
  std::array<LoadStats, kNumStealLevels> sat_by_level;
  std::array<LogHistogram, kNumStealLevels> lat_by_level;
  // Per-round series, next to the steal share of the round they come from.
  std::map<std::string, std::vector<double>> rounds;
  auto run_sat_round = [&]() {
    LoadStats round;
    const CpuTicks t0 = ReadCpuTicks();
    Status st = live.gen->Run(sat_round, &round);
    const double steal = StealShare(t0, ReadCpuTicks());
    sat_steal.push_back(steal);
    rounds["ops_s"].push_back(round.ops_per_s());
    rounds["sat_p99_us"].push_back(round.latency_ns.Percentile(99) / 1e3);
    rounds["cpu_us_per_op"].push_back(ServerCpuPerOp(round));
    for (std::size_t l = 0; l < kNumStealLevels; ++l) {
      if (steal <= kStealLevels[l]) Accumulate(round, &sat_by_level[l]);
    }
    Accumulate(round, &sat_all);
    return st;
  };
  auto run_lat_round = [&]() {
    LatencyResult round;
    const CpuTicks t0 = ReadCpuTicks();
    caller->Run(lat_round, &round);
    const double steal = StealShare(t0, ReadCpuTicks());
    lat_steal.push_back(steal);
    rounds["lat_p50_us"].push_back(round.latency_ns.Percentile(50) / 1e3);
    rounds["lat_p99_us"].push_back(round.latency_ns.Percentile(99) / 1e3);
    for (std::size_t l = 0; l < kNumStealLevels; ++l) {
      if (steal <= kStealLevels[l]) lat_by_level[l].Merge(round.latency_ns);
    }
    lat_all.latency_ns.Merge(round.latency_ns);
    lat_all.attempted += round.attempted;
    lat_all.failed += round.failed;
    for (const auto& n : round.notes) notes.push_back(n);
  };
  SystemSample before, mid, after;
  Status status = Status::Ok();
  for (std::size_t b = 0; b < blocks && status.ok(); ++b) {
    if (!opt.trace) {
      for (std::size_t r = 0; r < rounds_per_block && status.ok(); ++r) {
        status = run_sat_round();
      }
    } else {
      before = Sample(*live.cluster);
      status = run_sat_round();
      mid = Sample(*live.cluster);
      trace->SetPhase(1, kSatSpans);
      if (status.ok()) status = live.gen->Run(sat_round, &sat_traced);
      trace->SetPhase(0, 0);
      after = Sample(*live.cluster);
    }
    if (status.ok()) status = live.gen->Drain(&drain);
    if (!status.ok()) break;
    if (trace) trace->SetPhase(2, kTotalSpans);
    for (std::size_t r = 0; r < rounds_per_block; ++r) run_lat_round();
    if (trace) trace->SetPhase(0, 0);
  }
  attempted += sat_all.sent + sat_traced.sent + drain.sent + lat_all.attempted;
  failed += sat_all.failed + sat_traced.failed + drain.failed + lat_all.failed;
  for (const auto& n : live.gen->failure_notes()) notes.push_back(n);
  if (!status.ok()) return fail_run("load: " + status.ToString());
  const zht::ZhtClientStats client_stats = caller->client_stats();
  caller.reset();
  live.gen.reset();

  std::vector<Metric> layer;
  if (opt.trace) {
    // Peer connections and mailbox depth need the live system.
    std::uint64_t peer_connects = 0;
    zht::HistogramData depth;
    for (std::size_t i = 0; i < live.cluster->size(); ++i) {
      peer_connects += live.cluster->peer(i).connects();
      for (std::size_t sh = 0; sh < live.cluster->server(i).num_shards();
           ++sh) {
        depth.Merge(live.cluster->server(i).ShardMailboxDepth(sh));
      }
    }
    layer.push_back({"net.peer_connects", static_cast<double>(peer_connects),
                     "count"});
    layer.push_back({"server.mailbox_depth_p99", depth.Percentile(99),
                     "count"});
  }
  const zht::MembershipTable table = live.cluster->table();
  live.cluster.reset();  // stops the servers and closes every store

  if (spec.persistent) {
    failed += VerifyLogs(spec, live_dir, table, *live.model, keys, &notes);
  }
  for (const auto& n : notes) std::fprintf(stderr, "failure: %s\n", n.c_str());

  const double gen_cpu_per_op = GeneratorCpuPerOp(sat_all);
  const double server_cpu_per_op = ServerCpuPerOp(sat_all);
  // Validity guards: the generator must not be what limits ops_s. Its
  // thread must have idled (busy share below 0.9), cost clearly less per
  // op than the server, and kept the window on the wire.
  const double gen_busy = Ratio(static_cast<double>(sat_all.gen_cpu_ns),
                                static_cast<double>(sat_all.wall_ns));
  const bool gen_bound = gen_busy > 0.9 ||
                         gen_cpu_per_op > 0.5 * server_cpu_per_op ||
                         sat_all.inflight_mean() < 0.9 * spec.window;
  rounds["sat_steal"] = sat_steal;
  rounds["lat_steal"] = lat_steal;
  std::string per_round;
  for (const auto& [name, values] : rounds) {
    per_round += ", \"round." + name + "\": [";
    for (std::size_t r = 0; r < values.size(); ++r) {
      per_round += (r ? ", " : "") + JsonNumber(values[r]);
    }
    per_round += "]";
  }
  // The rounds each phase's metrics come from, and whether even those
  // rounds were stolen from heavily.
  const std::size_t sat_level = ChooseStealLevel(sat_steal);
  const std::size_t lat_level = ChooseStealLevel(lat_steal);
  const LoadStats& sat_kept = sat_by_level[sat_level];
  const LogHistogram& lat_kept = lat_by_level[lat_level];
  auto rounds_within = [](const std::vector<double>& steal, double level) {
    return static_cast<std::size_t>(
        std::count_if(steal.begin(), steal.end(),
                      [&](double s) { return s <= level; }));
  };
  const bool steal_bound = kStealLevels[sat_level] > kStealGuard ||
                           kStealLevels[lat_level] > kStealGuard;
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"connections\": %d, \"window\": %d, "
      "\"sat_ops\": %llu, \"lat_ops\": %llu, "
      "\"loadgen_cpu_us_per_op\": %s, \"server_cpu_us_per_op\": %s, "
      "\"loadgen_busy_share\": %s, \"inflight_mean\": %s, "
      "\"generator_bound\": %s, \"sat_steal_level\": %s, "
      "\"sat_rounds_kept\": %zu, \"lat_steal_level\": %s, "
      "\"lat_rounds_kept\": %zu, \"steal_bound\": %s%s}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      kConnections, spec.window,
      static_cast<unsigned long long>(sat_all.completed),
      static_cast<unsigned long long>(lat_all.latency_ns.count()),
      JsonNumber(gen_cpu_per_op).c_str(), JsonNumber(server_cpu_per_op).c_str(),
      JsonNumber(gen_busy).c_str(), JsonNumber(sat_all.inflight_mean()).c_str(),
      gen_bound ? "true" : "false", JsonNumber(kStealLevels[sat_level]).c_str(),
      rounds_within(sat_steal, kStealLevels[sat_level]),
      JsonNumber(kStealLevels[lat_level]).c_str(),
      rounds_within(lat_steal, kStealLevels[lat_level]),
      steal_bound ? "true" : "false", per_round.c_str());

  const bool correct = failed == 0;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
    metrics.push_back({"ops_s", sat_kept.ops_per_s(), "1/s"});
    metrics.push_back(
        {"sat_p99_us", sat_kept.latency_ns.Percentile(99) / 1e3, "us"});
    metrics.push_back({"lat_p50_us", lat_kept.Percentile(50) / 1e3, "us"});
    metrics.push_back({"lat_p99_us", lat_kept.Percentile(99) / 1e3, "us"});
    metrics.push_back({"cpu_us_per_op", ServerCpuPerOp(sat_kept), "us"});
    metrics.push_back({"rss_mb", PeakRssKb() / 1024.0, "MB"});
  } else {
    metrics = BuildLayerMetrics(spec, opt, keys, *trace, sat_all,
                                sat_traced, before, mid, after, client_stats,
                                std::move(layer));
    if (!opt.trace_out.empty()) trace->WriteTo(opt.trace_out);
  }
  std::filesystem::remove_all(run_dir);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
