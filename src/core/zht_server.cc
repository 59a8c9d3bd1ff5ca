#include "core/zht_server.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "novoht/novoht.h"
#include "serialize/batch.h"
#include "serialize/metrics_codec.h"
#include "serialize/wire.h"

namespace zht {
namespace {

// Packs key/value pairs for one kTransferData carrier:
// varint count, then per pair: varint klen, varint vlen, key, value.
std::string PackPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  wire::Writer w(&out);
  w.PutVarint(pairs.size());
  for (const auto& [key, value] : pairs) {
    w.PutVarint(key.size());
    w.PutVarint(value.size());
    w.PutBytes(key);
    w.PutBytes(value);
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::string>>> UnpackPairs(
    std::string_view data) {
  wire::Reader r(data);
  std::uint64_t count;
  if (!r.GetVarint(&count)) {
    return Status(StatusCode::kCorruption, "pair batch header");
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t klen, vlen;
    std::string_view key, value;
    if (!r.GetVarint(&klen) || !r.GetVarint(&vlen) ||
        !r.GetBytes(klen, &key) || !r.GetBytes(vlen, &value)) {
      return Status(StatusCode::kCorruption, "pair batch payload");
    }
    pairs.emplace_back(std::string(key), std::string(value));
  }
  return pairs;
}

std::unique_ptr<KVStore> DefaultStoreFactory(InstanceId, PartitionId) {
  auto store = NoVoHT::Open(NoVoHTOptions{});  // in-memory NoVoHT
  return store.ok() ? std::move(*store) : nullptr;
}

bool IsDataOp(OpCode op) {
  switch (op) {
    case OpCode::kInsert:
    case OpCode::kLookup:
    case OpCode::kRemove:
    case OpCode::kAppend:
      return true;
    default:
      return false;
  }
}

// At-most-once window for the non-idempotent append, per shard (the shard
// is the unit of single-threaded ownership, so dedup needs no lock).
constexpr std::size_t kDedupWindow = 8192;

// Streams issued per transfer leg before the target is abandoned (the first
// attempt plus re-streams after a failed or mismatched End).
constexpr int kTransferMaxAttempts = 3;

// True once `table` names an owner other than `self` for `partition`: a
// handed-off partition is released then.
bool OwnedElsewhere(const MembershipTable& table, PartitionId partition,
                    InstanceId self) {
  return partition < table.num_partitions() &&
         table.OwnerOf(partition) != self;
}

// Executor identity of the current thread, per server. A reactor registers
// itself via EnterExecutorThread; every other thread reads as -1.
struct ExecutorTls {
  const void* owner = nullptr;
  int executor = -1;
};
thread_local ExecutorTls tls_executor;

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

bool IsLegalTransition(PartitionState from, PartitionState to) {
  using S = PartitionState;
  switch (from) {
    case S::kServing:
      return to == S::kSending || to == S::kReceiving;
    case S::kSending:
      return to == S::kServing || to == S::kHandedOff;
    case S::kHandedOff:
      return to == S::kServing;
    case S::kReceiving:
      return to == S::kReceiving || to == S::kServing;
  }
  return false;
}

StoreFactory MakeNoVoHTStoreFactory(std::string dir,
                                    const ClusterOptions& cluster) {
  return [dir = std::move(dir), cluster](
             InstanceId self,
             PartitionId partition) -> std::unique_ptr<KVStore> {
    NoVoHTOptions options;
    options.path = dir + "/i" + std::to_string(self) + "_p" +
                   std::to_string(partition) + ".novoht";
    options.durability = cluster.durability;
    options.max_commit_latency = cluster.max_commit_latency;
    // The server acks once per request/carrier from the flusher's
    // NotifyDurable callback; mutators must not also block per-op inside
    // the shard drain.
    options.wait_for_durable = false;
    auto store = NoVoHT::Open(options);
    if (!store.ok()) {
      ZHT_WARN << "NoVoHT store factory failed for " << options.path << ": "
               << store.status().ToString();
      return nullptr;
    }
    return std::move(*store);
  };
}

ZhtServer::ZhtServer(MembershipTable table, const ZhtServerOptions& options,
                     ClientTransport* peer_transport)
    : options_(options),
      peer_transport_(peer_transport),
      space_(table.space()),
      epoch_(table.epoch()) {
  if (!options_.store_factory) options_.store_factory = DefaultStoreFactory;

  std::size_t num_shards = options_.num_shards;
  if (num_shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_shards = std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
  }
  shards_.reserve(num_shards);
  const std::size_t cache_entries = options_.cluster.hot_cache_entries;
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = s + 1 == num_shards
                     ? std::make_unique<Shard>(std::move(table), cache_entries)
                     : std::make_unique<Shard>(table, cache_entries);
    shard->index = s;
    shards_.push_back(std::move(shard));
  }

  // Resolve every hot-path metric handle once; Record()/Increment() through
  // these pointers never acquires a lock.
  static constexpr const char* kDataOpNames[4] = {"insert", "lookup", "remove",
                                                  "append"};
  for (int i = 0; i < 4; ++i) {
    data_op_hist_[i] = metrics_.GetHistogram(
        std::string("server.op.") + kDataOpNames[i] + ".latency_ns");
  }
  batch_hist_ = metrics_.GetHistogram("server.op.batch.latency_ns");
  batch_size_hist_ = metrics_.GetHistogram("server.batch.size");
  replication_fanout_hist_ = metrics_.GetHistogram("server.replication.fanout");
  mailbox_depth_hist_ = metrics_.GetHistogram("server.mailbox.depth");
  replication_sync_counter_ = metrics_.GetCounter("server.replication.sync");
  replication_async_counter_ = metrics_.GetCounter("server.replication.async");
  redirect_counter_ = metrics_.GetCounter("server.redirects");
  forwards_counter_ = metrics_.GetCounter("reactor.forwards");
  mailbox_full_counter_ = metrics_.GetCounter("reactor.mailbox_full");
  cache_hit_counter_ = metrics_.GetCounter("server.cache.hit");
  cache_miss_counter_ = metrics_.GetCounter("server.cache.miss");
  cache_invalidate_counter_ = metrics_.GetCounter("server.cache.invalidate");
  cache_drop_counter_ = metrics_.GetCounter("server.cache.drop");
  shed_counter_ = metrics_.GetCounter("server.admission.shed");

  const std::size_t num_finishers =
      std::max<std::size_t>(2, std::min<std::size_t>(4, num_shards));
  finishers_.reserve(num_finishers);
  for (std::size_t i = 0; i < num_finishers; ++i) {
    finishers_.emplace_back([this] { FinisherLoop(); });
  }
  async_worker_ = std::thread([this] { AsyncReplicationLoop(); });
}

ZhtServer::~ZhtServer() {
  stopping_.store(true, std::memory_order_release);
  // Contract: the hosting front-end has stopped (joined) its reactors
  // before destroying the server, so this thread may drain every shard
  // itself. Finishers and store flushers are still running and may Post
  // concurrently — the unbind is an atomic store and the waker stays
  // callable (the front-end's fds outlive this server).
  for (auto& shard : shards_) {
    shard->executor.store(-1, std::memory_order_release);
  }
  // Drain remaining mailbox work and wait for every in-flight request to
  // complete (durability callbacks park on store flushers; replication
  // finishers are still running and are stopped only after this).
  for (;;) {
    for (auto& shard : shards_) DrainShared(*shard);
    if (inflight_.load(std::memory_order_acquire) == 0) break;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(finisher_mu_);
    finishers_stop_ = true;
  }
  finisher_cv_.notify_all();
  for (std::thread& t : finishers_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    async_stop_ = true;
  }
  queue_cv_.notify_all();
  if (async_worker_.joinable()) async_worker_.join();
  // Tear the stores down while this server's mutexes and condition
  // variables are still alive: destroying a store joins its flusher
  // thread, which may still be exiting a signal (EnqueueFinisher,
  // OnRequestComplete) issued from its final durability callback.
  for (auto& shard : shards_) shard->partitions.clear();
}

// ---------------------------------------------------------------------------
// Mailbox machinery
// ---------------------------------------------------------------------------

int ZhtServer::CurrentExecutor() const {
  return tls_executor.owner == this ? tls_executor.executor : -1;
}

void ZhtServer::EnterExecutorThread(int executor) {
  tls_executor.owner = this;
  tls_executor.executor = executor;
}

void ZhtServer::BindShardExecutor(std::size_t shard, int executor,
                                  std::function<void()> waker) {
  if (shard >= shards_.size() || executor < 0) return;
  // Every executor gets its own SPSC ring into every shard (any reactor may
  // forward to any shard). Binds happen on the setup thread before traffic.
  for (auto& s : shards_) {
    while (s->rings.size() <= static_cast<std::size_t>(executor)) {
      s->rings.push_back(
          std::make_unique<SpscTaskRing>(options_.mailbox_ring_capacity));
    }
  }
  shards_[shard]->executor.store(executor, std::memory_order_release);
  shards_[shard]->waker = std::move(waker);
}

void ZhtServer::Post(Shard& shard, ShardTask task) {
  Enqueue(shard, std::move(task));
  Kick(shard);
}

void ZhtServer::Enqueue(Shard& shard, ShardTask task) {
  const int from = CurrentExecutor();
  const int owner = shard.executor.load(std::memory_order_acquire);
  if (owner >= 0 && from != owner) {
    // Cross-reactor forward: a message into the owner's mailbox, not a
    // lock on the owner's state.
    shard.forwarded.fetch_add(1, kRelaxed);
    forwards_counter_->Increment();
  }
  if (from >= 0 && static_cast<std::size_t>(from) < shard.rings.size()) {
    if (!shard.rings[from]->Push(std::move(task))) {
      // Bounded ring overflowed; spill to the MPSC queue (unbounded) so
      // the producer never blocks inside its own event loop.
      mailbox_full_counter_->Increment();
      shard.overflow.Push(std::move(task));
    }
  } else {
    shard.overflow.Push(std::move(task));
  }
  // seq_cst: pairs with DrainShared's release-then-recheck (see there).
  shard.queued.fetch_add(1, std::memory_order_seq_cst);
}

void ZhtServer::Kick(Shard& shard) {
  const int owner = shard.executor.load(std::memory_order_acquire);
  if (owner >= 0) {
    if (CurrentExecutor() == owner) {
      DrainBound(shard);
    } else if (shard.waker) {
      shard.waker();
    }
    return;
  }
  DrainShared(shard);
}

void ZhtServer::DrainBound(Shard& shard) {
  // Owner executor thread only; `draining` guards against a task posting
  // back into its own shard re-entering the drain.
  if (shard.draining) return;
  if (shard.queued.load(std::memory_order_acquire) == 0) return;
  shard.draining = true;
  DrainAll(shard);
  shard.draining = false;
}

void ZhtServer::DrainShared(Shard& shard) {
  // Unbound shards: whichever thread posts drains, serialized by a CAS on
  // `active`. A loser returns — the winner's drain loop covers its task.
  // That holds only if the winner's release of `active` and its re-check
  // of `queued` are not reordered, nor the loser's count and claim (a
  // store-load pair on each side): with weaker orders both can miss the
  // other and a posted task strands with nobody left to drain it.
  while (shard.queued.load(std::memory_order_seq_cst) > 0) {
    if (shard.active.exchange(true, std::memory_order_seq_cst)) return;
    const std::size_t ran = DrainAll(shard);
    shard.active.store(false, std::memory_order_seq_cst);
    // queued > 0 with nothing poppable means a producer is mid-push (the
    // MPSC link window); give it a beat and re-check.
    if (ran == 0) std::this_thread::yield();
  }
}

std::size_t ZhtServer::DrainAll(Shard& shard) {
  const std::uint64_t depth = shard.queued.load(std::memory_order_acquire);
  if (depth > 0) {
    shard.mailbox_depth.Record(static_cast<std::int64_t>(depth));
    mailbox_depth_hist_->Record(static_cast<std::int64_t>(depth));
  }
  std::size_t ran = 0;
  for (;;) {
    ShardTask task;
    bool got = false;
    for (auto& ring : shard.rings) {
      if (ring->Pop(&task)) {
        got = true;
        break;
      }
    }
    if (!got) got = shard.overflow.Pop(&task);
    if (!got) break;
    shard.queued.fetch_sub(1, std::memory_order_acq_rel);
    ++ran;
    task(shard);
  }
  return ran;
}

void ZhtServer::RunExecutor(int executor) {
  for (auto& shard : shards_) {
    if (shard->executor.load(std::memory_order_acquire) == executor) {
      DrainBound(*shard);
    }
  }
}

int ZhtServer::PreferredExecutor(const Request& request) const {
  if (!IsDataOp(request.op)) return -1;
  return ShardForPartition(space_.PartitionOfKey(request.key))
      .executor.load(std::memory_order_acquire);
}

void ZhtServer::OnRequestComplete() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      stopping_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ZhtServer::RecordDataOpLatency(OpCode op, Nanos start) {
  const auto op_index = static_cast<std::size_t>(op) - 1;
  if (op_index < 4) {
    data_op_hist_[op_index]->Record(SystemClock::Instance().Now() - start);
  }
}

// ---------------------------------------------------------------------------
// Ingress dispatch
// ---------------------------------------------------------------------------

void ZhtServer::HandleAsync(Request&& request, ResponseCallback done) {
  if (stopping_.load(std::memory_order_acquire)) {
    Response resp;
    resp.seq = request.seq;
    resp.status = Status(StatusCode::kUnavailable, "server stopping").raw();
    done(std::move(resp));
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);

  if (IsDataOp(request.op)) {
    // Single-key hot path: partition from the immutable space copy, then
    // one hop into the owning shard's mailbox. No locks anywhere. Cache
    // hits and sheds answer with the raw `done` before any std::function
    // wrapper is built — the hit path's only allocation is the value copy.
    const Nanos start = SystemClock::Instance().Now();
    Shard& shard = ShardForPartition(space_.PartitionOfKey(request.key));
    if (request.op == OpCode::kLookup &&
        TryServeFromCache(shard, request, done, start)) {
      OnRequestComplete();
      return;
    }
    if (MaybeShed(shard, request, done)) {
      OnRequestComplete();
      return;
    }
    const std::size_t charge = request.key.size() + request.value.size();
    shard.inflight_bytes.fetch_add(charge, kRelaxed);
    Post(shard, [this, request = std::move(request), done = std::move(done),
                 start, charge](Shard& sh) mutable {
      sh.inflight_bytes.fetch_sub(charge, kRelaxed);
      ExecDataOp(sh, std::move(request),
                 [this, done = std::move(done)](Response&& resp) mutable {
                   done(std::move(resp));
                   OnRequestComplete();
                 },
                 start);
    });
    return;
  }

  // Every exit path below runs through `finish`, which releases the
  // in-flight reference the destructor waits on.
  ResponseCallback finish = [this,
                             done = std::move(done)](Response&& resp) mutable {
    done(std::move(resp));
    OnRequestComplete();
  };

  switch (request.op) {
    case OpCode::kBatch:
      StartBatch(std::move(request), std::move(finish));
      return;
    case OpCode::kPing: {
      Response resp;
      resp.seq = request.seq;
      resp.epoch = epoch_.load(kRelaxed);
      finish(std::move(resp));
      return;
    }
    case OpCode::kMembershipPull: {
      Post(*shards_.front(),
           [seq = request.seq, since = request.epoch,
            done = std::move(finish)](Shard& sh) mutable {
             Response resp;
             resp.seq = seq;
             resp.epoch = sh.table.epoch();
             resp.membership = since == 0 ? sh.table.EncodeFull()
                                          : sh.table.EncodeDelta(since);
             done(std::move(resp));
           });
      return;
    }
    case OpCode::kMembershipPush:
      StartMembershipPush(std::move(request), std::move(finish));
      return;
    case OpCode::kMigrateOut: {
      const std::uint64_t seq = request.seq;
      auto target = NodeAddress::Parse(request.value);
      if (!target.ok()) {
        Response resp;
        resp.seq = seq;
        resp.status = target.status().raw();
        finish(std::move(resp));
        return;
      }
      StartMigrateOut(request.partition, *target,
                      [this, seq, done = std::move(finish)](
                          Status status) mutable {
                        Response resp;
                        resp.seq = seq;
                        resp.status = status.raw();
                        resp.epoch = epoch_.load(kRelaxed);
                        done(std::move(resp));
                      });
      return;
    }
    case OpCode::kRepair: {
      // Ack as soon as the command is accepted — the rebuild streams in the
      // background (the manager needs delivery, not completion; RepairPartition
      // is the blocking form for callers that must wait).
      const PartitionId partition = request.partition;
      Response resp;
      resp.seq = request.seq;
      resp.epoch = epoch_.load(kRelaxed);
      finish(std::move(resp));
      StartRebuild(partition, [partition](Status status) {
        if (!status.ok()) {
          ZHT_WARN << "background rebuild of partition " << partition
                   << " incomplete: " << status.ToString();
        }
      });
      return;
    }
    case OpCode::kDigest:
      PostPartitionOp(&ZhtServer::ExecDigest, std::move(request),
                      std::move(finish));
      return;
    case OpCode::kTransferBegin:
      PostPartitionOp(&ZhtServer::ExecTransferBegin, std::move(request),
                      std::move(finish));
      return;
    case OpCode::kTransferData:
      PostPartitionOp(&ZhtServer::ExecTransferData, std::move(request),
                      std::move(finish));
      return;
    case OpCode::kTransferEnd:
      PostPartitionOp(&ZhtServer::ExecTransferEnd, std::move(request),
                      std::move(finish));
      return;
    case OpCode::kBroadcast: {
      Post(ShardForPartition(space_.PartitionOfKey(request.key)),
           [this, request = std::move(request),
            done = std::move(finish)](Shard& sh) mutable {
             ExecBroadcast(sh, std::move(request), std::move(done));
           });
      return;
    }
    case OpCode::kStats: {
      // Admin introspection: a versioned structured snapshot (counters,
      // gauges, per-opcode latency histograms) encoded with
      // serialize/metrics_codec.h. The census scatters across every shard;
      // the last shard's continuation encodes and completes — no blocking
      // on the ingress thread.
      const std::uint64_t seq = request.seq;
      ScatterCensus([this, seq, done = std::move(finish)](
                        std::vector<ShardCensus> census) mutable {
        Response resp;
        resp.seq = seq;
        resp.epoch = epoch_.load(kRelaxed);
        resp.value = EncodeMetricsSnapshot(BuildSnapshot(census));
        done(std::move(resp));
      });
      return;
    }
    default: {
      Response resp;
      resp.seq = request.seq;
      resp.status = Status(StatusCode::kInvalidArgument).raw();
      finish(std::move(resp));
      return;
    }
  }
}

void ZhtServer::PostPartitionOp(PartitionOpHandler exec, Request&& request,
                                ResponseCallback done) {
  Post(ShardForPartition(request.partition),
       [this, exec, request = std::move(request),
        done = std::move(done)](Shard& sh) mutable {
         (this->*exec)(sh, std::move(request), std::move(done));
       });
}

Response ZhtServer::Handle(Request&& request) {
  return CallBlocking(AsyncHandler(), std::move(request));
}

// ---------------------------------------------------------------------------
// Data ops (inside shard drains)
// ---------------------------------------------------------------------------

Response ZhtServer::RedirectTo(const Shard& shard, InstanceId owner,
                               std::uint64_t seq, std::uint32_t requester_epoch,
                               bool include_membership) {
  // Lazy membership update (§III.C): the wrong-owner reply carries the
  // delta the requester is missing — one message per client per partition
  // move.
  Response resp;
  resp.seq = seq;
  resp.status = Status(StatusCode::kRedirect).raw();
  resp.epoch = shard.table.epoch();
  if (include_membership) {
    resp.membership = shard.table.EncodeDelta(requester_epoch);
  }
  if (owner < shard.table.instance_count()) {
    const auto& info = shard.table.Instance(owner);
    resp.redirect_host = info.address.host;
    resp.redirect_port = info.address.port;
  }
  return resp;
}

ZhtServer::DataRoute ZhtServer::RouteDataOp(Shard& shard,
                                            const Request& request,
                                            std::atomic<bool>* delta_gate) {
  DataRoute route;
  route.partition = shard.table.PartitionOfKey(request.key);
  route.epoch = shard.table.epoch();
  route.chain =
      shard.table.ReplicaChain(route.partition, options_.cluster.num_replicas);

  const bool is_replica_traffic =
      request.server_origin && request.replica_index > 0;
  const bool is_client_failover =
      !request.server_origin && request.replica_index > 0;

  if (!is_replica_traffic) {
    bool in_chain = false;
    for (InstanceId member : route.chain) {
      if (member == options_.self) {
        in_chain = true;
        break;
      }
    }
    const bool is_primary =
        !route.chain.empty() && route.chain[0] == options_.self;
    if (!is_primary && !(is_client_failover && in_chain)) {
      stats_.redirects.fetch_add(1, kRelaxed);
      redirect_counter_->Increment();
      route.redirect =
          RedirectTo(shard, route.chain.empty() ? 0 : route.chain[0],
                     request.seq, request.epoch, /*include_membership=*/true);
      if (delta_gate && !route.redirect->membership.empty()) {
        // A batch piggybacks the delta once, on its first redirected
        // sub-op; shard groups race for the claim and losers strip it.
        bool expected = false;
        if (!delta_gate->compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          route.redirect->membership.clear();
        }
      }
    }
  }
  return route;
}

bool ZhtServer::IsDuplicateAppend(Shard& shard, const Request& request) {
  const std::uint64_t key = request.DedupKey();
  if (key == 0) return false;
  if (shard.dedup_set.count(key)) return true;
  shard.dedup_ring.push_back(key);
  shard.dedup_set.insert(key);
  if (shard.dedup_ring.size() > kDedupWindow) {
    shard.dedup_set.erase(shard.dedup_ring.front());
    shard.dedup_ring.pop_front();
  }
  return false;
}

KVStore* ZhtServer::StoreOf(PartitionRecord& record, PartitionId partition) {
  if (!record.store) {
    record.store = options_.store_factory(options_.self, partition);
  }
  return record.store.get();
}

KVStore* ZhtServer::ShadowOf(PartitionRecord& record, PartitionId partition) {
  if (!record.shadow) {
    record.shadow = options_.store_factory(
        options_.self, space_.num_partitions() + partition);
    // A persistent factory may reload a landing pad an earlier process
    // left behind; a transfer starts from an empty one.
    if (record.shadow && !record.shadow->Clear().ok()) record.shadow.reset();
  }
  return record.shadow.get();
}

bool ZhtServer::Transition(Shard& shard, PartitionId partition,
                           PartitionState to) {
  PartitionRecord& record = shard.partitions[partition];
  const PartitionState from = record.state;
  if (!IsLegalTransition(from, to)) return false;
  if (from == PartitionState::kServing) {
    // Entries cached so far describe a copy that is about to be frozen,
    // handed off or replaced; no fills happen outside kServing.
    CacheDropPartition(shard, partition);
  }
  if (from == PartitionState::kHandedOff && record.had_data) {
    // The had_data rule: an ex-owner that stays in the replica chain has
    // nothing left to serve failover reads from (its store was erased by
    // the handoff), so it waits in kReceiving for the repair stream the
    // manager commands.
    const auto chain =
        shard.table.ReplicaChain(partition, options_.cluster.num_replicas);
    if (std::find(chain.begin(), chain.end(), options_.self) != chain.end()) {
      to = PartitionState::kReceiving;
    }
  }
  if (to != PartitionState::kHandedOff) record.had_data = false;
  record.state = to;
  if (to == PartitionState::kServing) {
    shard.unsettled.erase(partition);
  } else {
    shard.unsettled.insert(partition);
  }
  return true;
}

void ZhtServer::ReconcileWithTable(Shard& shard) {
  // A copy: Transition edits the index.
  const std::vector<PartitionId> unsettled(shard.unsettled.begin(),
                                           shard.unsettled.end());
  for (PartitionId partition : unsettled) {
    const PartitionRecord& record = shard.partitions[partition];
    if (record.state == PartitionState::kHandedOff) {
      if (OwnedElsewhere(shard.table, partition, options_.self)) {
        Transition(shard, partition, PartitionState::kServing);
      }
    } else if (record.state == PartitionState::kReceiving) {
      const auto chain =
          shard.table.ReplicaChain(partition, options_.cluster.num_replicas);
      if (!chain.empty() && chain[0] == options_.self) {
        Transition(shard, partition, PartitionState::kServing);
      }
    }
  }
}

Status ZhtServer::ApplyToStore(PartitionRecord& record, PartitionId partition,
                               OpCode op, std::string_view key,
                               std::string_view value, std::string* out) {
  KVStore* store = StoreOf(record, partition);
  if (!store) return Status(StatusCode::kInternal, "store factory failed");
  switch (op) {
    case OpCode::kInsert:
      return store->Put(key, value);
    case OpCode::kLookup: {
      auto result = store->Get(key);
      if (!result.ok()) return result.status();
      if (out) *out = std::move(*result);
      return Status::Ok();
    }
    case OpCode::kRemove:
      return store->Remove(key);
    case OpCode::kAppend:
      return store->Append(key, value);
    default:
      return Status(StatusCode::kInvalidArgument, "not a data op");
  }
}

ZhtServer::ReplicaPlan ZhtServer::MakeReplicaPlan(
    const Shard& shard, const std::vector<InstanceId>& chain) const {
  // Resolve every chain address while the shard's table is at hand, so
  // finishers and the async worker never touch a membership table.
  ReplicaPlan plan;
  plan.chain = chain;
  plan.addresses.reserve(chain.size());
  for (InstanceId id : chain) {
    plan.addresses.push_back(id < shard.table.instance_count()
                                 ? shard.table.Instance(id).address
                                 : NodeAddress{});
  }
  return plan;
}

void ZhtServer::ExecDataOp(Shard& shard, Request&& request,
                           ResponseCallback done, Nanos start) {
  DataRoute route = RouteDataOp(shard, request, nullptr);
  const OpCode op = request.op;
  if (route.redirect) {
    done(std::move(*route.redirect));
    RecordDataOpLatency(op, start);
    return;
  }

  Response resp;
  resp.seq = request.seq;
  resp.epoch = route.epoch;
  PartitionRecord& record = shard.partitions[route.partition];
  if (record.state != PartitionState::kServing) {
    // Partition mid-transfer (§III.C "Data Migration"): state cannot be
    // modified; the client backs off and retries, which realizes the
    // paper's request queueing at the sender. Rejecting reads too keeps a
    // receiving replica from serving half-streamed state.
    resp.status = Status(StatusCode::kMigrating).raw();
    done(std::move(resp));
    RecordDataOpLatency(op, start);
    return;
  }
  if (op == OpCode::kAppend && IsDuplicateAppend(shard, request)) {
    // Retransmission of an append we already applied: acknowledge success
    // without re-applying.
    stats_.duplicate_appends_dropped.fetch_add(1, kRelaxed);
    resp.status = Status::Ok().raw();
    done(std::move(resp));
    RecordDataOpLatency(op, start);
    return;
  }

  std::string lookup_value;
  Status status = ApplyToStore(record, route.partition, op, request.key,
                               request.value, &lookup_value);
  stats_.ops.fetch_add(1, kRelaxed);
  if (op == OpCode::kLookup) {
    // Fill in-shard, where this partition's store is ordered: the control
    // flow above guarantees it is owned and not mid-migration/rebuild.
    if (status.ok()) {
      CacheFill(shard, route.partition, request.key, lookup_value);
    }
  } else {
    // Synchronous invalidation before the ack can leave this drain: a
    // later probe can never observe the pre-mutation value (DESIGN.md §13).
    CacheInvalidate(shard, request.key);
  }
  // Replication chain for this mutation. A failover write the client
  // placed on a secondary (replica_index > 0, past members its detector
  // marked dead) must still fan out to every other chain member — acking
  // a single copy would silently drop the replication level to one, and
  // the next failure would lose an acked write. The chain is rotated so
  // this instance leads and the usual leg machinery applies; the rotation
  // (not a suffix) matters because a skipped member may in fact be alive
  // — a spurious detector mark — and serving reads.
  std::vector<InstanceId> replication_chain;
  bool failover_accept = false;
  if (status.ok() && op != OpCode::kLookup &&
      options_.cluster.num_replicas > 0 && !request.server_origin &&
      route.chain.size() > 1) {
    if (request.replica_index == 0) {
      replication_chain = route.chain;
    } else {
      auto self_it =
          std::find(route.chain.begin(), route.chain.end(), options_.self);
      if (self_it != route.chain.end()) {
        replication_chain.push_back(options_.self);
        replication_chain.insert(replication_chain.end(),
                                 std::next(self_it), route.chain.end());
        replication_chain.insert(replication_chain.end(), route.chain.begin(),
                                 self_it);
        failover_accept = true;
      }
    }
  }
  const bool replicate = replication_chain.size() > 1;
  resp.status = status.raw();
  resp.value = std::move(lookup_value);

  std::shared_ptr<KVStore> store;
  std::uint64_t token = 0;
  if (resp.ok() && op != OpCode::kLookup && record.store) {
    // The token covers exactly the mutations applied so far, including
    // ours — captured in-shard, where this store is ordered.
    store = record.store;
    token = store->last_commit_token();
  }
  if (token == 0 && !replicate) {
    // Hot path: routed, applied, and acked on the owning shard — zero
    // mutexes end to end.
    done(std::move(resp));
    RecordDataOpLatency(op, start);
    return;
  }

  ReplicaPlan plan;
  if (replicate) {
    plan = MakeReplicaPlan(shard, replication_chain);
    plan.all_sync = failover_accept;
    ApplyRebuildDiversions(record, &plan);
  }
  const PartitionId partition = route.partition;
  auto fin = [this, resp = std::move(resp), request = std::move(request),
              plan = std::move(plan), partition, replicate, op, start,
              done = std::move(done)](Status durable) mutable {
    bool do_replicate = replicate;
    if (!durable.ok()) {
      resp.status = durable.raw();
      do_replicate = false;
    }
    if (!do_replicate) {
      done(std::move(resp));
      RecordDataOpLatency(op, start);
      return;
    }
    // A synchronous hop to the secondary keeps primary+secondary strongly
    // consistent; it is peer I/O, so it runs on a finisher, never inside a
    // shard drain or a flusher callback.
    EnqueueFinisher([this, resp = std::move(resp),
                     request = std::move(request), plan = std::move(plan),
                     partition, op, start, done = std::move(done)]() mutable {
      ReplicateSync(request, partition, plan);
      done(std::move(resp));
      RecordDataOpLatency(op, start);
    });
  };
  if (token != 0) {
    // Ack parks on the store's flusher; no thread blocks for the group
    // commit. Concurrent writers join the same commit window.
    store->NotifyDurable(token, std::move(fin));
  } else {
    fin(Status::Ok());
  }
}

// ---------------------------------------------------------------------------
// BATCH: scatter per-shard groups, gather with completion counting
// ---------------------------------------------------------------------------

void ZhtServer::StartBatch(Request&& request, ResponseCallback done) {
  const Nanos start = SystemClock::Instance().Now();
  Response carrier;
  carrier.seq = request.seq;
  auto batch = BatchRequest::Decode(request.value);
  if (!batch.ok()) {
    carrier.status = batch.status().raw();
    done(std::move(carrier));
    return;
  }
  batch_size_hist_->Record(static_cast<std::int64_t>(batch->ops.size()));

  auto gather = std::make_shared<BatchGather>();
  gather->seq = request.seq;
  gather->epoch = epoch_.load(kRelaxed);
  gather->start = start;
  gather->ops = std::move(batch->ops);
  const std::size_t n = gather->ops.size();
  gather->responses.resize(n);
  gather->replicate.assign(n, 0);
  gather->partitions.assign(n, 0);
  gather->plans.resize(n);
  gather->done = std::move(done);

  // Scatter: group sub-op indices by owning shard; each group lands in its
  // shard's mailbox and fills disjoint response slots.
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Request& op = gather->ops[i];
    if (IsDataOp(op.op)) {
      const PartitionId partition = space_.PartitionOfKey(op.key);
      gather->partitions[i] = partition;
      groups[partition % shards_.size()].push_back(i);
    } else {
      // Batches carry data operations only; nested batches and control
      // messages are rejected per sub-op, not per batch.
      Response sub;
      sub.seq = op.seq;
      sub.status = Status(StatusCode::kInvalidArgument).raw();
      gather->responses[i] = std::move(sub);
    }
  }
  std::size_t active_groups = 0;
  for (const auto& indices : groups) {
    if (!indices.empty()) ++active_groups;
  }
  if (active_groups == 0) {
    gather->remaining.store(1, kRelaxed);
    CompleteBatchGroup(gather);
    return;
  }
  gather->remaining.store(active_groups, kRelaxed);
  const bool server_batch = request.server_origin;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    Shard& shard = *shards_[s];
    if (!server_batch) {
      // Admission control applies per shard group: an overloaded shard
      // sheds its slice of the batch while the others proceed.
      const std::uint32_t hint = AdmissionRetryHint(shard);
      if (hint != 0) {
        for (std::size_t i : groups[s]) {
          Response sub;
          sub.seq = gather->ops[i].seq;
          sub.epoch = gather->epoch;
          sub.status =
              Status(StatusCode::kUnavailable, "shard over admission budget")
                  .raw();
          sub.retry_after_us = hint;
          gather->responses[i] = std::move(sub);
        }
        stats_.sheds.fetch_add(groups[s].size(), kRelaxed);
        shed_counter_->Increment(groups[s].size());
        CompleteBatchGroup(gather);
        continue;
      }
    }
    std::size_t charge = 0;
    for (std::size_t i : groups[s]) {
      charge += gather->ops[i].key.size() + gather->ops[i].value.size();
    }
    shard.inflight_bytes.fetch_add(charge, kRelaxed);
    Post(shard, [this, gather, indices = std::move(groups[s]),
                 charge](Shard& sh) mutable {
      sh.inflight_bytes.fetch_sub(charge, kRelaxed);
      ExecBatchGroup(sh, gather, std::move(indices));
    });
  }
}

void ZhtServer::ExecBatchGroup(Shard& shard,
                               const std::shared_ptr<BatchGather>& gather,
                               std::vector<std::size_t> indices) {
  // Stores holding this group's acked mutations (duplicates included: their
  // original may not be durable yet), one entry per partition; durability
  // tokens are read after every sub-op applied.
  struct TouchedStore {
    std::shared_ptr<KVStore> store;
    std::uint64_t token = 0;
    PartitionId partition = 0;
  };
  std::vector<TouchedStore> touched;
  std::unordered_set<PartitionId> seen;
  auto touch = [&](const PartitionRecord& record, PartitionId partition) {
    if (record.store && seen.insert(partition).second) {
      touched.push_back({record.store, 0, partition});
    }
  };
  for (std::size_t i : indices) {
    const Request& op = gather->ops[i];
    DataRoute route = RouteDataOp(shard, op, &gather->delta_sent);
    gather->partitions[i] = route.partition;
    if (route.redirect) {
      gather->responses[i] = std::move(*route.redirect);
      continue;
    }
    Response sub;
    sub.seq = op.seq;
    sub.epoch = route.epoch;
    PartitionRecord& record = shard.partitions[route.partition];
    if (record.state != PartitionState::kServing) {
      sub.status = Status(StatusCode::kMigrating).raw();
      gather->responses[i] = std::move(sub);
      continue;
    }
    if (op.op == OpCode::kAppend && IsDuplicateAppend(shard, op)) {
      stats_.duplicate_appends_dropped.fetch_add(1, kRelaxed);
      sub.status = Status::Ok().raw();
      gather->responses[i] = std::move(sub);
      touch(record, route.partition);
      continue;
    }
    if (op.op == OpCode::kLookup && !op.server_origin &&
        CacheLookup(shard, op.key, &sub.value)) {
      // Batch sub-ops reach the shard drain before probing (the scatter
      // loop cannot know each sub-op's shard cheaply), but a hit still
      // skips the store lookup and the replica-chain resolution.
      stats_.ops.fetch_add(1, kRelaxed);
      sub.status = Status::Ok().raw();
      gather->responses[i] = std::move(sub);
      continue;
    }
    std::string lookup_value;
    Status status = ApplyToStore(record, route.partition, op.op, op.key,
                                 op.value, &lookup_value);
    stats_.ops.fetch_add(1, kRelaxed);
    if (op.op == OpCode::kLookup) {
      if (status.ok()) CacheFill(shard, route.partition, op.key, lookup_value);
    } else {
      CacheInvalidate(shard, op.key);
      if (status.ok()) touch(record, route.partition);
    }
    if (status.ok() && op.op != OpCode::kLookup &&
        options_.cluster.num_replicas > 0 && !op.server_origin &&
        route.chain.size() > 1) {
      // Same rotation rule as ExecDataOp: a failover write accepted at a
      // secondary fans out to every other chain member, never acks one
      // copy, and its legs all go synchronously.
      std::vector<InstanceId> replication_chain;
      bool failover_accept = false;
      if (op.replica_index == 0) {
        replication_chain = route.chain;
      } else {
        auto self_it =
            std::find(route.chain.begin(), route.chain.end(), options_.self);
        if (self_it != route.chain.end()) {
          replication_chain.push_back(options_.self);
          replication_chain.insert(replication_chain.end(),
                                   std::next(self_it), route.chain.end());
          replication_chain.insert(replication_chain.end(),
                                   route.chain.begin(), self_it);
          failover_accept = true;
        }
      }
      if (replication_chain.size() > 1) {
        gather->replicate[i] = 1;
        gather->plans[i] = MakeReplicaPlan(shard, replication_chain);
        gather->plans[i].all_sync = failover_accept;
        ApplyRebuildDiversions(record, &gather->plans[i]);
      }
    }
    sub.status = status.raw();
    sub.value = std::move(lookup_value);
    gather->responses[i] = std::move(sub);
  }

  // Durable ack, once per touched store: tokens are captured after every
  // sub-op applied (monotone, so the latest covers them all), and one
  // NotifyDurable per store parks on its flusher. The last callback fixes
  // any failed partitions' sub-ops and reports the group done.
  std::erase_if(touched, [](TouchedStore& t) {
    t.token = t.store->last_commit_token();
    return t.token == 0;
  });
  if (touched.empty()) {
    CompleteBatchGroup(gather);
    return;
  }

  struct GroupDurable {
    std::vector<std::size_t> indices;
    std::vector<std::pair<PartitionId, Status>> results;
    std::atomic<std::size_t> pending{0};
  };
  auto group = std::make_shared<GroupDurable>();
  group->indices = std::move(indices);
  group->results.resize(touched.size());
  group->pending.store(touched.size(), kRelaxed);
  for (std::size_t j = 0; j < touched.size(); ++j) {
    const PartitionId partition = touched[j].partition;
    touched[j].store->NotifyDurable(
        touched[j].token, [this, gather, group, j, partition](Status status) {
          group->results[j] = {partition, status};
          if (group->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return;
          }
          std::unordered_set<PartitionId> failed;
          for (const auto& [p, st] : group->results) {
            if (!st.ok()) failed.insert(p);
          }
          if (!failed.empty()) {
            // Sub-ops on a store that failed to sync were never durable:
            // fail them and drop their replication legs.
            for (std::size_t i : group->indices) {
              if (gather->ops[i].op == OpCode::kLookup) continue;
              if (!failed.count(gather->partitions[i])) continue;
              if (!gather->responses[i].ok()) continue;
              gather->responses[i].status =
                  Status(StatusCode::kInternal).raw();
              gather->replicate[i] = 0;
            }
          }
          CompleteBatchGroup(gather);
        });
  }
}

void ZhtServer::CompleteBatchGroup(
    const std::shared_ptr<BatchGather>& gather) {
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinalizeBatch(gather);
  }
}

void ZhtServer::FinalizeBatch(const std::shared_ptr<BatchGather>& gather) {
  BatchResponse out;
  out.responses = std::move(gather->responses);
  std::vector<Request> rep_ops;
  std::vector<PartitionId> rep_parts;
  std::vector<ReplicaPlan> rep_plans;
  for (std::size_t i = 0; i < gather->ops.size(); ++i) {
    if (!gather->replicate[i] || !out.responses[i].ok()) continue;
    rep_ops.push_back(std::move(gather->ops[i]));
    rep_parts.push_back(gather->partitions[i]);
    rep_plans.push_back(std::move(gather->plans[i]));
  }
  Response packed = PackBatchResponse(out, gather->seq, gather->epoch);
  if (rep_ops.empty()) {
    batch_hist_->Record(SystemClock::Instance().Now() - gather->start);
    gather->done(std::move(packed));
    return;
  }
  // Replication is peer I/O: a finisher runs it, then completes the
  // carrier — the client's wait covers the synchronous secondary leg.
  EnqueueFinisher(
      [this, packed = std::move(packed), rep_ops = std::move(rep_ops),
       rep_parts = std::move(rep_parts), rep_plans = std::move(rep_plans),
       start = gather->start, done = std::move(gather->done)]() mutable {
        ReplicateBatchResolved(std::move(rep_ops), rep_parts, rep_plans);
        batch_hist_->Record(SystemClock::Instance().Now() - start);
        done(std::move(packed));
      });
}

// ---------------------------------------------------------------------------
// Membership: shard 0 is the epoch authority; pushes fan out to every shard
// ---------------------------------------------------------------------------

void ZhtServer::StartMembershipPush(Request&& request, ResponseCallback done) {
  auto payload = std::make_shared<std::string>(std::move(request.value));
  const std::uint64_t seq = request.seq;
  Post(*shards_.front(), [this, payload, seq,
                          done = std::move(done)](Shard& s0) mutable {
    Status status = s0.table.ApplyUpdate(*payload);
    ReconcileWithTable(s0);
    // Ownership may have moved with the epoch: a cached entry must never
    // outlive this instance's claim on its partition, and membership
    // changes are rare enough that a full clear is the simplest proof.
    CacheClear(s0);
    const std::uint32_t epoch = s0.table.epoch();
    epoch_.store(epoch, kRelaxed);
    if (shards_.size() == 1) {
      Response resp;
      resp.seq = seq;
      resp.status = status.raw();
      resp.epoch = epoch;
      done(std::move(resp));
      return;
    }
    // Scatter the payload to every other shard; the ack waits for all of
    // them so a subsequent request routed anywhere sees the new table —
    // the same fence the old exclusive table lock provided.
    auto gather = std::make_shared<PushGather>();
    gather->seq = seq;
    gather->epoch = epoch;
    gather->status = status;
    gather->remaining.store(shards_.size() - 1, kRelaxed);
    gather->done = std::move(done);
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      Post(*shards_[s], [this, payload, gather](Shard& sh) {
        sh.table.ApplyUpdate(*payload);
        ReconcileWithTable(sh);
        CacheClear(sh);
        if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          Response resp;
          resp.seq = gather->seq;
          resp.status = gather->status.raw();
          resp.epoch = gather->epoch;
          gather->done(std::move(resp));
        }
      });
    }
  });
}

// ---------------------------------------------------------------------------
// Partition transfer (§III.C migration and the recovery model's rebuild;
// DESIGN.md §7). One protocol moves a partition: the source snapshots and
// digests it in-shard, the ordered async queue carries Begin/Data*/End,
// and the destination lands the stream in a shadow store that replaces its
// canonical copy only once the End digest verifies. A rebuild streams to
// the stale members of the owner's chain while the owner keeps serving —
// sync legs to those members divert behind the stream's End, so the FIFO
// queue doubles as the catch-up replay. A migration streams to the new
// owner while the partition is kSending, then hands it off.
// ---------------------------------------------------------------------------

PartitionDigest ZhtServer::DigestOfStore(const KVStore* store) {
  PartitionDigest digest;
  if (!store) return digest;
  store->ForEach([&digest](std::string_view key, std::string_view value) {
    digest.Add(key, value);
  });
  return digest;
}

void ZhtServer::ExecDigest(Shard& shard, Request&& request,
                           ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  auto it = shard.partitions.find(request.partition);
  // A partition we do not hold digests as {0, 0} — indistinguishable from
  // empty, which is exactly right: both need the full stream.
  resp.value =
      DigestOfStore(it != shard.partitions.end() ? it->second.store.get()
                                                 : nullptr)
          .Encode();
  done(std::move(resp));
}

void ZhtServer::ExecTransferBegin(Shard& shard, Request&& request,
                                  ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  const PartitionId partition = request.partition;
  if (!Transition(shard, partition, PartitionState::kReceiving)) {
    resp.status =
        Status(StatusCode::kMigrating, "partition in outbound transfer").raw();
    done(std::move(resp));
    return;
  }
  // The stream lands in a shadow store (created by the first Data carrier,
  // so an empty partition costs none) and only replaces the canonical
  // store after the End digest verifies — a source dying mid-stream (or a
  // torn stream) can never cost this instance its existing copy, which may
  // be the cluster's last. Clear, don't re-create: a persistent store
  // opened twice at one path would race its older self over the log file.
  const std::shared_ptr<KVStore>& shadow = shard.partitions[partition].shadow;
  if (shadow) resp.status = shadow->Clear().raw();
  done(std::move(resp));
}

void ZhtServer::ExecTransferData(Shard& shard, Request&& request,
                                 ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  PartitionRecord& record = shard.partitions[request.partition];
  if (record.state != PartitionState::kReceiving) {
    // Begin never arrived or was refused, or a restart wiped the mark:
    // refuse so the source's End verification fails and it re-streams.
    resp.status =
        Status(StatusCode::kInvalidArgument, "no transfer in progress").raw();
    done(std::move(resp));
    return;
  }
  auto pairs = UnpackPairs(request.value);
  if (!pairs.ok()) {
    resp.status = pairs.status().raw();
    done(std::move(resp));
    return;
  }
  if (!ShadowOf(record, request.partition)) {
    resp.status = Status(StatusCode::kInternal, "store factory failed").raw();
    done(std::move(resp));
    return;
  }
  std::shared_ptr<KVStore> shadow = record.shadow;
  for (const auto& [key, value] : *pairs) {
    Status put = shadow->Put(key, value);
    if (!put.ok()) {
      resp.status = put.raw();
      done(std::move(resp));
      return;
    }
  }
  // Ack the carrier only once its pairs are durable: the source treats the
  // ack as "safely received". The capture pins the shadow object.
  const std::uint64_t token = shadow->last_commit_token();
  if (token == 0) {
    done(std::move(resp));
    return;
  }
  KVStore* raw = shadow.get();
  raw->NotifyDurable(
      token, [shadow = std::move(shadow), resp = std::move(resp),
              done = std::move(done)](Status durable) mutable {
        if (!durable.ok()) resp.status = durable.raw();
        done(std::move(resp));
      });
}

void ZhtServer::ExecTransferEnd(Shard& shard, Request&& request,
                                ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  auto expected = PartitionDigest::Decode(request.value);
  if (!expected.ok()) {
    resp.status = expected.status().raw();
    done(std::move(resp));
    return;
  }
  const PartitionId partition = request.partition;
  PartitionRecord& record = shard.partitions[partition];
  if (record.state != PartitionState::kReceiving) {
    // The stream was broken (we restarted, Begin was dropped or refused,
    // or a membership change promoted us mid-stream): report corruption so
    // the source re-streams from scratch.
    resp.status =
        Status(StatusCode::kCorruption, "transfer stream broken").raw();
    done(std::move(resp));
    return;
  }
  Transition(shard, partition, PartitionState::kServing);
  const PartitionDigest mine = DigestOfStore(record.shadow.get());
  resp.value = mine.Encode();
  if (!(mine == *expected)) {
    // Canonical store untouched; the shadow is cleared at the next Begin.
    resp.status =
        Status(StatusCode::kCorruption, "transfer digest mismatch").raw();
    done(std::move(resp));
    return;
  }
  // Verified: replace the canonical copy with the shadow's contents. Both
  // stores are shard-local, so the swap cannot be interrupted by a peer
  // failure — it either happens entirely or the End errors out.
  KVStore* canonical = StoreOf(record, partition);
  Status swap = canonical
                    ? canonical->Clear()
                    : Status(StatusCode::kInternal, "store factory failed");
  if (swap.ok() && record.shadow) {
    record.shadow->ForEach([&](std::string_view key, std::string_view value) {
      if (swap.ok()) swap = canonical->Put(key, value);
    });
    if (swap.ok()) swap = record.shadow->Clear();  // truncate the landing pad
  }
  if (!swap.ok()) {
    resp.status = swap.raw();
    done(std::move(resp));
    return;
  }
  // replica_index 0 marks a migration: this instance becomes the primary.
  if (request.replica_index == 0) stats_.migrations_in.fetch_add(1, kRelaxed);
  // Ack End only once the swapped-in pairs are durable in the canonical
  // log — the source counts the transfer done on that ack.
  const std::uint64_t token = canonical->last_commit_token();
  if (token == 0) {
    done(std::move(resp));
    return;
  }
  canonical->NotifyDurable(
      token, [pinned = record.store, resp = std::move(resp),
              done = std::move(done)](Status durable) mutable {
        if (!durable.ok()) resp.status = durable.raw();
        done(std::move(resp));
      });
}

void ZhtServer::StartRebuild(PartitionId partition,
                             std::function<void(Status)> done) {
  Post(ShardForPartition(partition),
       [this, partition, done = std::move(done)](Shard& sh) mutable {
         PartitionRecord& record = sh.partitions[partition];
         if (record.rebuild) {
           done(Status(StatusCode::kMigrating, "rebuild already in flight"));
           return;
         }
         const std::vector<InstanceId> chain = sh.table.ReplicaChain(
             partition, options_.cluster.num_replicas);
         if (chain.empty() || chain[0] != options_.self) {
           done(Status(StatusCode::kRedirect, "not the partition owner"));
           return;
         }
         if (record.state == PartitionState::kHandedOff) {
           // The store is erased; streaming it would wipe the chain.
           done(Status(StatusCode::kMigrating, "partition handed off"));
           return;
         }
         std::vector<TransferTarget> targets;
         for (std::size_t i = 1; i < chain.size(); ++i) {
           if (chain[i] == options_.self) continue;
           TransferTarget target;
           target.id = chain[i];
           target.address = chain[i] < sh.table.instance_count()
                                ? sh.table.Instance(chain[i]).address
                                : NodeAddress{};
           target.replica_index = static_cast<std::uint8_t>(i);
           targets.push_back(std::move(target));
         }
         if (targets.empty()) {
           done(Status::Ok());
           return;
         }
         const PartitionDigest mine = DigestOfStore(record.store.get());
         TransferOut& out = record.rebuild.emplace();
         out.targets = targets;
         out.done = std::move(done);
         // Probe from a finisher (peer I/O); the stale subset posts back
         // into this shard to start the streams.
         EnqueueFinisher([this, partition, mine,
                          targets = std::move(targets)]() mutable {
           ProbeRebuildTargets(partition, mine, std::move(targets));
         });
       });
}

void ZhtServer::ProbeRebuildTargets(PartitionId partition, PartitionDigest mine,
                                    std::vector<TransferTarget> targets) {
  std::vector<InstanceId> stale;
  for (const TransferTarget& target : targets) {
    stats_.antientropy_probes.fetch_add(1, kRelaxed);
    bool matched = false;
    if (!target.address.host.empty() || target.address.port != 0) {
      Request probe;
      probe.op = OpCode::kDigest;
      probe.partition = partition;
      probe.server_origin = true;
      auto result = peer_transport_->Call(target.address, probe,
                                          options_.cluster.peer_timeout);
      if (result.ok() && result->ok()) {
        auto theirs = PartitionDigest::Decode(result->value);
        matched = theirs.ok() && *theirs == mine;
      }
    }
    // An unreachable or undecodable member counts as stale: the stream
    // will either repair it or fail its End check and be abandoned.
    if (matched) {
      stats_.antientropy_clean.fetch_add(1, kRelaxed);
    } else {
      stale.push_back(target.id);
    }
  }
  Post(ShardForPartition(partition),
       [this, partition, stale = std::move(stale)](Shard& sh) mutable {
         BeginRebuildStreams(sh, partition, std::move(stale));
       });
}

void ZhtServer::BeginRebuildStreams(Shard& shard, PartitionId partition,
                                    std::vector<InstanceId> stale) {
  std::optional<TransferOut>& out = shard.partitions[partition].rebuild;
  if (!out) return;
  // Keep only the stale members; while a member stays listed here, sync
  // replication legs to it divert behind the stream (ApplyRebuildDiversions).
  std::erase_if(out->targets, [&stale](const TransferTarget& t) {
    return std::find(stale.begin(), stale.end(), t.id) == stale.end();
  });
  if (out->targets.empty()) {
    auto done = std::move(out->done);
    Status aggregate = std::move(out->aggregate);
    out.reset();
    if (done) done(std::move(aggregate));
    return;
  }
  for (TransferTarget& target : out->targets) {
    StreamTransfer(shard, partition, target, /*migration=*/false);
  }
}

void ZhtServer::StreamTransfer(Shard& shard, PartitionId partition,
                               TransferTarget& target, bool migration) {
  ++target.attempts;
  if (!migration) {
    (target.attempts == 1 ? stats_.rebuilds_started : stats_.rebuild_retries)
        .fetch_add(1, kRelaxed);
  }
  auto message = [&](OpCode op) {
    Request request;
    request.op = op;
    request.partition = partition;
    request.replica_index = target.replica_index;
    request.server_origin = true;
    return request;
  };
  // Snapshot and digest in-shard, then enqueue the whole Begin/Data*/End
  // conversation into the async queue back to back. For a rebuild, every
  // write applied after this shard task enqueues its (diverted) leg after
  // our End — the per-destination FIFO ordering IS the catch-up replay —
  // and writes applied before it are in the snapshot. A migrating
  // partition is kSending, so nothing is applied after it.
  std::vector<Request> stream = {message(OpCode::kTransferBegin)};
  PartitionDigest digest;
  std::uint64_t bytes = 0;
  std::vector<std::pair<std::string, std::string>> batch;
  std::size_t batch_bytes = 0;
  auto flush = [&]() {
    if (batch.empty()) return;
    stream.push_back(message(OpCode::kTransferData));
    stream.back().value = PackPairs(batch);
    batch.clear();
    batch_bytes = 0;
  };
  if (const KVStore* store = shard.partitions[partition].store.get()) {
    store->ForEach([&](std::string_view k, std::string_view v) {
      digest.Add(k, v);
      bytes += k.size() + v.size();
      batch_bytes += k.size() + v.size() + 16;
      batch.emplace_back(std::string(k), std::string(v));
      if (batch_bytes >= options_.migrate_batch_bytes) flush();
    });
  }
  flush();
  target.pairs = digest.count;
  target.bytes = bytes;
  if (!migration) {
    stats_.rebuild_pairs_streamed.fetch_add(digest.count, kRelaxed);
  }
  for (Request& leg : stream) {
    EnqueueAsyncReplication(std::move(leg), target.address);
  }

  Request end = message(OpCode::kTransferEnd);
  end.value = digest.Encode();
  const InstanceId id = target.id;
  EnqueueAsyncLeg(
      std::move(end), target.address,
      [this, partition, migration, id](const Result<Response>& result) {
        Status status =
            !result.ok() ? result.status() : result->status_as_object();
        Post(ShardForPartition(partition),
             [this, partition, migration, id,
              status = std::move(status)](Shard& sh) mutable {
               FinishTransferLeg(sh, partition, migration, id,
                                 std::move(status));
             });
      });
}

void ZhtServer::FinishTransferLeg(Shard& shard, PartitionId partition,
                                  bool migration, InstanceId id,
                                  Status status) {
  PartitionRecord& record = shard.partitions[partition];
  std::optional<TransferOut>& out =
      migration ? record.migration : record.rebuild;
  if (!out) return;
  auto target_it =
      std::find_if(out->targets.begin(), out->targets.end(),
                   [id](const TransferTarget& t) { return t.id == id; });
  if (target_it == out->targets.end()) return;
  if (!status.ok() && target_it->attempts < kTransferMaxAttempts &&
      record.state != PartitionState::kHandedOff) {
    // Any End failure — transport, broken stream, digest mismatch — gets
    // a full re-stream from a fresh snapshot, up to the attempt budget
    // (never from a handed-off partition: its store is gone).
    StreamTransfer(shard, partition, *target_it, migration);
    return;
  }
  if (migration) {
    FinishMigrateOut(shard, partition, std::move(status));
    return;
  }
  if (status.ok()) {
    stats_.rebuilds_completed.fetch_add(1, kRelaxed);
  } else {
    ZHT_WARN << "rebuild of partition " << partition << " to instance " << id
             << " abandoned: " << status.ToString();
    if (out->aggregate.ok()) out->aggregate = status;
  }
  out->targets.erase(target_it);
  if (out->targets.empty()) {
    auto done = std::move(out->done);
    Status aggregate = std::move(out->aggregate);
    out.reset();
    if (done) done(std::move(aggregate));
  }
}

void ZhtServer::ApplyRebuildDiversions(const PartitionRecord& record,
                                       ReplicaPlan* plan) const {
  if (!record.rebuild || record.rebuild->targets.empty()) return;
  plan->via_async.assign(plan->chain.size(), 0);
  for (std::size_t i = 0; i < plan->chain.size(); ++i) {
    for (const TransferTarget& target : record.rebuild->targets) {
      if (target.id == plan->chain[i]) plan->via_async[i] = 1;
    }
  }
}

void ZhtServer::StartMigrateOut(PartitionId partition,
                                const NodeAddress& target,
                                std::function<void(Status)> done) {
  Post(ShardForPartition(partition),
       [this, partition, target, done = std::move(done)](Shard& sh) mutable {
         // Freeze and snapshot in one shard task: no write can land between
         // the transition and the snapshot, so the stream is exact. Writers
         // arriving after see kMigrating and retry (§III.C "Data
         // Migration").
         if (!Transition(sh, partition, PartitionState::kSending)) {
           done(Status(StatusCode::kMigrating, "partition in transfer"));
           return;
         }
         TransferOut& out = sh.partitions[partition].migration.emplace();
         out.done = std::move(done);
         // replica_index 0: the destination becomes the primary.
         TransferTarget& to = out.targets.emplace_back();
         to.address = target;
         StreamTransfer(sh, partition, to, /*migration=*/true);
       });
}

void ZhtServer::FinishMigrateOut(Shard& shard, PartitionId partition,
                                 Status status) {
  PartitionRecord& record = shard.partitions[partition];
  TransferOut out = std::move(*record.migration);
  record.migration.reset();
  if (!status.ok()) {
    // Abandoned: the partition stays put and this instance keeps serving.
    Transition(shard, partition, PartitionState::kServing);
  } else {
    const TransferTarget& target = out.targets.front();
    stats_.migrations_out.fetch_add(1, kRelaxed);
    stats_.migration_pairs_streamed.fetch_add(target.pairs, kRelaxed);
    stats_.migration_bytes_streamed.fetch_add(target.bytes, kRelaxed);
    record.store.reset();
    record.had_data = target.pairs > 0;
    Transition(shard, partition, PartitionState::kHandedOff);
    // Until the table names the new owner the partition keeps answering
    // kMigrating: serving in that window would read the erased store
    // (NotFound) and ack writes the new owner never sees.
    if (OwnedElsewhere(shard.table, partition, options_.self)) {
      Transition(shard, partition, PartitionState::kServing);
    }
  }
  out.done(std::move(status));
}

Status ZhtServer::MigratePartitionTo(PartitionId partition,
                                     const NodeAddress& target) {
  return AwaitCompletion<Status>([&](std::function<void(Status)> done) {
    StartMigrateOut(partition, target, std::move(done));
  });
}

Status ZhtServer::RepairPartition(PartitionId partition) {
  return AwaitCompletion<Status>([&](std::function<void(Status)> done) {
    StartRebuild(partition, std::move(done));
  });
}

PartitionDigest ZhtServer::PartitionDigestOf(PartitionId partition) {
  return AwaitCompletion<PartitionDigest>(
      [&](std::function<void(PartitionDigest)> done) {
        Post(ShardForPartition(partition), [partition, done](Shard& sh) {
          auto it = sh.partitions.find(partition);
          done(DigestOfStore(it != sh.partitions.end() ? it->second.store.get()
                                                       : nullptr));
        });
      });
}

std::vector<std::pair<std::string, std::string>> ZhtServer::PartitionPairs(
    PartitionId partition) {
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  Pairs pairs = AwaitCompletion<Pairs>([&](std::function<void(Pairs)> done) {
    Post(ShardForPartition(partition), [partition, done](Shard& sh) {
      Pairs out;
      auto it = sh.partitions.find(partition);
      if (it != sh.partitions.end() && it->second.store) {
        it->second.store->ForEach(
            [&out](std::string_view k, std::string_view v) {
              out.emplace_back(std::string(k), std::string(v));
            });
      }
      done(std::move(out));
    });
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void ZhtServer::ExecBroadcast(Shard& shard, Request&& request,
                              ResponseCallback done) {
  const PartitionId partition = shard.table.PartitionOfKey(request.key);
  const std::size_t count = shard.table.instance_count();
  const std::size_t self_index = options_.self;

  PartitionRecord& record = shard.partitions[partition];
  KVStore* store = StoreOf(record, partition);
  Status put = store ? store->Put(request.key, request.value)
                     : Status(StatusCode::kInternal, "store factory failed");
  stats_.broadcasts.fetch_add(1, kRelaxed);

  // Binary spanning tree over instance ids (§VI "Broadcast primitive"):
  // node i forwards to 2i+1 and 2i+2. Children's addresses resolve here,
  // in-shard.
  std::vector<NodeAddress> children;
  for (std::size_t child : {2 * self_index + 1, 2 * self_index + 2}) {
    if (child >= count) continue;
    if (child < shard.table.instance_count()) {
      children.push_back(
          shard.table.Instance(static_cast<InstanceId>(child)).address);
    }
  }

  std::shared_ptr<KVStore> pinned;
  std::uint64_t token = 0;
  if (put.ok() && record.store) {
    pinned = record.store;
    token = pinned->last_commit_token();
  }
  auto fin = [this, seq = request.seq, forward = std::move(request),
              children = std::move(children), put,
              done = std::move(done)](Status durable) mutable {
    Response resp;
    resp.seq = seq;
    resp.status = (put.ok() ? durable : put).raw();
    for (const NodeAddress& child : children) {
      Request hop = forward;
      hop.server_origin = true;
      EnqueueAsyncReplication(std::move(hop), child);
    }
    done(std::move(resp));
  };
  if (token != 0) {
    pinned->NotifyDurable(token, std::move(fin));
  } else {
    fin(Status::Ok());
  }
}

// ---------------------------------------------------------------------------
// Replication (finisher/async-worker threads; addresses pre-resolved)
// ---------------------------------------------------------------------------

void ZhtServer::ReplicateSync(const Request& original, PartitionId partition,
                              const ReplicaPlan& plan) {
  Request forward = original;
  forward.server_origin = true;
  forward.partition = partition;

  // Fan-out of this mutation: every chain member beyond the primary.
  replication_fanout_hist_->Record(
      static_cast<std::int64_t>(plan.chain.size()) - 1);

  // Leg i is synchronous when it is the secondary (with sync_secondary) or
  // the plan demands every leg synchronous (failover accepts). A member
  // mid-rebuild diverts to the async queue regardless, so the leg lands
  // after the stream's End (the queue is FIFO per destination — the
  // catch-up replay ordering).
  const std::size_t sync_end =
      plan.all_sync ? plan.chain.size()
                    : (options_.sync_secondary ? std::size_t{2}
                                               : std::size_t{1});
  for (std::size_t i = 1; i < plan.chain.size(); ++i) {
    Request leg = forward;
    leg.replica_index = static_cast<std::uint8_t>(i);
    const bool diverted = plan.via_async.size() > i && plan.via_async[i];
    if (i < sync_end && !diverted) {
      stats_.replications_sync.fetch_add(1, kRelaxed);
      replication_sync_counter_->Increment();
      auto result = peer_transport_->Call(plan.addresses[i], leg,
                                          options_.cluster.peer_timeout);
      if (!result.ok()) {
        ZHT_WARN << "sync replication to " << plan.addresses[i].ToString()
                 << " failed: " << result.status().ToString();
      }
    } else {
      EnqueueAsyncReplication(std::move(leg), plan.addresses[i]);
      replication_async_counter_->Increment();
      stats_.replications_async.fetch_add(1, kRelaxed);
    }
  }
}

void ZhtServer::ReplicateBatchResolved(
    std::vector<Request> ops, const std::vector<PartitionId>& partitions,
    const std::vector<ReplicaPlan>& plans) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].server_origin = true;
    ops[i].partition = partitions[i];
  }
  for (const ReplicaPlan& plan : plans) {
    replication_fanout_hist_->Record(
        static_cast<std::int64_t>(plan.chain.size()) - 1);
  }

  // Synchronous legs: the secondary of each plan (or every member of an
  // all_sync plan), grouped by target and pushed as one pipelined BATCH
  // call before acknowledging the client. A member mid-rebuild diverts
  // behind its stream instead.
  auto plan_sync_end = [this](const ReplicaPlan& plan) {
    if (plan.all_sync) return plan.chain.size();
    return options_.sync_secondary ? std::size_t{2} : std::size_t{1};
  };
  if (options_.sync_secondary) {
    std::unordered_map<InstanceId,
                       std::pair<NodeAddress, std::vector<Request>>>
        groups;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const ReplicaPlan& plan = plans[i];
      const std::size_t sync_end =
          std::min(plan_sync_end(plan), plan.chain.size());
      for (std::size_t r = 1; r < sync_end; ++r) {
        Request forward = ops[i];
        forward.replica_index = static_cast<std::uint8_t>(r);
        if (plan.via_async.size() > r && plan.via_async[r]) {
          // Member mid-rebuild: divert the leg behind the stream.
          replication_async_counter_->Increment();
          stats_.replications_async.fetch_add(1, kRelaxed);
          EnqueueAsyncReplication(std::move(forward), plan.addresses[r]);
          continue;
        }
        auto& group = groups[plan.chain[r]];
        group.first = plan.addresses[r];
        group.second.push_back(std::move(forward));
      }
    }
    for (auto& [target_id, group] : groups) {
      stats_.replications_sync.fetch_add(group.second.size(), kRelaxed);
      replication_sync_counter_->Increment(group.second.size());
      auto result = peer_transport_->CallBatch(group.first, group.second,
                                               options_.cluster.peer_timeout);
      if (!result.ok()) {
        ZHT_WARN << "sync batch replication to " << group.first.ToString()
                 << " failed: " << result.status().ToString();
      }
    }
  }

  // Asynchronous legs: one queued BATCH carrier per (replica slot, target)
  // group, so further replicas also receive the batch as a unit.
  std::unordered_map<InstanceId, std::pair<NodeAddress, std::vector<Request>>>
      async_groups;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t first_async =
        options_.sync_secondary ? plan_sync_end(plans[i]) : std::size_t{1};
    for (std::size_t r = first_async; r < plans[i].chain.size(); ++r) {
      Request forward = ops[i];
      forward.replica_index = static_cast<std::uint8_t>(r);
      auto& group = async_groups[plans[i].chain[r]];
      group.first = plans[i].addresses[r];
      group.second.push_back(std::move(forward));
    }
  }
  for (auto& [target_id, group] : async_groups) {
    Request packed = PackBatchRequest(group.second, group.second.front().seq,
                                      /*server_origin=*/true);
    replication_async_counter_->Increment(group.second.size());
    stats_.replications_async.fetch_add(group.second.size(), kRelaxed);
    EnqueueAsyncReplication(std::move(packed), group.first);
  }
}

void ZhtServer::EnqueueAsyncReplication(Request request,
                                        const NodeAddress& target) {
  EnqueueAsyncLeg(std::move(request), target, nullptr);
}

void ZhtServer::EnqueueAsyncLeg(
    Request request, const NodeAddress& target,
    std::function<void(const Result<Response>&)> on_result) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    async_queue_.push_back(
        AsyncLeg{std::move(request), target, std::move(on_result)});
  }
  queue_cv_.notify_one();
}

void ZhtServer::AsyncReplicationLoop() {
  for (;;) {
    AsyncLeg item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return async_stop_ || !async_queue_.empty(); });
      if (async_queue_.empty()) return;  // async_stop_ && drained
      item = std::move(async_queue_.front());
      async_queue_.pop_front();
      ++async_inflight_;
    }
    if (!item.target.host.empty() || item.target.port != 0) {
      auto result = peer_transport_->Call(item.target, item.request,
                                          options_.cluster.peer_timeout);
      if (!result.ok()) {
        ZHT_DEBUG << "async replication to " << item.target.ToString()
                  << " failed: " << result.status().ToString();
      }
      if (item.on_result) item.on_result(result);
    } else if (item.on_result) {
      item.on_result(
          Result<Response>(Status(StatusCode::kUnavailable, "no address")));
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --async_inflight_;
    }
    queue_cv_.notify_all();
  }
}

void ZhtServer::FlushAsyncReplication() {
  // Quiesce both pools that carry background peer I/O: the async replication
  // queue AND the finisher pool (rebuild digest probes and checkpoint streams
  // run on finishers, not the async queue). Each pool can enqueue into the
  // other — a probe schedules streams, a stream completion posts follow-up
  // work — so loop until one pass observes both idle.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return async_queue_.empty() && async_inflight_ == 0;
      });
    }
    {
      std::unique_lock<std::mutex> lock(finisher_mu_);
      finisher_idle_cv_.wait(lock, [this] {
        return finisher_queue_.empty() && finisher_busy_ == 0;
      });
    }
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (async_queue_.empty() && async_inflight_ == 0) return;
  }
}

void ZhtServer::EnqueueFinisher(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(finisher_mu_);
    finisher_queue_.push_back(std::move(job));
  }
  finisher_cv_.notify_one();
}

void ZhtServer::FinisherLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(finisher_mu_);
      finisher_cv_.wait(
          lock, [this] { return finishers_stop_ || !finisher_queue_.empty(); });
      if (finisher_queue_.empty()) return;  // finishers_stop_ && drained
      job = std::move(finisher_queue_.front());
      finisher_queue_.pop_front();
      ++finisher_busy_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(finisher_mu_);
      --finisher_busy_;
      if (finisher_queue_.empty() && finisher_busy_ == 0) {
        finisher_idle_cv_.notify_all();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stats / census (scatter over every shard, gather with completion count)
// ---------------------------------------------------------------------------

ZhtServerStats ZhtServer::stats() const {
  ZhtServerStats s;
  s.ops = stats_.ops.load(kRelaxed);
  s.redirects = stats_.redirects.load(kRelaxed);
  s.replications_sync = stats_.replications_sync.load(kRelaxed);
  s.replications_async = stats_.replications_async.load(kRelaxed);
  s.migrations_out = stats_.migrations_out.load(kRelaxed);
  s.migrations_in = stats_.migrations_in.load(kRelaxed);
  s.migration_pairs_streamed = stats_.migration_pairs_streamed.load(kRelaxed);
  s.migration_bytes_streamed = stats_.migration_bytes_streamed.load(kRelaxed);
  s.broadcasts = stats_.broadcasts.load(kRelaxed);
  s.duplicate_appends_dropped = stats_.duplicate_appends_dropped.load(kRelaxed);
  s.antientropy_probes = stats_.antientropy_probes.load(kRelaxed);
  s.antientropy_clean = stats_.antientropy_clean.load(kRelaxed);
  s.rebuilds_started = stats_.rebuilds_started.load(kRelaxed);
  s.rebuilds_completed = stats_.rebuilds_completed.load(kRelaxed);
  s.rebuild_pairs_streamed = stats_.rebuild_pairs_streamed.load(kRelaxed);
  s.rebuild_retries = stats_.rebuild_retries.load(kRelaxed);
  s.hot_cache_hits = stats_.hot_cache_hits.load(kRelaxed);
  s.hot_cache_misses = stats_.hot_cache_misses.load(kRelaxed);
  s.hot_cache_invalidations = stats_.hot_cache_invalidations.load(kRelaxed);
  s.hot_cache_drops = stats_.hot_cache_drops.load(kRelaxed);
  s.sheds = stats_.sheds.load(kRelaxed);
  return s;
}

void ZhtServer::ScatterCensus(
    std::function<void(std::vector<ShardCensus>)> done) const {
  // Posting census tasks mutates only mailbox state; the census itself
  // reads shard-owned stores inside their drains.
  auto* self = const_cast<ZhtServer*>(this);
  struct Gather {
    std::vector<ShardCensus> per;
    std::atomic<std::size_t> remaining{0};
    std::function<void(std::vector<ShardCensus>)> done;
  };
  auto gather = std::make_shared<Gather>();
  gather->per.resize(shards_.size());
  gather->remaining.store(shards_.size(), kRelaxed);
  gather->done = std::move(done);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    self->Post(*shards_[s], [gather, s](Shard& sh) {
      ShardCensus& census = gather->per[s];
      for (const auto& [partition, record] : sh.partitions) {
        const KVStore* store = record.store.get();
        if (!store) continue;
        ++census.held;
        census.entries += store->Size();
        StoreDurabilityMetrics one;
        if (store->durability_metrics(&one)) {
          census.durability.group_commit_batch.Merge(one.group_commit_batch);
          census.durability.fsync_micros.Merge(one.fsync_micros);
          census.durability.fsync_errors += one.fsync_errors;
          census.durability.group_commits += one.group_commits;
          census.any_durability = true;
        }
      }
      if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gather->done(std::move(gather->per));
      }
    });
  }
}

MetricsSnapshot ZhtServer::BuildSnapshot(
    const std::vector<ShardCensus>& census) const {
  // Legacy counters and instance-level gauges first (stable names the
  // tools print as `name = value`), then everything in the registry.
  MetricsSnapshot snapshot;
  std::uint64_t entries = 0;
  std::size_t held = 0;
  StoreDurabilityMetrics durability;
  bool any_durability = false;
  for (const ShardCensus& c : census) {
    entries += c.entries;
    held += c.held;
    if (c.any_durability) {
      durability.group_commit_batch.Merge(c.durability.group_commit_batch);
      durability.fsync_micros.Merge(c.durability.fsync_micros);
      durability.fsync_errors += c.durability.fsync_errors;
      durability.group_commits += c.durability.group_commits;
      any_durability = true;
    }
  }
  snapshot.AddGauge("instance", static_cast<std::int64_t>(options_.self));
  snapshot.AddGauge("epoch", epoch_.load(kRelaxed));
  snapshot.AddGauge("partitions_held", static_cast<std::int64_t>(held));
  snapshot.AddGauge("entries", static_cast<std::int64_t>(entries));
  snapshot.AddCounter("ops", stats_.ops.load(kRelaxed));
  snapshot.AddCounter("redirects", stats_.redirects.load(kRelaxed));
  snapshot.AddCounter("replications_sync",
                      stats_.replications_sync.load(kRelaxed));
  snapshot.AddCounter("replications_async",
                      stats_.replications_async.load(kRelaxed));
  snapshot.AddCounter("migrations_in", stats_.migrations_in.load(kRelaxed));
  snapshot.AddCounter("migrations_out", stats_.migrations_out.load(kRelaxed));
  snapshot.AddCounter("migration_pairs_streamed",
                      stats_.migration_pairs_streamed.load(kRelaxed));
  snapshot.AddCounter("migration_bytes_streamed",
                      stats_.migration_bytes_streamed.load(kRelaxed));
  snapshot.AddCounter("broadcasts", stats_.broadcasts.load(kRelaxed));
  snapshot.AddCounter("duplicate_appends_dropped",
                      stats_.duplicate_appends_dropped.load(kRelaxed));
  snapshot.AddCounter("hot_cache_hits", stats_.hot_cache_hits.load(kRelaxed));
  snapshot.AddCounter("hot_cache_misses",
                      stats_.hot_cache_misses.load(kRelaxed));
  snapshot.AddCounter("hot_cache_invalidations",
                      stats_.hot_cache_invalidations.load(kRelaxed));
  snapshot.AddCounter("hot_cache_drops", stats_.hot_cache_drops.load(kRelaxed));
  snapshot.AddCounter("sheds", stats_.sheds.load(kRelaxed));
  if (any_durability) {
    snapshot.AddCounter("novoht.fsync_errors", durability.fsync_errors);
    snapshot.AddCounter("novoht.group_commits", durability.group_commits);
    snapshot.AddHistogram("novoht.group_commit.batch_size",
                          durability.group_commit_batch);
    snapshot.AddHistogram("novoht.group_commit.fsync_micros",
                          durability.fsync_micros);
  }
  MetricsSnapshot registry = metrics_.Snapshot();
  snapshot.entries.insert(snapshot.entries.end(),
                          std::make_move_iterator(registry.entries.begin()),
                          std::make_move_iterator(registry.entries.end()));
  return snapshot;
}

MetricsSnapshot ZhtServer::MetricsSnapshotNow() const {
  return BuildSnapshot(AwaitCensus());
}

std::uint64_t ZhtServer::TotalEntries() const {
  std::uint64_t total = 0;
  for (const ShardCensus& c : AwaitCensus()) total += c.entries;
  return total;
}

std::vector<std::size_t> ZhtServer::ShardPartitionCounts() const {
  std::vector<std::size_t> counts;
  for (const ShardCensus& c : AwaitCensus()) counts.push_back(c.held);
  return counts;
}

std::vector<ZhtServer::ShardCensus> ZhtServer::AwaitCensus() const {
  using Census = std::vector<ShardCensus>;
  return AwaitCompletion<Census>([&](std::function<void(Census)> done) {
    ScatterCensus(std::move(done));
  });
}

std::uint64_t ZhtServer::ShardForwardedOps(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard]->forwarded.load(kRelaxed) : 0;
}

HistogramData ZhtServer::ShardMailboxDepth(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard]->mailbox_depth.Snapshot()
                                : HistogramData{};
}

std::uint64_t ZhtServer::ShardQueuedNow(std::size_t shard) const {
  return shard < shards_.size()
             ? shards_[shard]->queued.load(std::memory_order_acquire)
             : 0;
}

std::uint64_t ZhtServer::HotCacheEntriesNow() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->hot_cache.size();
  return total;
}

// ---------------------------------------------------------------------------
// Hot-key cache + admission control (DESIGN.md §13)
// ---------------------------------------------------------------------------

bool ZhtServer::CacheLookup(Shard& shard, std::string_view key,
                            std::string* value) {
  if (!shard.hot_cache.enabled()) return false;
  if (shard.hot_cache.TryGet(key, value)) {
    stats_.hot_cache_hits.fetch_add(1, kRelaxed);
    cache_hit_counter_->Increment();
    return true;
  }
  stats_.hot_cache_misses.fetch_add(1, kRelaxed);
  cache_miss_counter_->Increment();
  return false;
}

bool ZhtServer::TryServeFromCache(Shard& shard, const Request& request,
                                  const ResponseCallback& done, Nanos start) {
  // Ingress fast path: a hit skips the mailbox hop, the routing pass, and
  // the store lookup entirely. Safe from any thread — the cache only holds
  // entries for partitions this instance owns and has quiesced (see the
  // staleness contract in hot_key_cache.h).
  if (!shard.hot_cache.enabled() || request.server_origin) return false;
  Response resp;
  resp.seq = request.seq;
  resp.epoch = epoch_.load(kRelaxed);
  if (!CacheLookup(shard, request.key, &resp.value)) return false;
  stats_.ops.fetch_add(1, kRelaxed);
  done(std::move(resp));
  RecordDataOpLatency(OpCode::kLookup, start);
  return true;
}

std::uint32_t ZhtServer::AdmissionRetryHint(Shard& shard) const {
  const std::size_t budget = options_.cluster.shed_queue_budget;
  if (budget == 0) return 0;
  const std::uint64_t depth = shard.queued.load(std::memory_order_acquire);
  const std::uint64_t bytes = shard.inflight_bytes.load(kRelaxed);
  const std::uint64_t byte_budget =
      static_cast<std::uint64_t>(budget) * kShedBytesPerSlot;
  const std::uint64_t over = std::max(depth / budget, bytes / byte_budget);
  if (over == 0) return 0;
  // The hint scales with how far past its budget the shard is, so a deeply
  // backed-up shard spreads its retry storm wider; capped to keep a
  // transient spike from parking clients for a human-visible pause.
  constexpr std::uint64_t kBaseUs = 1000;
  constexpr std::uint64_t kCapUs = 64000;
  return static_cast<std::uint32_t>(std::min(kCapUs, kBaseUs * over));
}

bool ZhtServer::MaybeShed(Shard& shard, const Request& request,
                          const ResponseCallback& done) {
  // Server-origin traffic (replication legs, migration/rebuild streams)
  // is never shed: dropping it would trade overload for inconsistency.
  if (request.server_origin) return false;
  const std::uint32_t hint = AdmissionRetryHint(shard);
  if (hint == 0) return false;
  stats_.sheds.fetch_add(1, kRelaxed);
  shed_counter_->Increment();
  Response resp;
  resp.seq = request.seq;
  resp.epoch = epoch_.load(kRelaxed);
  resp.status =
      Status(StatusCode::kUnavailable, "shard over admission budget").raw();
  resp.retry_after_us = hint;
  done(std::move(resp));
  return true;
}

void ZhtServer::CacheFill(Shard& shard, PartitionId partition,
                          std::string_view key, std::string_view value) {
  shard.hot_cache.Put(key, partition, value);
}

void ZhtServer::CacheInvalidate(Shard& shard, std::string_view key) {
  if (shard.hot_cache.Invalidate(key)) {
    stats_.hot_cache_invalidations.fetch_add(1, kRelaxed);
    cache_invalidate_counter_->Increment();
  }
}

void ZhtServer::CacheDropPartition(Shard& shard, PartitionId partition) {
  const std::size_t dropped = shard.hot_cache.DropPartition(partition);
  if (dropped != 0) {
    stats_.hot_cache_drops.fetch_add(dropped, kRelaxed);
    cache_drop_counter_->Increment(dropped);
  }
}

void ZhtServer::CacheClear(Shard& shard) {
  const std::size_t dropped = shard.hot_cache.Clear();
  if (dropped != 0) {
    stats_.hot_cache_drops.fetch_add(dropped, kRelaxed);
    cache_drop_counter_->Increment(dropped);
  }
}

}  // namespace zht
