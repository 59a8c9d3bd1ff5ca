// ZhtServer: one ZHT instance (§III.B). Owns the partition stores for the
// partitions it serves (as primary or replica), validates ownership against
// its membership table (answering REDIRECT with a piggybacked table for the
// lazy client update), applies operations, and drives replication:
// synchronous to the secondary, asynchronous to further replicas (§III.J).
//
// The request API is asynchronous and ownership-routed (DESIGN.md §9):
// HandleAsync(Request&&, ResponseCallback) routes each request to the shard
// that owns its partition and completes via callback. A shard owns a
// disjoint set of partitions end-to-end — stores and lifecycle state,
// membership-table copy, append-dedup window — and only ever executes on
// one thread at a time, so the single-key hot path acquires ZERO mutexes:
// ingress computes the partition from an immutable PartitionSpace copy,
// posts a task into the shard's mailbox, and the owning reactor drains it.
//
// Shard mailboxes: one bounded SPSC ring per bound executor (reactor) plus
// a lock-free MPSC queue for every other producer (finishers, durability
// flushers, external threads) and for ring overflow. A request arriving on
// the wrong reactor is forwarded through the target shard's mailbox — a
// message, not a lock (`reactor.forwards` counts these; `reactor.
// mailbox_full` counts ring overflows that spilled to the MPSC queue).
//
// Execution model:
//   * bound shard (BindShardExecutor): only the owning reactor thread runs
//     shard tasks — it drains after enqueueing its own posts and when its
//     waker (eventfd) fires for cross-thread posts;
//   * unbound shard (loopback clusters, unit tests): whichever thread
//     posts drains, serialized by a CAS on the shard's `active` flag.
//
// Cross-partition operations are explicit scatter/gather messages with
// completion counting: a BATCH spanning owners scatters per-shard groups
// and the last group's durability callback finalizes the carrier; a
// membership push applies on shard 0 (the epoch authority) then fans the
// payload to every other shard before acking. Durability acks park on the
// store's flusher via KVStore::NotifyDurable — no thread blocks in the
// server for a group commit. Synchronous replication legs queue in one
// FIFO lane per destination, which a finisher drains as pipelined BATCH
// carriers (one carrier in flight per lane, so a key's writes reach the
// secondary in the order the primary applied them); partition transfers
// ride the ordered async-leg worker. Shard drains never do network I/O.
//
// Blocking adapters (Handle, MigratePartitionTo, RepairPartition,
// TotalEntries, MetricsSnapshotNow) exist for tests, tools, and managers.
// Never call them from a reactor thread that drives this server's shards —
// they wait on work those shards must execute.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/cluster_options.h"
#include "core/hot_key_cache.h"
#include "hashing/partition_space.h"
#include "membership/membership_table.h"
#include "net/transport.h"
#include "novoht/kv_store.h"

namespace zht {

// Builds the store for one partition held by one instance. The instance id
// is part of the identity: with replication (or after a migration) several
// instances hold stores for the same partition, and persistent factories
// must give each its own path or they would share one file.
using StoreFactory = std::function<std::unique_ptr<KVStore>(
    InstanceId self, PartitionId partition)>;

// Persistent NoVoHT partition stores: one log file per (instance, partition)
// under `dir`, with durability taken from `cluster`. The stores defer the
// group-commit wait (wait_for_durable = false): ZhtServer acks each request
// — or each BATCH carrier — exactly once, from the flusher's NotifyDurable
// callback, after its mutations are durable.
StoreFactory MakeNoVoHTStoreFactory(std::string dir,
                                    const ClusterOptions& cluster);

// Lifecycle of one partition on one instance (DESIGN.md §7, "Partition
// transfer"). Data ops are served only in kServing; every other state
// answers kMigrating so the client backs off and retries.
enum class PartitionState : std::uint8_t {
  kServing,    // normal service, as owner or replica
  kSending,    // outbound migration stream in flight; the store is frozen
  kHandedOff,  // migration verified and store erased; waiting for a table
               // that names the new owner
  kReceiving,  // inbound transfer between Begin and End (lands in a shadow
               // store), or an ex-owner waiting for its repair stream
};

// Requested edges a partition may take (from → to):
//
//   kServing   → kSending    migration out starts (snapshot + stream)
//   kServing   → kReceiving  transfer Begin arrives
//   kSending   → kServing    migration abandoned; the partition stays put
//   kSending   → kHandedOff  migration End verified; store erased
//   kHandedOff → kServing    the table names the new owner; an ex-owner
//                            whose erased copy held data and who stays in
//                            the replica chain lands in kReceiving instead
//   kReceiving → kReceiving  a re-stream's Begin restarts the landing
//   kReceiving → kServing    transfer End, or promoted to owner mid-stream
//
// Everything else is refused. In particular a transfer Begin arriving in
// kSending or kHandedOff is refused: this instance still claims the
// partition (or has just erased it), so no other source may stream it a
// copy; the stream's End then fails and the source retries or abandons.
bool IsLegalTransition(PartitionState from, PartitionState to);

struct ZhtServerOptions {
  InstanceId self = 0;
  ClusterOptions cluster;        // deployment-wide: replicas + timeouts
  bool sync_secondary = true;    // primary+secondary strong consistency
  std::size_t migrate_batch_bytes = 256 * 1024;  // transfer carrier size
  // Factory for partition stores. Defaults to in-memory NoVoHT.
  StoreFactory store_factory;
  // Partition-ownership shards. 0 = auto (min(4, hardware_concurrency)).
  // A multi-reactor front-end passes its reactor count so shards and
  // reactors pair 1:1 (shard s bound to executor s % num_reactors).
  std::size_t num_shards = 0;
  // Capacity of each bounded SPSC cross-reactor mailbox ring. Overflow
  // spills to the shard's MPSC queue and bumps `reactor.mailbox_full`.
  std::size_t mailbox_ring_capacity = 1024;
};

struct ZhtServerStats {
  std::uint64_t ops = 0;              // data operations served
  std::uint64_t redirects = 0;        // wrong-owner requests answered
  std::uint64_t replications_sync = 0;
  std::uint64_t replications_async = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  // Pair/byte volume of completed outbound partition migrations (key+value
  // payload, pre-framing) — the churn bench's bytes-moved-per-event source.
  std::uint64_t migration_pairs_streamed = 0;
  std::uint64_t migration_bytes_streamed = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t duplicate_appends_dropped = 0;
  // Anti-entropy / rebuild (source side). A "probe" is one kDigest RPC; a
  // clean probe moves no pair data. A rebuild leg is one (partition,
  // target) checkpoint stream; retries re-stream after a digest mismatch.
  std::uint64_t antientropy_probes = 0;
  std::uint64_t antientropy_clean = 0;
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuild_pairs_streamed = 0;
  std::uint64_t rebuild_retries = 0;
  // Hot-key read cache + admission control (DESIGN.md §13).
  std::uint64_t hot_cache_hits = 0;          // lookups served from cache
  std::uint64_t hot_cache_misses = 0;        // cache-eligible lookup misses
  std::uint64_t hot_cache_invalidations = 0; // mutations that evicted a key
  std::uint64_t hot_cache_drops = 0;         // entries dropped by partition/
                                             // membership events
  std::uint64_t sheds = 0;                   // data ops shed kUnavailable
};

class ZhtServer {
 public:
  // Admission control counts each queued data op as one mailbox slot OR
  // this many in-flight payload bytes, whichever is larger — so a budget
  // of N slots also caps queued bytes at N * 128 KiB (a burst of 1 MB
  // values hits the byte ceiling long before the slot ceiling).
  static constexpr std::size_t kShedBytesPerSlot = 128 * 1024;

  ZhtServer(MembershipTable table, const ZhtServerOptions& options,
            ClientTransport* peer_transport);
  ~ZhtServer();

  ZhtServer(const ZhtServer&) = delete;
  ZhtServer& operator=(const ZhtServer&) = delete;

  // The transport-facing entry point: routes to the owning shard and
  // invokes `done` exactly once — inline for redirects/rejections and the
  // no-durability hot path, from a flusher or finisher thread otherwise.
  // Safe to call from any thread, including reactor threads.
  void HandleAsync(Request&& request, ResponseCallback done);
  AsyncRequestHandler AsyncHandler() {
    return [this](Request&& request, ResponseCallback done) {
      HandleAsync(std::move(request), std::move(done));
    };
  }
  // Thin blocking adapter over HandleAsync for tests and simple callers.
  Response Handle(Request&& request);

  // Anti-entropy + online rebuild: digest-probes every member of
  // `partition`'s replica chain and streams a fresh checkpoint
  // (kTransferBegin/Data/End through the ordered async-replication queue)
  // to each member whose digest mismatches — clean members exchange only
  // digests. `done` fires once, after every leg completed or was abandoned
  // (bounded re-stream retries on digest mismatch). No-op unless this
  // instance owns the partition. Safe from any thread; the manager's
  // kRepair handler acks before the rebuild finishes.
  void StartRebuild(PartitionId partition, std::function<void(Status)> done);
  // Blocking adapter over StartRebuild (tests/tools): returns when the
  // replication level is actually restored.
  Status RepairPartition(PartitionId partition);

  // Blocking introspection for tests/benches: the digest ({0, 0} when the
  // partition is not held) and a snapshot of the pairs this instance holds
  // for `partition`. Not for reactor threads.
  PartitionDigest PartitionDigestOf(PartitionId partition);
  std::vector<std::pair<std::string, std::string>> PartitionPairs(
      PartitionId partition);

  // Transfers `partition` to `target` (the verified Begin/Data/End stream
  // rebuilds use) and relinquishes it. The caller (manager) updates and
  // broadcasts membership afterwards.
  Status MigratePartitionTo(PartitionId partition, const NodeAddress& target);

  // Unsynchronized view of shard 0's table for single-threaded tests/admin
  // introspection; do not call concurrently with membership pushes.
  const MembershipTable& table() const { return shards_.front()->table; }
  InstanceId self() const { return options_.self; }
  ZhtServerStats stats() const;

  // --- shard/executor topology (wired by the hosting front-end) ---

  std::size_t num_shards() const { return shards_.size(); }
  // Executor that owns the shard of `request`'s key (-1 for control ops or
  // unbound shards). The EpollServer uses this as its connection-placement
  // hint so a well-sharded client's requests arrive on the owning reactor.
  int PreferredExecutor(const Request& request) const;
  // Binds shard `shard` to executor `executor` (a reactor index); `waker`
  // must wake that executor's event loop so it drains the shard. Call
  // before traffic starts, from the setup thread.
  void BindShardExecutor(std::size_t shard, int executor,
                         std::function<void()> waker);
  // Registers the calling thread as executor `executor` for this server.
  // Reactor on-start hook.
  void EnterExecutorThread(int executor);
  // Drains every shard bound to `executor`. Reactor on-wake hook; must be
  // called from the thread that entered as `executor`.
  void RunExecutor(int executor);

  // --- per-shard telemetry (bench/tooling) ---

  // Cross-executor posts into each shard's mailbox ("forwarded ops").
  std::uint64_t ShardForwardedOps(std::size_t shard) const;
  // Mailbox depth observed at each drain of `shard`.
  HistogramData ShardMailboxDepth(std::size_t shard) const;
  // Instantaneous mailbox depth / live hot-cache entry count (tests/bench:
  // overload and invalidation assertions). Any thread; approximate.
  std::uint64_t ShardQueuedNow(std::size_t shard) const;
  std::uint64_t HotCacheEntriesNow() const;
  // Partition-store count per shard ("owned partitions"). Blocking scatter.
  std::vector<std::size_t> ShardPartitionCounts() const;

  // Structured observability (§8 of DESIGN.md): per-opcode service-time
  // histograms, batch sizes, replication fan-out, mailbox counters.
  // Recording is lock-free; the registry mutex is touched only here and at
  // construction.
  const MetricsRegistry& metrics() const { return metrics_; }
  // The full STATS payload: registry metrics plus the legacy counters and
  // instance-level gauges, as encoded by serialize/metrics_codec.h.
  // Blocking (census scatter); not for reactor threads.
  MetricsSnapshot MetricsSnapshotNow() const;

  // Total pairs held (all partitions, primary and replica). Blocking.
  std::uint64_t TotalEntries() const;

  // Waits until the async replication queue drains (tests/benches).
  void FlushAsyncReplication();

 private:
  struct Shard;
  // A unit of shard work. Runs with exclusive ownership of the shard's
  // state; must not block on I/O, locks held elsewhere, or other shards.
  using ShardTask = std::function<void(Shard&)>;

  // Intrusive MPSC queue (Vyukov): wait-free multi-producer push; the
  // single consumer is whichever thread holds the shard's drain ownership.
  // Pop can transiently observe an empty queue while a producer is between
  // the exchange and the next-pointer store; drain loops reconcile against
  // the shard's `queued` counter.
  class MpscTaskQueue {
   public:
    MpscTaskQueue() {
      Node* stub = new Node();
      head_.store(stub, std::memory_order_relaxed);
      tail_ = stub;
    }
    ~MpscTaskQueue() {
      Node* node = tail_;
      while (node) {
        Node* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
    void Push(ShardTask&& task) {
      Node* node = new Node();
      node->task = std::move(task);
      Node* prev = head_.exchange(node, std::memory_order_acq_rel);
      prev->next.store(node, std::memory_order_release);
    }
    bool Pop(ShardTask* out) {
      Node* tail = tail_;
      Node* next = tail->next.load(std::memory_order_acquire);
      if (!next) return false;
      *out = std::move(next->task);
      next->task = nullptr;
      tail_ = next;
      delete tail;
      return true;
    }

   private:
    struct Node {
      ShardTask task;
      std::atomic<Node*> next{nullptr};
    };
    alignas(64) std::atomic<Node*> head_;  // producers
    alignas(64) Node* tail_;               // consumer
  };

  // Bounded SPSC ring: the producer is one specific executor thread, the
  // consumer is the shard drain. Lock-free; Push fails (ring full) rather
  // than blocking — the caller spills to the MPSC queue.
  class SpscTaskRing {
   public:
    explicit SpscTaskRing(std::size_t capacity)
        : slots_(capacity == 0 ? 1 : capacity) {}
    bool Push(ShardTask&& task) {
      const std::uint64_t head = head_.load(std::memory_order_relaxed);
      if (head - tail_.load(std::memory_order_acquire) == slots_.size()) {
        return false;
      }
      slots_[head % slots_.size()] = std::move(task);
      head_.store(head + 1, std::memory_order_release);
      return true;
    }
    bool Pop(ShardTask* out) {
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (tail == head_.load(std::memory_order_acquire)) return false;
      *out = std::move(slots_[tail % slots_.size()]);
      slots_[tail % slots_.size()] = nullptr;
      tail_.store(tail + 1, std::memory_order_release);
      return true;
    }

   private:
    std::vector<ShardTask> slots_;
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
  };

  // One destination of an outbound transfer: a stale chain member
  // (rebuild) or the new owner (migration).
  struct TransferTarget {
    InstanceId id = 0;
    NodeAddress address;
    // The destination's position in the replica chain; 0 for a migration,
    // whose destination becomes the primary.
    std::uint8_t replica_index = 0;
    int attempts = 0;  // streams issued so far (retries on failed End)
    std::uint64_t pairs = 0;  // volume of the latest stream
    std::uint64_t bytes = 0;
  };

  // Source-side state of one outbound transfer round. A rebuild round
  // probed the chain and streams to the members that mismatched; while a
  // member is listed, synchronous replication legs to it divert into the
  // async queue so post-snapshot writes land after the stream's End (the
  // queue is FIFO per destination — that ordering IS the catch-up replay).
  // A migration round streams to the one new owner while the partition is
  // kSending, so no write can race it.
  struct TransferOut {
    std::vector<TransferTarget> targets;
    std::function<void(Status)> done;
    Status aggregate;  // first abandoned leg's failure, reported to done
  };

  // Everything a shard knows about one partition. Created on first touch
  // and kept (the shadow store object must be reused: a persistent store
  // opened twice at one path would race its older self over the log).
  struct PartitionRecord {
    PartitionState state = PartitionState::kServing;  // see Transition()
    std::shared_ptr<KVStore> store;   // canonical copy; null = none held
    std::shared_ptr<KVStore> shadow;  // inbound transfer landing pad
    bool had_data = false;  // kHandedOff: the erased copy held pairs
    std::optional<TransferOut> rebuild;    // owner-side rebuild round
    std::optional<TransferOut> migration;  // set while kSending
  };

  // One partition-ownership shard: shard s owns every partition p with
  // p % num_shards() == s. All non-mailbox members are touched only inside
  // the shard's drain (single-threaded by construction), so none of this
  // state is locked.
  struct alignas(64) Shard {
    std::size_t index = 0;

    // --- shard-owned state (drain-exclusive, no locks) ---
    MembershipTable table;  // private copy; updated by membership scatter
    std::unordered_map<PartitionId, PartitionRecord> partitions;
    // Partitions whose record is not kServing; an index Transition keeps
    // so membership updates visit only those, not every record.
    std::unordered_set<PartitionId> unsettled;
    std::deque<std::uint64_t> dedup_ring;  // at-most-once append window
    std::unordered_set<std::uint64_t> dedup_set;
    // Hot-key read cache. Fills/invalidations/drops are drain-exclusive
    // (single writer); ingress threads only probe (TryGet), which is why
    // it may be read outside the drain — see hot_key_cache.h.
    HotKeyCache hot_cache;

    // Admission control: payload bytes of data ops queued but not yet
    // executed (charged at ingress, discharged when the op runs).
    std::atomic<std::uint64_t> inflight_bytes{0};

    // --- mailbox ---
    std::vector<std::unique_ptr<SpscTaskRing>> rings;  // [producer executor]
    MpscTaskQueue overflow;  // non-executor producers + ring spill
    std::atomic<std::uint64_t> queued{0};
    std::atomic<bool> active{false};  // unbound-drain exclusivity (CAS)
    bool draining = false;            // bound: owner-thread reentrancy guard
    // Owning executor; -1 = unbound. Written before traffic starts
    // (BindShardExecutor) and at unbind (~ZhtServer); atomic because
    // finisher and flusher threads may Post concurrently with the unbind.
    std::atomic<int> executor{-1};
    // Wakes the owning executor's loop. Set before traffic, never cleared:
    // the front-end outlives this server (its fds stay open through Stop),
    // so a straggler wake after unbind is a harmless eventfd write.
    std::function<void()> waker;

    // --- telemetry ---
    std::atomic<std::uint64_t> forwarded{0};  // cross-executor posts
    Histogram mailbox_depth;                  // depth seen at each drain

    Shard(MembershipTable t, std::size_t cache_entries)
        : table(std::move(t)), hot_cache(cache_entries) {}
  };

  // Routing decision for one data op, computed against the shard's table:
  // target partition, replica chain, epoch, and — when this instance is
  // the wrong owner — the ready-made REDIRECT response.
  struct DataRoute {
    PartitionId partition = 0;
    std::uint32_t epoch = 0;
    std::vector<InstanceId> chain;
    std::optional<Response> redirect;
  };

  // Replica chain with its addresses resolved in-shard, so replication
  // finishers never touch a membership table.
  struct ReplicaPlan {
    std::vector<InstanceId> chain;
    std::vector<NodeAddress> addresses;  // parallel to chain
    // Parallel to chain when non-empty: members whose sync leg must go
    // through the async queue because a rebuild stream to them is in
    // flight (computed in-shard; consumed on finisher threads).
    std::vector<char> via_async;
    // Every leg synchronous (not just the secondary). Set for failover
    // writes accepted off-primary: the members the client skipped may in
    // fact be alive (a spurious detector mark) and serving reads, so the
    // write must land on them before the ack. Legs to genuinely dead
    // members fail fast and cost nothing.
    bool all_sync = false;
  };

  // Completion count for one acknowledgement: a unit per part still
  // pending (a guard held by the code that adds parts, a BATCH shard group,
  // a synchronous leg). The release that brings it to zero runs `fire`
  // once; Add must happen before the adder releases its own unit.
  struct AckCountdown {
    std::atomic<std::size_t> pending{1};
    std::function<void()> fire;
    void Add(std::size_t n) { pending.fetch_add(n, std::memory_order_relaxed); }
    void Release() {
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        auto run = std::move(fire);
        run();
      }
    }
  };

  // One destination's synchronous legs, in the order their writes were
  // applied. At most one drain job per lane is scheduled or running; it
  // ships what is queued (up to a per-carrier cap) as one carrier, so
  // carriers grow with the load the way group commit does and never
  // overtake each other.
  struct SyncLane {
    NodeAddress to;
    std::mutex mu;
    std::vector<Request> queued;                      // guarded by mu
    std::vector<std::shared_ptr<AckCountdown>> acks;  // parallel; by mu
    bool draining = false;                            // guarded by mu
    // The carrier in flight: touched only by the lane's one drain job, and
    // kept between carriers so a busy lane reuses their capacity.
    std::vector<Request> sending;
    std::vector<std::shared_ptr<AckCountdown>> sending_acks;
  };

  // Scatter/gather state for a BATCH spanning shard owners. Each shard
  // group fills its own disjoint response slots; `ack` counts the groups
  // still running plus the sync legs they queued, and its last release
  // finalizes the carrier.
  struct BatchGather {
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
    Nanos start = 0;
    std::vector<Request> ops;
    std::vector<Response> responses;
    std::vector<char> replicate;        // sub-op needs a replication leg
    std::vector<PartitionId> partitions;
    std::vector<ReplicaPlan> plans;
    std::atomic<bool> delta_sent{false};  // one membership delta per batch
    AckCountdown ack;
    ResponseCallback done;
  };

  // Gather state for a membership push fanned out to every shard.
  struct PushGather {
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
    Status status;
    std::atomic<std::size_t> remaining{0};
    ResponseCallback done;
  };

  // Per-shard census slice for stats/metrics scatter.
  struct ShardCensus {
    std::uint64_t entries = 0;
    std::size_t held = 0;
    StoreDurabilityMetrics durability;
    bool any_durability = false;
  };

  Shard& ShardForPartition(PartitionId partition) const {
    return *shards_[partition % shards_.size()];
  }

  // --- mailbox machinery ---
  int CurrentExecutor() const;  // this thread's executor for this server
  void Post(Shard& shard, ShardTask task);
  void Enqueue(Shard& shard, ShardTask task);
  void Kick(Shard& shard);
  void DrainBound(Shard& shard);   // owner executor thread only
  void DrainShared(Shard& shard);  // unbound shards: CAS-serialized
  std::size_t DrainAll(Shard& shard);

  // --- request execution (inside shard drains unless noted) ---
  using PartitionOpHandler = void (ZhtServer::*)(Shard&, Request&&,
                                                 ResponseCallback);
  // Ingress: runs a peer message addressed by request.partition in the
  // partition's shard.
  void PostPartitionOp(PartitionOpHandler exec, Request&& request,
                       ResponseCallback done);
  void ExecDataOp(Shard& shard, Request&& request, ResponseCallback done,
                  Nanos start);
  DataRoute RouteDataOp(Shard& shard, const Request& request,
                        std::atomic<bool>* delta_gate);
  Response RedirectTo(const Shard& shard, InstanceId owner, std::uint64_t seq,
                      std::uint32_t requester_epoch, bool include_membership);
  bool IsDuplicateAppend(Shard& shard, const Request& request);
  Status ApplyToStore(PartitionRecord& record, PartitionId partition, OpCode op,
                      std::string_view key, std::string_view value,
                      std::string* out);
  // The canonical store, created on demand.
  KVStore* StoreOf(PartitionRecord& record, PartitionId partition);
  // The transfer landing pad, created on demand under an id no canonical
  // partition can have (num_partitions + partition), so a persistent
  // factory gives it its own path.
  KVStore* ShadowOf(PartitionRecord& record, PartitionId partition);
  // The only writer of PartitionRecord::state: applies a requested edge
  // from the table above IsLegalTransition (false = refused, no change),
  // drops the partition's cached entries on leaving kServing, and applies
  // the had_data handoff rule.
  bool Transition(Shard& shard, PartitionId partition, PartitionState to);
  // After every membership update: a partition handed off is released
  // once the table names its new owner (subsequent requests redirect), and
  // an inbound transfer to a partition this instance now owns is dropped
  // (its source lost ownership or died; the canonical store — never wiped
  // mid-stream — is the copy promotion elected).
  void ReconcileWithTable(Shard& shard);
  ReplicaPlan MakeReplicaPlan(const Shard& shard,
                              const std::vector<InstanceId>& chain) const;

  void StartBatch(Request&& request, ResponseCallback done);  // ingress
  void ExecBatchGroup(Shard& shard, const std::shared_ptr<BatchGather>& gather,
                      std::vector<std::size_t> indices);
  // Queues the replication legs of the group's sub-ops that are durable:
  // those in `partition`, or every one when `partition` is empty.
  void ReplicateBatchGroup(const std::shared_ptr<BatchGather>& gather,
                           const std::vector<std::size_t>& indices,
                           std::optional<PartitionId> partition);
  void FinalizeBatch(BatchGather& gather);

  void StartMembershipPush(Request&& request, ResponseCallback done);
  void ExecBroadcast(Shard& shard, Request&& request, ResponseCallback done);
  // --- partition transfer: rebuild, anti-entropy and migration ---
  // Destination handlers (in-shard).
  void ExecDigest(Shard& shard, Request&& request, ResponseCallback done);
  void ExecTransferBegin(Shard& shard, Request&& request,
                         ResponseCallback done);
  void ExecTransferData(Shard& shard, Request&& request,
                        ResponseCallback done);
  void ExecTransferEnd(Shard& shard, Request&& request, ResponseCallback done);
  // Finisher-thread body: one kDigest call per target; posts the stale
  // subset back into the shard.
  void ProbeRebuildTargets(PartitionId partition, PartitionDigest mine,
                           std::vector<TransferTarget> targets);
  // In-shard: drop clean targets, stream to the stale ones (or finish).
  void BeginRebuildStreams(Shard& shard, PartitionId partition,
                           std::vector<InstanceId> stale);
  // In-shard: snapshot and digest the partition and enqueue Begin/Data*/
  // End for one target into the async queue; End's result posts
  // FinishTransferLeg.
  void StreamTransfer(Shard& shard, PartitionId partition,
                      TransferTarget& target, bool migration);
  // In-shard: re-streams a failed leg within the attempt budget, else
  // retires it; the round's last leg completes the rebuild or migration.
  void FinishTransferLeg(Shard& shard, PartitionId partition, bool migration,
                         InstanceId id, Status status);
  // In-shard digest of the partition's store ({0, 0} when absent).
  static PartitionDigest DigestOfStore(const KVStore* store);
  // Flags chain members with an in-flight rebuild stream in plan.via_async.
  void ApplyRebuildDiversions(const PartitionRecord& record,
                              ReplicaPlan* plan) const;
  // Moves `partition` to kSending in its shard and streams it to `target`;
  // the End result drives FinishMigrateOut.
  void StartMigrateOut(PartitionId partition, const NodeAddress& target,
                       std::function<void(Status)> done);
  // In-shard: on success erase the store and hand off; on failure resume
  // serving. Reports to the round's `done`.
  void FinishMigrateOut(Shard& shard, PartitionId partition, Status status);

  // Scatters a census task across every shard; `done` runs on the shard
  // that finishes last (or inline when a shard chain completes inline).
  void ScatterCensus(
      std::function<void(std::vector<ShardCensus>)> done) const;
  // Blocking form for the census adapters (not for reactor threads).
  std::vector<ShardCensus> AwaitCensus() const;
  MetricsSnapshot BuildSnapshot(const std::vector<ShardCensus>& census) const;

  // --- replication (addresses pre-resolved in-shard) ---
  // Async legs of several writes bound for one member, packed into one
  // BATCH carrier per member (keyed by instance id).
  using AsyncGroups =
      std::unordered_map<InstanceId,
                         std::pair<NodeAddress, std::vector<Request>>>;
  // Fans one applied, durable write out along its plan: synchronous legs
  // into their destinations' lanes (each adds a unit to `ack`), the rest
  // to the async worker — or into `async_groups` when given.
  void Replicate(Request&& op, PartitionId partition, const ReplicaPlan& plan,
                 const std::shared_ptr<AckCountdown>& ack,
                 AsyncGroups* async_groups);
  void EnqueueSyncLeg(Request&& leg, const NodeAddress& to,
                      const std::shared_ptr<AckCountdown>& ack);
  // Finisher job: ships one lane's queued legs as one carrier, releases
  // their acks, and reschedules itself while legs remain.
  void DrainLane(SyncLane& lane);
  void EnqueueAsyncReplication(Request request, const NodeAddress& target);
  // As above, plus a completion hook run on the async worker with the
  // peer's result (rebuild End verification). Null hook = fire-and-forget.
  void EnqueueAsyncLeg(Request request, const NodeAddress& target,
                       std::function<void(const Result<Response>&)> on_result);
  void AsyncReplicationLoop();

  void EnqueueFinisher(std::function<void()> job);
  void FinisherLoop();

  void RecordDataOpLatency(OpCode op, Nanos start);
  void OnRequestComplete();

  // --- hot-key cache + admission control (DESIGN.md §13) ---
  // Counting cache probe: hit/miss counters plus the shared-state read.
  // Ingress threads and shard drains both use it; the cache itself is
  // safe for concurrent readers.
  bool CacheLookup(Shard& shard, std::string_view key, std::string* value);
  // Ingress fast path: answer a client lookup from the owning shard's
  // cache without posting into the mailbox. True = `done` was called.
  bool TryServeFromCache(Shard& shard, const Request& request,
                         const ResponseCallback& done, Nanos start);
  // Admission decision: 0 = admit; otherwise the retry-after hint (µs) to
  // return with kUnavailable. Shared by the single-op and batch paths.
  std::uint32_t AdmissionRetryHint(Shard& shard) const;
  // Ingress admission control: when the shard's mailbox depth or queued
  // payload bytes exceed the budget, answer kUnavailable + retry-after
  // inline instead of queueing. True = the op was shed (`done` called).
  bool MaybeShed(Shard& shard, const Request& request,
                 const ResponseCallback& done);
  // In-shard, synchronous with the mutation that triggers them:
  void CacheFill(Shard& shard, PartitionId partition, std::string_view key,
                 std::string_view value);
  void CacheInvalidate(Shard& shard, std::string_view key);
  void CacheDropPartition(Shard& shard, PartitionId partition);
  void CacheClear(Shard& shard);

  ZhtServerOptions options_;
  ClientTransport* peer_transport_;

  // Ingress routing state: an immutable copy of the partition space (key →
  // partition needs no ownership data) plus the latest epoch. The hot-path
  // ingress reads only these — no lock, no shared table.
  PartitionSpace space_;
  std::atomic<std::uint32_t> epoch_;

  // Metrics registry plus hot-path handles resolved at construction, so the
  // request path records through raw pointers (atomic ops, no lock, no
  // lookup). data_op_hist_[op-1] covers kInsert..kAppend.
  MetricsRegistry metrics_;
  Histogram* data_op_hist_[4] = {};
  Histogram* batch_hist_ = nullptr;       // whole-batch service time
  Histogram* batch_size_hist_ = nullptr;  // sub-ops per BATCH envelope
  Histogram* replication_fanout_hist_ = nullptr;  // replicas per mutation
  Histogram* sync_batch_hist_ = nullptr;  // sync legs per lane carrier
  Histogram* mailbox_depth_hist_ = nullptr;       // all shards merged
  Counter* replication_sync_counter_ = nullptr;
  Counter* replication_async_counter_ = nullptr;
  // Sync legs that failed (transport error or a non-OK sub-response) whose
  // write was acked anyway.
  Counter* sync_failed_counter_ = nullptr;
  Counter* redirect_counter_ = nullptr;
  Counter* forwards_counter_ = nullptr;      // reactor.forwards
  Counter* mailbox_full_counter_ = nullptr;  // reactor.mailbox_full
  Counter* cache_hit_counter_ = nullptr;         // server.cache.hit
  Counter* cache_miss_counter_ = nullptr;        // server.cache.miss
  Counter* cache_invalidate_counter_ = nullptr;  // server.cache.invalidate
  Counter* cache_drop_counter_ = nullptr;        // server.cache.drop
  Counter* shed_counter_ = nullptr;              // server.admission.shed

  std::vector<std::unique_ptr<Shard>> shards_;

  // Monotonic counters; relaxed atomics (read via stats()).
  struct StatsCounters {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> redirects{0};
    std::atomic<std::uint64_t> replications_sync{0};
    std::atomic<std::uint64_t> replications_async{0};
    std::atomic<std::uint64_t> migrations_out{0};
    std::atomic<std::uint64_t> migrations_in{0};
    std::atomic<std::uint64_t> migration_pairs_streamed{0};
    std::atomic<std::uint64_t> migration_bytes_streamed{0};
    std::atomic<std::uint64_t> broadcasts{0};
    std::atomic<std::uint64_t> duplicate_appends_dropped{0};
    std::atomic<std::uint64_t> antientropy_probes{0};
    std::atomic<std::uint64_t> antientropy_clean{0};
    std::atomic<std::uint64_t> rebuilds_started{0};
    std::atomic<std::uint64_t> rebuilds_completed{0};
    std::atomic<std::uint64_t> rebuild_pairs_streamed{0};
    std::atomic<std::uint64_t> rebuild_retries{0};
    std::atomic<std::uint64_t> hot_cache_hits{0};
    std::atomic<std::uint64_t> hot_cache_misses{0};
    std::atomic<std::uint64_t> hot_cache_invalidations{0};
    std::atomic<std::uint64_t> hot_cache_drops{0};
    std::atomic<std::uint64_t> sheds{0};
  };
  mutable StatsCounters stats_;

  // Lifecycle: every HandleAsync holds an in-flight reference until its
  // callback fires; the destructor drains the mailboxes and waits for zero.
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<bool> stopping_{false};
  mutable std::mutex idle_mu_;
  mutable std::condition_variable idle_cv_;

  // Synchronous-leg lanes, one per destination, created on first use and
  // kept for the server's lifetime (drain jobs hold raw pointers).
  std::mutex lanes_mu_;
  std::unordered_map<NodeAddress, std::unique_ptr<SyncLane>> lanes_;

  // Finisher pool: lane drains and rebuild digest probes — peer I/O that
  // must never run inside a shard drain.
  std::mutex finisher_mu_;
  std::condition_variable finisher_cv_;
  // Separate CV for idle waiters (FlushAsyncReplication): EnqueueFinisher's
  // notify_one must always wake a worker, never a flusher.
  std::condition_variable finisher_idle_cv_;
  std::deque<std::function<void()>> finisher_queue_;
  std::size_t finisher_busy_ = 0;
  bool finishers_stop_ = false;
  std::vector<std::thread> finishers_;

  // Asynchronous replication worker (replicas beyond the secondary).
  // Targets carry addresses resolved in-shard at enqueue time.
  struct AsyncLeg {
    Request request;
    NodeAddress target;
    std::function<void(const Result<Response>&)> on_result;  // may be null
  };
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<AsyncLeg> async_queue_;
  std::size_t async_inflight_ = 0;
  bool async_stop_ = false;
  std::thread async_worker_;
};

}  // namespace zht
