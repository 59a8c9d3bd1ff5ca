// Tracing for the per-layer run: span recording, decorators over the
// interfaces the program is handed, and the offline analysis that links
// spans into requests and splits each request's time by layer.
//
// Nothing inside the program is instrumented. The decorators wrap what the
// benchmark hands the program — the AsyncRequestHandler given to
// EpollServer, every KVStore the StoreFactory builds, and the client and
// peer ClientTransports — and forward every virtual, so the traced program
// takes the same paths as the untraced one.
//
// Linking. Spans that carry a request identity, (client_id, seq), link by
// it: the handler span to the client transport call that sent it (or to the
// replication leg, for a server-origin copy), a replication leg to the
// primary's handler span. Store and durability spans carry only the key;
// they link to the one handler span of the same instance and key that
// encloses them in time. A span with no candidate, or with several, is
// unlinked; the run reports the unlinked share.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.h"
#include "novoht/kv_store.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClientCall = 0,  // one ZhtClient call (latency phase)
  kTransport,       // the client's ClientTransport::Call
  kHandle,          // AsyncRequestHandler entry -> response callback
  kStoreGet,
  kStorePut,
  kStoreAppend,
  kStoreRemove,
  kDurableWait,     // KVStore::NotifyDurable -> its callback
  kReplLeg,         // peer ClientTransport::Call (replication leg)
};

inline constexpr std::uint8_t kClientSide = 0xff;  // Span::instance
inline constexpr std::uint8_t kFlagInline = 1;     // done ran inside handler
inline constexpr std::uint8_t kFlagServerOrigin = 2;
inline constexpr std::uint8_t kFlagWrite = 4;      // insert/append/remove

// Plain data (no initializers) so a large buffer can be allocated without
// touching its pages.
struct Span {
  std::int64_t start;  // steady_clock ns
  std::int64_t end;
  std::uint64_t client_id;  // 0 when the span has no request identity
  std::uint64_t seq;
  std::uint64_t key_hash;
  std::uint32_t thread;
  SpanKind kind;
  std::uint8_t instance;  // ZHT instance, or kClientSide
  std::uint8_t replica_index;
  std::uint8_t flags;
  std::uint8_t phase;  // SpanBuffer phase when recorded
};

Span MakeSpan(SpanKind kind, std::int64_t start, std::int64_t end);
std::uint64_t KeyHash(std::string_view key);
std::int64_t NowNs();

// Fixed-capacity in-memory span store. Recording is one atomic increment
// plus a copy; spans past a phase's cap are counted, not kept.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  // Phase 0 stops recording. Spans of phase `phase` are kept until the
  // buffer holds `cap` spans in total.
  void SetPhase(std::uint8_t phase, std::size_t cap);
  bool on() const { return phase_.load(std::memory_order_relaxed) != 0; }
  void Record(Span span);

  // Every span recorded so far, once all in-progress Record calls finish.
  std::vector<Span> Collect() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Binary dump: a count followed by the raw Span records.
  bool WriteTo(const std::string& path) const;

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_;
  std::atomic<std::uint8_t> phase_{0};
  std::atomic<std::size_t> cap_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// KVStore decorator base: forwards every virtual to `inner`.
class ForwardingStore : public zht::KVStore {
 public:
  explicit ForwardingStore(std::unique_ptr<zht::KVStore> inner)
      : inner_(std::move(inner)) {}

  zht::Status Put(std::string_view key, std::string_view value) override {
    return inner_->Put(key, value);
  }
  zht::Result<std::string> Get(std::string_view key) override {
    return inner_->Get(key);
  }
  zht::Status Remove(std::string_view key) override {
    return inner_->Remove(key);
  }
  zht::Status Append(std::string_view key, std::string_view value) override {
    return inner_->Append(key, value);
  }
  zht::Status Clear() override { return inner_->Clear(); }
  std::uint64_t Size() const override { return inner_->Size(); }
  void ForEach(const std::function<void(std::string_view, std::string_view)>&
                   fn) const override {
    inner_->ForEach(fn);
  }
  bool persistent() const override { return inner_->persistent(); }
  bool supports_append() const override { return inner_->supports_append(); }
  std::uint64_t last_commit_token() const override {
    return inner_->last_commit_token();
  }
  zht::Status WaitDurable(std::uint64_t token) override {
    return inner_->WaitDurable(token);
  }
  void NotifyDurable(std::uint64_t token,
                     std::function<void(zht::Status)> done) override {
    inner_->NotifyDurable(token, std::move(done));
  }
  bool durability_metrics(zht::StoreDurabilityMetrics* out) const override {
    return inner_->durability_metrics(out);
  }

 protected:
  std::unique_ptr<zht::KVStore> inner_;
};

// Records a span per store call and per durability wait.
class TracedStore final : public ForwardingStore {
 public:
  TracedStore(std::unique_ptr<zht::KVStore> inner, std::uint8_t instance,
              SpanBuffer* buffer)
      : ForwardingStore(std::move(inner)),
        instance_(instance),
        buffer_(buffer) {}

  zht::Status Put(std::string_view key, std::string_view value) override;
  zht::Result<std::string> Get(std::string_view key) override;
  zht::Status Remove(std::string_view key) override;
  zht::Status Append(std::string_view key, std::string_view value) override;
  void NotifyDurable(std::uint64_t token,
                     std::function<void(zht::Status)> done) override;

 private:
  void Note(SpanKind kind, std::string_view key, std::int64_t start);

  std::uint8_t instance_;
  SpanBuffer* buffer_;
};

// Records a span per Call: kTransport on the client side, kReplLeg on a
// server's peer transport. CallBatch and Invalidate are forwarded.
class TracedTransport final : public zht::ClientTransport {
 public:
  TracedTransport(zht::ClientTransport* inner, std::uint8_t instance,
                  SpanBuffer* buffer)
      : inner_(inner), instance_(instance), buffer_(buffer) {}

  zht::Result<zht::Response> Call(const zht::NodeAddress& to,
                                  const zht::Request& request,
                                  zht::Nanos timeout) override;
  zht::Result<std::vector<zht::Response>> CallBatch(
      const zht::NodeAddress& to, std::span<const zht::Request> requests,
      zht::Nanos timeout) override {
    return inner_->CallBatch(to, requests, timeout);
  }
  void Invalidate(const zht::NodeAddress& to) override {
    inner_->Invalidate(to);
  }

 private:
  zht::ClientTransport* inner_;
  std::uint8_t instance_;
  SpanBuffer* buffer_;
};

// Wraps a server's handler: one kHandle span from entry to the response
// callback, flagged inline when the callback ran before the handler
// returned.
zht::AsyncRequestHandler TraceHandler(zht::AsyncRequestHandler inner,
                                      std::uint8_t instance,
                                      SpanBuffer* buffer);

// ---- analysis ----

struct Links {
  std::vector<int> parent;  // -1 = root or unlinked
  std::vector<std::vector<int>> children;
  std::vector<bool> unlinked;
  std::size_t unlinked_count = 0;
  std::size_t linkable = 0;  // spans that should have a parent
};
Links LinkSpans(const std::vector<Span>& spans);

// Duration minus the part of [start, end] covered by the children.
std::int64_t SelfTime(const std::vector<Span>& spans, const Links& links,
                      int index);

// One latency-phase request split by layer (all in ns). By construction
// rtt == client_self + net_self + queue + store + durable + repl + other
// whenever a handler's child spans do not overlap.
struct Decomposition {
  double rtt = 0;
  double client_self = 0;  // ZhtClient call minus its transport calls
  double net_self = 0;     // transport calls minus the server handler
  double queue = 0;        // handler entry -> first store call
  double store = 0;
  double durable = 0;
  double repl = 0;
  double other = 0;        // rest of the handler span
  double handle = 0;       // handler spans (sum over attempts)
  double transport = 0;    // transport calls (sum over attempts)
};
// Decomposes every fully linked kClientCall root in `spans`.
std::vector<Decomposition> Decompose(const std::vector<Span>& spans,
                                     const Links& links);

}  // namespace perfbench
