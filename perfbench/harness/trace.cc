#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_next_thread{1};
thread_local std::uint32_t tls_thread = 0;
// Key of the last mutation this thread applied through a TracedStore: the
// durability wait that follows it on the same thread belongs to it.
thread_local std::uint64_t tls_last_key = 0;

std::uint32_t ThreadNumber() {
  if (tls_thread == 0) tls_thread = g_next_thread.fetch_add(1);
  return tls_thread;
}

bool Contains(const Span& outer, const Span& inner) {
  return outer.start <= inner.start && inner.end <= outer.end;
}

bool IsStoreKind(SpanKind k) {
  return k == SpanKind::kStoreGet || k == SpanKind::kStorePut ||
         k == SpanKind::kStoreAppend || k == SpanKind::kStoreRemove;
}

struct PairHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p)
      const {
    return std::hash<std::uint64_t>()(p.first * 0x9e3779b97f4a7c15ULL ^
                                      p.second);
  }
};
using PairKey = std::pair<std::uint64_t, std::uint64_t>;

// Spans sorted by start, with the longest duration among them, so the
// spans that can contain a given interval are found by a bounded scan.
struct StartIndex {
  std::vector<int> ids;
  std::int64_t max_dur = 0;
};

void Finish(std::unordered_map<PairKey, StartIndex, PairHash>& index,
            const std::vector<Span>& spans) {
  for (auto& [key, entry] : index) {
    std::sort(entry.ids.begin(), entry.ids.end(),
              [&](int a, int b) { return spans[a].start < spans[b].start; });
    for (int id : entry.ids) {
      entry.max_dur =
          std::max(entry.max_dur, spans[id].end - spans[id].start);
    }
  }
}

// Members of `entry` that contain `s` and pass `accept`; stops after two.
template <typename Accept>
int FindContaining(const StartIndex& entry, const std::vector<Span>& spans,
                   const Span& s, Accept accept, int* found) {
  *found = 0;
  int result = -1;
  auto it = std::upper_bound(
      entry.ids.begin(), entry.ids.end(), s.start,
      [&](std::int64_t t, int id) { return t < spans[id].start; });
  while (it != entry.ids.begin()) {
    --it;
    const Span& c = spans[*it];
    if (c.start < s.start - entry.max_dur) break;
    if (&c != &s && Contains(c, s) && accept(c)) {
      result = *it;
      if (++*found > 1) break;
    }
  }
  return result;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t KeyHash(std::string_view key) {
  return std::hash<std::string_view>()(key);
}

Span MakeSpan(SpanKind kind, std::int64_t start, std::int64_t end) {
  Span s{};
  s.start = start;
  s.end = end;
  s.kind = kind;
  s.thread = ThreadNumber();
  s.instance = kClientSide;
  return s;
}

// ---- SpanBuffer ----

SpanBuffer::SpanBuffer(std::size_t capacity)
    : spans_(new Span[capacity]), capacity_(capacity) {}

void SpanBuffer::SetPhase(std::uint8_t phase, std::size_t cap) {
  cap_.store(std::min(cap, capacity_), std::memory_order_relaxed);
  phase_.store(phase, std::memory_order_relaxed);
}

void SpanBuffer::Record(Span span) {
  const std::uint8_t phase = phase_.load(std::memory_order_relaxed);
  if (phase == 0) return;
  const std::size_t cap = cap_.load(std::memory_order_relaxed);
  std::size_t index = next_.load(std::memory_order_relaxed);
  do {
    if (index >= cap) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } while (!next_.compare_exchange_weak(index, index + 1,
                                        std::memory_order_relaxed));
  span.phase = phase;
  spans_[index] = span;
  written_.fetch_add(1, std::memory_order_release);
}

std::vector<Span> SpanBuffer::Collect() const {
  // Wait until every reserved slot has been written.
  std::size_t n = next_.load(std::memory_order_acquire);
  while (written_.load(std::memory_order_acquire) < n) {
    n = next_.load(std::memory_order_acquire);
  }
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

bool SpanBuffer::WriteTo(const std::string& path) const {
  const std::vector<Span> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::uint64_t n = spans.size();
  bool ok = std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  return std::fclose(f) == 0 && ok;
}

// ---- decorators ----

void TracedStore::Note(SpanKind kind, std::string_view key,
                       std::int64_t start) {
  Span s = MakeSpan(kind, start, NowNs());
  s.key_hash = KeyHash(key);
  s.instance = instance_;
  if (kind != SpanKind::kStoreGet) tls_last_key = s.key_hash;
  buffer_->Record(s);
}

zht::Status TracedStore::Put(std::string_view key, std::string_view value) {
  if (!buffer_->on()) return inner_->Put(key, value);
  const std::int64_t start = NowNs();
  zht::Status status = inner_->Put(key, value);
  Note(SpanKind::kStorePut, key, start);
  return status;
}

zht::Result<std::string> TracedStore::Get(std::string_view key) {
  if (!buffer_->on()) return inner_->Get(key);
  const std::int64_t start = NowNs();
  auto result = inner_->Get(key);
  Note(SpanKind::kStoreGet, key, start);
  return result;
}

zht::Status TracedStore::Remove(std::string_view key) {
  if (!buffer_->on()) return inner_->Remove(key);
  const std::int64_t start = NowNs();
  zht::Status status = inner_->Remove(key);
  Note(SpanKind::kStoreRemove, key, start);
  return status;
}

zht::Status TracedStore::Append(std::string_view key, std::string_view value) {
  if (!buffer_->on()) return inner_->Append(key, value);
  const std::int64_t start = NowNs();
  zht::Status status = inner_->Append(key, value);
  Note(SpanKind::kStoreAppend, key, start);
  return status;
}

void TracedStore::NotifyDurable(std::uint64_t token,
                                std::function<void(zht::Status)> done) {
  if (!buffer_->on()) {
    inner_->NotifyDurable(token, std::move(done));
    return;
  }
  const std::int64_t start = NowNs();
  inner_->NotifyDurable(
      token, [done = std::move(done), start, key = tls_last_key,
              instance = instance_, buffer = buffer_](zht::Status status) {
        Span s = MakeSpan(SpanKind::kDurableWait, start, NowNs());
        s.key_hash = key;
        s.instance = instance;
        buffer->Record(s);
        done(status);
      });
}

zht::Result<zht::Response> TracedTransport::Call(const zht::NodeAddress& to,
                                                 const zht::Request& request,
                                                 zht::Nanos timeout) {
  if (!buffer_->on()) return inner_->Call(to, request, timeout);
  const std::int64_t start = NowNs();
  auto result = inner_->Call(to, request, timeout);
  Span s = MakeSpan(instance_ == kClientSide ? SpanKind::kTransport
                                             : SpanKind::kReplLeg,
                    start, NowNs());
  s.client_id = request.client_id;
  s.seq = request.seq;
  s.key_hash = KeyHash(request.key);
  s.instance = instance_;
  s.replica_index = request.replica_index;
  buffer_->Record(s);
  return result;
}

zht::AsyncRequestHandler TraceHandler(zht::AsyncRequestHandler inner,
                                      std::uint8_t instance,
                                      SpanBuffer* buffer) {
  return [inner = std::move(inner), instance, buffer](
             zht::Request&& request, zht::ResponseCallback done) {
    if (!buffer->on()) {
      inner(std::move(request), std::move(done));
      return;
    }
    // Shared with the callback: it may run on another thread after this
    // frame returns.
    struct State {
      Span span;
      std::atomic<bool> returned{false};
    };
    auto state = std::make_shared<State>();
    state->span = MakeSpan(SpanKind::kHandle, NowNs(), 0);
    state->span.client_id = request.client_id;
    state->span.seq = request.seq;
    state->span.key_hash = KeyHash(request.key);
    state->span.instance = instance;
    state->span.replica_index = request.replica_index;
    if (request.server_origin) state->span.flags |= kFlagServerOrigin;
    if (request.op != zht::OpCode::kLookup) state->span.flags |= kFlagWrite;
    inner(std::move(request),
          [state, buffer, done = std::move(done)](zht::Response&& resp) {
            Span s = state->span;
            s.end = NowNs();
            if (!state->returned.load(std::memory_order_acquire) &&
                ThreadNumber() == s.thread) {
              s.flags |= kFlagInline;
            }
            buffer->Record(s);
            done(std::move(resp));
          });
    state->returned.store(true, std::memory_order_release);
  };
}

// ---- analysis ----

Links LinkSpans(const std::vector<Span>& spans) {
  const int n = static_cast<int>(spans.size());
  Links links;
  links.parent.assign(spans.size(), -1);
  links.children.assign(spans.size(), {});
  links.unlinked.assign(spans.size(), false);

  std::unordered_map<PairKey, StartIndex, PairHash> by_id;      // (cid, seq)
  std::unordered_map<PairKey, StartIndex, PairHash> handles;    // (inst, key)
  std::unordered_map<PairKey, StartIndex, PairHash> calls;      // (thr, key)
  for (int i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.client_id != 0) by_id[{s.client_id, s.seq}].ids.push_back(i);
    if (s.kind == SpanKind::kHandle) {
      handles[{s.instance, s.key_hash}].ids.push_back(i);
    } else if (s.kind == SpanKind::kClientCall) {
      calls[{s.thread, s.key_hash}].ids.push_back(i);
    }
  }
  Finish(by_id, spans);
  Finish(handles, spans);
  Finish(calls, spans);

  static const StartIndex kEmpty;
  auto lookup = [](const auto& map, PairKey key) -> const StartIndex& {
    auto it = map.find(key);
    return it == map.end() ? kEmpty : it->second;
  };

  for (int i = 0; i < n; ++i) {
    const Span& s = spans[i];
    int found = 0;
    int parent = -1;
    switch (s.kind) {
      case SpanKind::kClientCall:
        continue;  // request root
      case SpanKind::kTransport:
        parent = FindContaining(lookup(calls, {s.thread, s.key_hash}), spans,
                                s, [](const Span&) { return true; }, &found);
        break;
      case SpanKind::kHandle: {
        const StartIndex& same_id = lookup(by_id, {s.client_id, s.seq});
        if (s.flags & kFlagServerOrigin) {
          parent = FindContaining(
              same_id, spans, s,
              [&](const Span& c) {
                return c.kind == SpanKind::kReplLeg &&
                       c.replica_index == s.replica_index;
              },
              &found);
          break;
        }
        const bool sent_by_traced_client = std::any_of(
            same_id.ids.begin(), same_id.ids.end(), [&](int id) {
              return spans[id].kind == SpanKind::kTransport;
            });
        if (s.client_id == 0 || !sent_by_traced_client) {
          continue;  // request root: sent by the untraced generator
        }
        parent = FindContaining(
            same_id, spans, s,
            [](const Span& c) { return c.kind == SpanKind::kTransport; },
            &found);
        break;
      }
      case SpanKind::kReplLeg:
        parent = FindContaining(
            lookup(by_id, {s.client_id, s.seq}), spans, s,
            [&](const Span& c) {
              return c.kind == SpanKind::kHandle &&
                     c.instance == s.instance &&
                     !(c.flags & kFlagServerOrigin);
            },
            &found);
        break;
      default:  // store calls and durability waits: by key
        parent = FindContaining(lookup(handles, {s.instance, s.key_hash}),
                                spans, s, [](const Span&) { return true; },
                                &found);
        break;
    }
    ++links.linkable;
    if (found == 1) {
      links.parent[i] = parent;
      links.children[parent].push_back(i);
    } else {
      links.unlinked[i] = true;
      ++links.unlinked_count;
    }
  }
  return links;
}

std::int64_t SelfTime(const std::vector<Span>& spans, const Links& links,
                      int index) {
  const Span& s = spans[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (int c : links.children[index]) {
    const std::int64_t a = std::max(s.start, spans[c].start);
    const std::int64_t b = std::min(s.end, spans[c].end);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t total = 0;
  std::int64_t cursor = s.start;
  for (const auto& [a, b] : covered) {
    const std::int64_t from = std::max(a, cursor);
    if (b > from) {
      total += b - from;
      cursor = b;
    }
  }
  return (s.end - s.start) - total;
}

std::vector<Decomposition> Decompose(const std::vector<Span>& spans,
                                     const Links& links) {
  std::vector<Decomposition> out;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    const Span& call = spans[i];
    if (call.kind != SpanKind::kClientCall) continue;
    Decomposition d;
    d.rtt = static_cast<double>(call.end - call.start);
    d.client_self = static_cast<double>(SelfTime(spans, links, i));
    bool complete = !links.children[i].empty();
    for (int t : links.children[i]) {
      const auto& handles = links.children[t];
      if (handles.size() != 1) {
        complete = false;
        break;
      }
      d.transport += static_cast<double>(spans[t].end - spans[t].start);
      d.net_self += static_cast<double>(SelfTime(spans, links, t));
      const int h = handles.front();
      const Span& handle = spans[h];
      d.handle += static_cast<double>(handle.end - handle.start);
      std::int64_t first_store = handle.end;
      for (int c : links.children[h]) {
        const Span& child = spans[c];
        const double dur = static_cast<double>(child.end - child.start);
        if (IsStoreKind(child.kind)) {
          d.store += dur;
          first_store = std::min(first_store, child.start);
        } else if (child.kind == SpanKind::kDurableWait) {
          d.durable += dur;
        } else if (child.kind == SpanKind::kReplLeg) {
          d.repl += dur;
        }
      }
      const double queue =
          first_store < handle.end
              ? static_cast<double>(first_store - handle.start)
              : 0.0;
      d.queue += queue;
      d.other += static_cast<double>(SelfTime(spans, links, h)) - queue;
    }
    if (complete) out.push_back(d);
  }
  return out;
}

}  // namespace perfbench
