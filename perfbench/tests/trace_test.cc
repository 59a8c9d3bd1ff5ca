// Span linking, self time and the per-request decomposition on hand-built
// traces, plus the decorators' forwarding.
#include <gtest/gtest.h>

#include <map>

#include "novoht/novoht.h"
#include "trace.h"

namespace perfbench {
namespace {

Span At(SpanKind kind, std::int64_t start, std::int64_t end,
        std::uint8_t instance, std::uint64_t key = 0xabc) {
  Span s = MakeSpan(kind, start, end);
  s.instance = instance;
  s.key_hash = key;
  s.thread = 1;
  return s;
}

Span WithId(Span s, std::uint64_t client_id, std::uint64_t seq,
            std::uint8_t replica_index = 0) {
  s.client_id = client_id;
  s.seq = seq;
  s.replica_index = replica_index;
  return s;
}

// One replicated, durable insert seen end to end:
//   client.call [0,100] > transport [5,95] > handle@0 [20,80]
//   handle@0 > put [30,40], durable [40,60], leg [61,79]
//   leg > handle@1 (server origin) [62,78] > put@1 [63,64]
std::vector<Span> ReplicatedInsert() {
  std::vector<Span> s;
  s.push_back(At(SpanKind::kClientCall, 0, 100, kClientSide));        // 0
  s.push_back(WithId(At(SpanKind::kTransport, 5, 95, kClientSide), 7, 1));
  s.push_back(WithId(At(SpanKind::kHandle, 20, 80, 0), 7, 1));        // 2
  s.push_back(At(SpanKind::kStorePut, 30, 40, 0));                    // 3
  s.push_back(At(SpanKind::kDurableWait, 40, 60, 0));                 // 4
  s.push_back(WithId(At(SpanKind::kReplLeg, 61, 79, 0), 7, 1, 1));    // 5
  Span secondary = WithId(At(SpanKind::kHandle, 62, 78, 1), 7, 1, 1);
  secondary.flags |= kFlagServerOrigin;
  s.push_back(secondary);                                             // 6
  s.push_back(At(SpanKind::kStorePut, 63, 64, 1));                    // 7
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> s = {At(SpanKind::kHandle, 0, 100, 0),
                         At(SpanKind::kStorePut, 10, 30, 0),
                         At(SpanKind::kStorePut, 20, 50, 0),
                         At(SpanKind::kReplLeg, 90, 120, 0)};
  Links links;
  links.parent = {-1, 0, 0, 0};
  links.children = {{1, 2, 3}, {}, {}, {}};
  EXPECT_EQ(SelfTime(s, links, 0), 100 - 40 - 10);
  EXPECT_EQ(SelfTime(s, links, 1), 20);
}

TEST(LinkSpans, LinksByRequestIdAndByKeyInsideTheHandler) {
  const std::vector<Span> s = ReplicatedInsert();
  const Links links = LinkSpans(s);
  EXPECT_EQ(links.unlinked_count, 0u);
  EXPECT_EQ(links.linkable, 7u);
  const std::vector<int> want = {-1, 0, 1, 2, 2, 2, 5, 6};
  EXPECT_EQ(links.parent, want);
}

TEST(Decompose, PartsAddUpToTheRoundTrip) {
  const std::vector<Span> s = ReplicatedInsert();
  const std::vector<Decomposition> d = Decompose(s, LinkSpans(s));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rtt, 100);
  EXPECT_EQ(d[0].client_self, 10);  // 100 - transport 90
  EXPECT_EQ(d[0].net_self, 30);     // transport 90 - handle 60
  EXPECT_EQ(d[0].queue, 10);        // handle start 20 -> put 30
  EXPECT_EQ(d[0].store, 10);
  EXPECT_EQ(d[0].durable, 20);
  EXPECT_EQ(d[0].repl, 18);
  EXPECT_EQ(d[0].other, 2);  // 60 - 48 covered - 10 queue
  EXPECT_EQ(d[0].client_self + d[0].net_self + d[0].queue + d[0].store +
                d[0].durable + d[0].repl + d[0].other,
            d[0].rtt);
}

TEST(LinkSpans, AmbiguousOrOrphanSpansAreUnlinked) {
  std::vector<Span> s;
  // Two concurrent handlers of one key on one instance: the store call
  // inside both cannot be attributed.
  s.push_back(WithId(At(SpanKind::kHandle, 0, 50, 0), 9, 1));
  s.push_back(WithId(At(SpanKind::kHandle, 5, 60, 0), 9, 2));
  s.push_back(At(SpanKind::kStoreGet, 10, 20, 0));
  // A store call outside any handler.
  s.push_back(At(SpanKind::kStoreGet, 70, 80, 0));
  // The same key on another instance does not count as a candidate.
  s.push_back(WithId(At(SpanKind::kHandle, 100, 200, 1), 9, 3));
  s.push_back(At(SpanKind::kStorePut, 110, 120, 1));
  const Links links = LinkSpans(s);
  // Handlers sent by the untraced generator are request roots.
  EXPECT_EQ(links.parent[0], -1);
  EXPECT_FALSE(links.unlinked[0]);
  EXPECT_TRUE(links.unlinked[2]);
  EXPECT_TRUE(links.unlinked[3]);
  EXPECT_EQ(links.parent[5], 4);
  EXPECT_EQ(links.unlinked_count, 2u);
  EXPECT_EQ(links.linkable, 3u);
}

TEST(Decompose, SkipsRequestsWithAMissingHandler) {
  std::vector<Span> s;
  s.push_back(At(SpanKind::kClientCall, 0, 100, kClientSide));
  s.push_back(WithId(At(SpanKind::kTransport, 5, 95, kClientSide), 7, 1));
  EXPECT_TRUE(Decompose(s, LinkSpans(s)).empty());
}

TEST(SpanBuffer, KeepsSpansUpToThePhaseCap) {
  SpanBuffer buffer(10);
  buffer.Record(MakeSpan(SpanKind::kHandle, 0, 1));  // phase 0: off
  buffer.SetPhase(1, 3);
  for (int i = 0; i < 5; ++i) buffer.Record(MakeSpan(SpanKind::kHandle, i, i));
  buffer.SetPhase(2, 10);
  buffer.Record(MakeSpan(SpanKind::kStoreGet, 9, 9));
  const std::vector<Span> spans = buffer.Collect();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].phase, 1);
  EXPECT_EQ(spans[3].phase, 2);
  EXPECT_EQ(buffer.dropped(), 2u);
}

TEST(TracedStore, ForwardsEveryCallAndRecordsSpans) {
  SpanBuffer buffer(100);
  buffer.SetPhase(1, 100);
  auto inner = zht::NoVoHT::Open(zht::NoVoHTOptions{});
  ASSERT_TRUE(inner.ok());
  TracedStore store(std::move(*inner), 3, &buffer);
  ASSERT_TRUE(store.Put("k", "v").ok());
  ASSERT_TRUE(store.Append("k", "w").ok());
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "vw");
  EXPECT_EQ(store.Size(), 1u);
  EXPECT_TRUE(store.supports_append());
  EXPECT_FALSE(store.persistent());
  int visited = 0;
  store.ForEach([&](std::string_view, std::string_view) { ++visited; });
  EXPECT_EQ(visited, 1);
  bool durable = false;
  store.NotifyDurable(store.last_commit_token(),
                      [&](zht::Status st) { durable = st.ok(); });
  EXPECT_TRUE(durable);
  ASSERT_TRUE(store.Remove("k").ok());
  EXPECT_EQ(store.Size(), 0u);

  std::map<SpanKind, int> kinds;
  for (const Span& s : buffer.Collect()) {
    ++kinds[s.kind];
    EXPECT_EQ(s.instance, 3);
    EXPECT_EQ(s.key_hash, KeyHash("k"));  // the wait follows the mutation
  }
  EXPECT_EQ(kinds[SpanKind::kStorePut], 1);
  EXPECT_EQ(kinds[SpanKind::kStoreAppend], 1);
  EXPECT_EQ(kinds[SpanKind::kStoreGet], 1);
  EXPECT_EQ(kinds[SpanKind::kStoreRemove], 1);
  EXPECT_EQ(kinds[SpanKind::kDurableWait], 1);
}

class EchoTransport : public zht::ClientTransport {
 public:
  zht::Result<zht::Response> Call(const zht::NodeAddress&,
                                  const zht::Request& request,
                                  zht::Nanos) override {
    ++calls;
    zht::Response r;
    r.seq = request.seq;
    return r;
  }
  void Invalidate(const zht::NodeAddress&) override { ++invalidations; }
  int calls = 0;
  int invalidations = 0;
};

TEST(TracedTransport, ForwardsAndTagsSpansWithTheRequestIdentity) {
  SpanBuffer buffer(10);
  buffer.SetPhase(2, 10);
  EchoTransport echo;
  TracedTransport client(&echo, kClientSide, &buffer);
  TracedTransport peer(&echo, 1, &buffer);
  zht::Request req;
  req.client_id = 5;
  req.seq = 6;
  req.key = "key";
  ASSERT_TRUE(client.Call({}, req, 1).ok());
  req.replica_index = 1;
  ASSERT_TRUE(peer.Call({}, req, 1).ok());
  auto batch = client.CallBatch({}, std::vector<zht::Request>{req, req}, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 2u);
  client.Invalidate({});
  EXPECT_EQ(echo.calls, 4);
  EXPECT_EQ(echo.invalidations, 1);
  const std::vector<Span> spans = buffer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kTransport);
  EXPECT_EQ(spans[1].kind, SpanKind::kReplLeg);
  EXPECT_EQ(spans[1].replica_index, 1);
  EXPECT_EQ(spans[0].client_id, 5u);
  EXPECT_EQ(spans[0].seq, 6u);
}

TEST(TraceHandler, FlagsInlineCompletions) {
  SpanBuffer buffer(10);
  buffer.SetPhase(1, 10);
  zht::ResponseCallback parked;
  auto inline_handler = TraceHandler(
      [](zht::Request&&, zht::ResponseCallback done) { done({}); }, 0,
      &buffer);
  auto deferred_handler = TraceHandler(
      [&parked](zht::Request&&, zht::ResponseCallback done) {
        parked = std::move(done);
      },
      0, &buffer);
  inline_handler(zht::Request{}, [](zht::Response&&) {});
  deferred_handler(zht::Request{}, [](zht::Response&&) {});
  parked({});
  const std::vector<Span> spans = buffer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].flags & kFlagInline);
  EXPECT_FALSE(spans[1].flags & kFlagInline);
}

}  // namespace
}  // namespace perfbench
