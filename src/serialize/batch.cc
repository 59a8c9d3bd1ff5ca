#include "serialize/batch.h"

#include "serialize/wire.h"

namespace zht {
namespace {

// A decoded batch may claim any count; cap what we preallocate so a
// malicious header cannot balloon memory before the payload check fails.
constexpr std::uint64_t kMaxBatchOps = 1u << 20;

// A length-delimited slice: varint length prefix + payload.
std::size_t SliceSize(std::size_t payload) {
  return wire::VarintSize(payload) + payload;
}

// varint count, then per message a length-delimited encoding, written into
// one buffer sized up front (no per-message temporaries).
template <typename Message>
std::string EncodeSlices(std::span<const Message> messages) {
  std::size_t total = wire::VarintSize(messages.size());
  for (const Message& m : messages) total += SliceSize(m.EncodedSize());
  std::string out;
  out.reserve(total);
  wire::Writer w(&out);
  w.PutVarint(messages.size());
  for (const Message& m : messages) {
    w.PutVarint(m.EncodedSize());
    m.EncodeTo(&out);
  }
  return out;
}

}  // namespace

std::string BatchRequest::Encode() const {
  return EncodeSlices(std::span<const Request>(ops));
}

Result<BatchRequest> BatchRequest::Decode(std::string_view data) {
  wire::Reader r(data);
  std::uint64_t count = 0;
  if (!r.GetVarint(&count)) {
    return Status(StatusCode::kCorruption, "batch request header");
  }
  if (count > kMaxBatchOps || count > r.remaining()) {
    return Status(StatusCode::kCorruption, "batch request count");
  }
  BatchRequest batch;
  batch.ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    std::string_view slice;
    if (!r.GetVarint(&len) || !r.GetBytes(len, &slice)) {
      return Status(StatusCode::kCorruption, "batch request slice");
    }
    auto op = Request::Decode(slice);
    if (!op.ok()) return op.status();
    batch.ops.push_back(std::move(*op));
  }
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorruption, "batch request trailing bytes");
  }
  return batch;
}

std::string BatchResponse::Encode() const {
  return EncodeSlices(std::span<const Response>(responses));
}

Result<BatchResponse> BatchResponse::Decode(std::string_view data) {
  wire::Reader r(data);
  std::uint64_t count = 0;
  if (!r.GetVarint(&count)) {
    return Status(StatusCode::kCorruption, "batch response header");
  }
  if (count > kMaxBatchOps || count > r.remaining()) {
    return Status(StatusCode::kCorruption, "batch response count");
  }
  BatchResponse batch;
  batch.responses.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    std::string_view slice;
    if (!r.GetVarint(&len) || !r.GetBytes(len, &slice)) {
      return Status(StatusCode::kCorruption, "batch response slice");
    }
    auto resp = Response::Decode(slice);
    if (!resp.ok()) return resp.status();
    batch.responses.push_back(std::move(*resp));
  }
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorruption, "batch response trailing bytes");
  }
  return batch;
}

Request PackBatchRequest(std::span<const Request> ops, std::uint64_t seq,
                         bool server_origin) {
  Request carrier;
  carrier.op = OpCode::kBatch;
  carrier.seq = seq;
  carrier.server_origin = server_origin;
  carrier.value = EncodeSlices(ops);
  return carrier;
}

Response PackBatchResponse(const BatchResponse& batch, std::uint64_t seq,
                           std::uint32_t epoch) {
  Response carrier;
  carrier.seq = seq;
  carrier.epoch = epoch;
  carrier.value = batch.Encode();
  return carrier;
}

Result<std::vector<Response>> UnpackBatchResponse(const Response& carrier,
                                                  std::size_t expected) {
  if (!carrier.ok() && carrier.value.empty()) {
    // Batch-level failure: the peer rejected the envelope outright.
    return Status(static_cast<StatusCode>(carrier.status),
                  "batch rejected by peer");
  }
  auto batch = BatchResponse::Decode(carrier.value);
  if (!batch.ok()) return batch.status();
  if (batch->responses.size() != expected) {
    return Status(StatusCode::kCorruption, "batch response count mismatch");
  }
  return std::move(batch->responses);
}

std::vector<std::span<const Request>> ChunkBatch(std::span<const Request> ops,
                                                 std::size_t max_bytes) {
  std::vector<std::span<const Request>> chunks;
  std::size_t begin = 0;
  std::size_t current_bytes = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t op_bytes = SliceSize(ops[i].EncodedSize());
    if (i > begin && current_bytes + op_bytes > max_bytes) {
      chunks.push_back(ops.subspan(begin, i - begin));
      begin = i;
      current_bytes = 0;
    }
    current_bytes += op_bytes;
  }
  if (begin < ops.size()) chunks.push_back(ops.subspan(begin));
  return chunks;
}

}  // namespace zht
