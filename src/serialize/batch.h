// BATCH envelope: N sub-requests (and their N sub-responses) carried in one
// wire frame. Batching amortizes the per-message network cost that §V shows
// dominates small KV operations — with connection caching a round-trip is
// cheap, but it is still one round-trip per op; a batch pays it once per
// many ops. The carrier is an ordinary Request/Response with op = kBatch
// and the packed sub-messages in `value`, so every transport and server
// that speaks the base envelope can forward a batch unchanged.
#pragma once

#include <span>
#include <vector>

#include "serialize/envelope.h"

namespace zht {

// A batch of sub-requests. Sub-requests keep their own seq/client_id (the
// append dedup window operates per sub-op, so a retransmitted batch never
// double-applies) and their own epoch/replica_index.
struct BatchRequest {
  std::vector<Request> ops;

  // varint count, then per op a length-delimited Request::Encode().
  std::string Encode() const;
  static Result<BatchRequest> Decode(std::string_view data);

  bool operator==(const BatchRequest&) const = default;
};

// Per-sub-request responses, in sub-request order. Sub-responses carry the
// full Response surface: a sub-op can individually REDIRECT (with
// piggybacked membership) while its siblings succeed.
struct BatchResponse {
  std::vector<Response> responses;

  std::string Encode() const;
  static Result<BatchResponse> Decode(std::string_view data);

  bool operator==(const BatchResponse&) const = default;
};

// Wraps sub-requests into the kBatch carrier (one frame on the wire).
Request PackBatchRequest(std::span<const Request> ops, std::uint64_t seq,
                         bool server_origin = false);

// Wraps sub-responses into the carrier Response.
Response PackBatchResponse(const BatchResponse& batch, std::uint64_t seq,
                           std::uint32_t epoch);

// Extracts sub-responses from a carrier Response. A carrier with a non-OK
// status and no payload is a batch-level failure (e.g. the peer could not
// decode the envelope) and surfaces as that status; a payload whose count
// differs from `expected` is corruption.
Result<std::vector<Response>> UnpackBatchResponse(const Response& carrier,
                                                  std::size_t expected);

// Greedily splits `ops` into consecutive chunks whose encoded payload stays
// under `max_bytes` (always at least one op per chunk, so oversized single
// ops still travel — the transport's own frame cap is the hard limit). The
// chunks view `ops`; sizes are computed, not encoded.
std::vector<std::span<const Request>> ChunkBatch(std::span<const Request> ops,
                                                 std::size_t max_bytes);

}  // namespace zht
