// Request/Response envelopes: the messages ZHT sends on the wire. The paper
// encodes the operation indicator plus the key/value pair with Google
// Protocol Buffers (§III.G); we encode the same content with our wire codec.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace zht {

enum class OpCode : std::uint8_t {
  kInsert = 1,
  kLookup = 2,
  kRemove = 3,
  kAppend = 4,          // lock-free concurrent value modification (§III.I)
  kPing = 5,            // liveness probe / failure detection
  kMembershipPull = 6,  // fetch the current membership table
  kMembershipPush = 7,  // manager broadcast of an incremental delta
  // 8-11 are retired (an unsent REPLICATE and the old unverified migration
  // trio) and decode as kCorruption; never reuse them.
  kJoinRequest = 12,    // new node asks a manager to admit it
  kDepartRequest = 13,  // planned departure (maintenance)
  kBroadcast = 14,      // future-work broadcast primitive (§VI), implemented
  kMigrateOut = 15,     // manager → source server: push a partition away
  kRepair = 16,         // manager → owner: re-replicate a partition's chain
  kStats = 17,          // admin: fetch server counters (ops, entries, ...)
  kBatch = 18,          // BATCH envelope: N sub-requests in one frame
                        // (serialize/batch.h); response packs N sub-responses
  kDigest = 19,         // anti-entropy probe: compare partition digests
  // Partition transfer (rebuild and migration alike): the stream lands in
  // the destination's shadow store and is verified by digest at End.
  kTransferBegin = 20,  // source → destination: start a transfer stream
  kTransferData = 21,   // transfer payload (batched key/value pairs)
  kTransferEnd = 22,    // close stream; value carries the source digest
};

std::string_view OpCodeName(OpCode op);
// True for the wire values of the opcodes above; retired and unassigned
// values are false (Request::Decode rejects them as kCorruption).
bool IsKnownOpCode(std::uint64_t wire_value);

// Order-independent summary of a partition's contents, exchanged by the
// anti-entropy pass (kDigest) and verified at the end of a rebuild stream
// (kTransferEnd). `crc` is the XOR of one CRC32C per pair — chained over the
// key then the value, so "ab"/"c" and "a"/"bc" digest differently — which
// makes the digest insensitive to iteration order and cheap to compare.
struct PartitionDigest {
  std::uint64_t count = 0;  // live pairs
  std::uint32_t crc = 0;    // XOR of per-pair CRC32Cs

  // Folds one pair in.
  void Add(std::string_view key, std::string_view value);

  std::string Encode() const;
  static Result<PartitionDigest> Decode(std::string_view data);

  bool operator==(const PartitionDigest&) const = default;
};

struct Request {
  OpCode op = OpCode::kPing;
  std::uint64_t seq = 0;        // client-chosen; echoed in the response
  std::string key;
  std::string value;
  std::uint32_t epoch = 0;      // sender's membership-table epoch
  std::uint32_t partition = 0;  // explicit partition (migration/replication)
  std::uint8_t replica_index = 0;  // depth in the replication chain
  bool server_origin = false;      // server→server traffic
  std::uint64_t client_id = 0;     // random per-client token; with `seq` it
                                   // deduplicates retransmitted appends
                                   // (UDP retries would otherwise double-
                                   // apply the non-idempotent op)

  // Identity of this operation for at-most-once handling: retransmissions
  // of one logical op carry the same (client_id, seq, replica_index) and
  // hash to the same key; 0 means "not dedupable" (no client identity).
  // Shared by the server's dedup window and the dedup-aware history
  // checker, so both sides agree on what counts as a duplicate.
  std::uint64_t DedupKey() const;

  std::string Encode() const;
  static Result<Request> Decode(std::string_view data);

  bool operator==(const Request&) const = default;
};

struct Response {
  std::uint64_t seq = 0;
  std::int32_t status = 0;     // StatusCode::raw()
  std::string value;           // lookup payload
  std::uint32_t epoch = 0;     // responder's membership epoch
  std::string membership;      // serialized table (piggybacked on REDIRECT)
  std::string redirect_host;   // new owner, when status == kRedirect
  std::uint16_t redirect_port = 0;
  std::uint32_t retry_after_us = 0;  // admission control: with kUnavailable,
                                     // how long the shedding server suggests
                                     // the client back off before retrying

  Status status_as_object() const {
    return Status(static_cast<StatusCode>(status));
  }
  bool ok() const { return status == 0; }

  std::string Encode() const;
  static Result<Response> Decode(std::string_view data);

  bool operator==(const Response&) const = default;
};

}  // namespace zht
