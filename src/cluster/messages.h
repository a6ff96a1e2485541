#ifndef HOTMAN_CLUSTER_MESSAGES_H_
#define HOTMAN_CLUSTER_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bson/document.h"
#include "common/clock.h"
#include "common/status.h"

namespace hotman::cluster {

/// Data-path and administrative message types exchanged between storage
/// nodes (the "normal message handling process" and "synchronization
/// message process" of §5.1's middle layer).
inline constexpr const char* kMsgPutReplica = "put_replica";
inline constexpr const char* kMsgPutAck = "put_ack";
inline constexpr const char* kMsgGetReplica = "get_replica";
inline constexpr const char* kMsgGetAck = "get_ack";
inline constexpr const char* kMsgHintStore = "hint_store";
inline constexpr const char* kMsgNodeRemoved = "node_removed";
inline constexpr const char* kMsgNodeAdded = "node_added";
inline constexpr const char* kMsgAeDigest = "ae_digest";
inline constexpr const char* kMsgAeRequest = "ae_request";

/// put_replica payload. `req` names what the put_ack answers: a pending
/// put, or a hint being written back to its target (a hint's id is a
/// request id of the shard that holds it). A fire-and-forget copy sends
/// req 0 and gets no ack.
struct PutReplicaMsg {
  std::uint64_t req = 0;
  bson::Document record;
};

/// put_ack payload. queue/service report the replica-side time breakdown
/// (its ServiceStation's admission decomposition) so the coordinator can
/// attribute request latency to queueing vs. service vs. network.
struct PutAckMsg {
  std::uint64_t req = 0;
  bool ok = false;
  std::string error;
  Micros queue_micros = 0;
  Micros service_micros = 0;
};

/// get_replica payload. With `digest_only` the replica answers with just
/// the stored version's (_ts, _origin) instead of the record — the cheap
/// probe the hot-read fan-out sends to the primary to verify the value it
/// fetched from a rotated replica.
struct GetReplicaMsg {
  std::uint64_t req = 0;
  std::string key;
  bool digest_only = false;
};

/// get_ack payload.
struct GetAckMsg {
  std::uint64_t req = 0;
  bool ok = false;      ///< the replica served the read (even if not found)
  bool found = false;
  bson::Document record;  ///< valid when found and not a digest reply
  std::string error;
  Micros queue_micros = 0;    ///< replica-side queue wait (see PutAckMsg)
  Micros service_micros = 0;  ///< replica-side service time
  // Digest replies (answering a digest_only probe) carry the version
  // instead of the payload.
  bool digest = false;
  std::int64_t digest_ts = 0;
  std::string digest_origin;
};

/// hint_store payload: the write plus the identity of the node it is for.
struct HintStoreMsg {
  std::uint64_t req = 0;
  std::string target;
  bson::Document record;
};

/// Membership change notice (synchronization messages from seed nodes).
struct MembershipMsg {
  std::string node;
  int vnodes = 0;  ///< for node_added
};

/// One entry of an anti-entropy digest: enough to decide which side holds
/// the newer version without shipping the payload.
struct AeDigestEntry {
  std::string key;
  std::int64_t timestamp = 0;
  std::string origin;
};

/// ae_digest payload: the keys (with versions) the sender holds that the
/// receiver should also hold. A production system would summarize these
/// with Merkle trees; at laptop scale the flat digest keeps the protocol
/// transparent and testable.
struct AeDigestMsg {
  std::vector<AeDigestEntry> entries;
  /// A partial digest names only the records it lists: the receiver
  /// reconciles those and skips the push of every shared record it did not
  /// mention. The version probe of a read served in place is one.
  bool partial = false;
};

/// ae_request payload: keys the requester wants pushed (the sender's
/// version is newer or the requester lacks them entirely).
struct AeRequestMsg {
  std::vector<std::string> keys;
};

bson::Document EncodePutReplica(const PutReplicaMsg& msg);
Result<PutReplicaMsg> DecodePutReplica(const bson::Document& doc);
bson::Document EncodePutAck(const PutAckMsg& msg);
Result<PutAckMsg> DecodePutAck(const bson::Document& doc);
bson::Document EncodeGetReplica(const GetReplicaMsg& msg);
Result<GetReplicaMsg> DecodeGetReplica(const bson::Document& doc);
bson::Document EncodeGetAck(const GetAckMsg& msg);
Result<GetAckMsg> DecodeGetAck(const bson::Document& doc);
bson::Document EncodeHintStore(const HintStoreMsg& msg);
Result<HintStoreMsg> DecodeHintStore(const bson::Document& doc);
bson::Document EncodeMembership(const MembershipMsg& msg);
Result<MembershipMsg> DecodeMembership(const bson::Document& doc);
bson::Document EncodeAeDigest(const AeDigestMsg& msg);
Result<AeDigestMsg> DecodeAeDigest(const bson::Document& doc);
bson::Document EncodeAeRequest(const AeRequestMsg& msg);
Result<AeRequestMsg> DecodeAeRequest(const bson::Document& doc);

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_MESSAGES_H_
