#ifndef HOTMAN_GOSSIP_MESSAGES_H_
#define HOTMAN_GOSSIP_MESSAGES_H_

#include <string>
#include <vector>

#include "bson/document.h"
#include "common/status.h"
#include "gossip/node_state.h"

namespace hotman::gossip {

/// Message type tags carried on the simulated network.
inline constexpr const char* kMsgGossipSyn = "GossipDigestSynMessage";
inline constexpr const char* kMsgGossipAck1 = "GossipDigestAck1Message";
inline constexpr const char* kMsgGossipAck2 = "GossipDigestAck2Message";

/// Digest of one endpoint's state: "node A collects states with key and
/// version and then sends it to node B".
struct GossipDigest {
  std::string endpoint;
  std::int64_t generation = 0;
  std::int64_t max_version = 0;
};

/// Full or delta state for one endpoint (shipped in Ack1/Ack2).
struct EndpointStateUpdate {
  std::string endpoint;
  std::int64_t generation = 0;
  std::vector<std::pair<std::string, VersionedEntry>> entries;
};

/// GossipDigestSynMessage: the opener of the push-pull exchange.
struct SynMessage {
  std::vector<GossipDigest> digests;
};

/// GossipDigestAck1Message: states B is newer on, plus the endpoints B
/// wants A's newer state for (each with the version B already has).
struct Ack1Message {
  std::vector<EndpointStateUpdate> states;
  std::vector<GossipDigest> requests;  ///< max_version = "send entries after this"
};

/// GossipDigestAck2Message: the states A sends back to satisfy B's requests.
struct Ack2Message {
  std::vector<EndpointStateUpdate> states;
};

/// BSON (de)serialization — gossip crosses the simulated network in the
/// same wire format as data.
bson::Document EncodeSyn(const SynMessage& msg);
Result<SynMessage> DecodeSyn(const bson::Document& doc);
bson::Document EncodeAck1(const Ack1Message& msg);
Result<Ack1Message> DecodeAck1(const bson::Document& doc);
bson::Document EncodeAck2(const Ack2Message& msg);
Result<Ack2Message> DecodeAck2(const bson::Document& doc);

/// Renders the paper's human-readable state line, without its load field:
/// "host@vnodes;bootGeneration:g;heartbeat:h/version".
std::string FormatStateLine(const std::string& endpoint, const EndpointState& state);

}  // namespace hotman::gossip

#endif  // HOTMAN_GOSSIP_MESSAGES_H_
