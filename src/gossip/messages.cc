#include "gossip/messages.h"

#include "bson/field_reader.h"

namespace hotman::gossip {

namespace {

using bson::Array;
using bson::Document;
using bson::Type;
using bson::Value;

Value EncodeDigest(const GossipDigest& digest) {
  Document doc;
  doc.Append("ep", digest.endpoint);
  doc.Append("gen", digest.generation);
  doc.Append("maxv", digest.max_version);
  return Value(std::move(doc));
}

Status DecodeDigests(const Array& items, std::vector<GossipDigest>* out) {
  for (const Value& item : items) {
    bson::FieldReader r(item.as_document(), "gossip digest");
    out->push_back(GossipDigest{r.String("ep"), r.Number("gen"), r.Number("maxv")});
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Value EncodeStateUpdate(const EndpointStateUpdate& update) {
  Document doc;
  doc.Append("ep", update.endpoint);
  doc.Append("gen", update.generation);
  Array entries;
  for (const auto& [key, entry] : update.entries) {
    Document e;
    e.Append("k", key);
    e.Append("v", entry.value);
    e.Append("ver", entry.version);
    entries.emplace_back(std::move(e));
  }
  doc.Append("entries", std::move(entries));
  return Value(std::move(doc));
}

Status DecodeStates(const Array& items, std::vector<EndpointStateUpdate>* out) {
  for (const Value& item : items) {
    bson::FieldReader r(item.as_document(), "gossip state");
    EndpointStateUpdate update{r.String("ep"), r.Number("gen"), {}};
    for (const Value& entry : r.Array("entries", Type::kDocument)) {
      bson::FieldReader e(entry.as_document(), "gossip state entry");
      update.entries.emplace_back(e.String("k"),
                                  VersionedEntry{e.String("v"), e.Number("ver")});
      if (!e.ok()) return e.status();
    }
    if (!r.ok()) return r.status();
    out->push_back(std::move(update));
  }
  return Status::OK();
}

Array EncodeDigests(const std::vector<GossipDigest>& digests) {
  Array out;
  out.reserve(digests.size());
  for (const GossipDigest& d : digests) out.push_back(EncodeDigest(d));
  return out;
}

Array EncodeStates(const std::vector<EndpointStateUpdate>& states) {
  Array out;
  out.reserve(states.size());
  for (const EndpointStateUpdate& s : states) out.push_back(EncodeStateUpdate(s));
  return out;
}

}  // namespace

bson::Document EncodeSyn(const SynMessage& msg) {
  Document doc;
  doc.Append("digests", EncodeDigests(msg.digests));
  return doc;
}

Result<SynMessage> DecodeSyn(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgGossipSyn);
  SynMessage out;
  HOTMAN_RETURN_IF_ERROR(
      DecodeDigests(r.Array("digests", Type::kDocument), &out.digests));
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeAck1(const Ack1Message& msg) {
  Document doc;
  doc.Append("states", EncodeStates(msg.states));
  doc.Append("requests", EncodeDigests(msg.requests));
  return doc;
}

Result<Ack1Message> DecodeAck1(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgGossipAck1);
  Ack1Message out;
  HOTMAN_RETURN_IF_ERROR(
      DecodeStates(r.Array("states", Type::kDocument), &out.states));
  HOTMAN_RETURN_IF_ERROR(
      DecodeDigests(r.Array("requests", Type::kDocument), &out.requests));
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeAck2(const Ack2Message& msg) {
  Document doc;
  doc.Append("states", EncodeStates(msg.states));
  return doc;
}

Result<Ack2Message> DecodeAck2(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgGossipAck2);
  Ack2Message out;
  HOTMAN_RETURN_IF_ERROR(
      DecodeStates(r.Array("states", Type::kDocument), &out.states));
  if (!r.ok()) return r.status();
  return out;
}

std::string FormatStateLine(const std::string& endpoint, const EndpointState& state) {
  auto entry_or = [&state](const char* key) -> std::string {
    const VersionedEntry* e = state.GetEntry(key);
    return e == nullptr ? "?" : e->value;
  };
  auto version_or = [&state](const char* key) -> std::int64_t {
    const VersionedEntry* e = state.GetEntry(key);
    return e == nullptr ? 0 : e->version;
  };
  std::string line = endpoint;
  line += "@";
  line += entry_or(kStateVnodes);
  line += ";bootGeneration:" + std::to_string(state.generation());
  line += ";heartbeat:" + entry_or(kStateHeartbeat) + "/" +
          std::to_string(version_or(kStateHeartbeat));
  return line;
}

}  // namespace hotman::gossip
