// Wire codec tests. Every encoder's bytes are pinned: the size and MD5 of
// one fixed instance, so any change to the wire format fails here. Every
// decoder is held to bson::FieldReader's one rule: a required field that is
// absent or of a type it does not accept is Corruption, an absent optional
// field takes its default, an optional field of another type is Corruption,
// a ring point fits uint32, and an embedded record passes
// core::ValidateRecord. The last tests send such frames to running nodes:
// a malformed record, a ring weight above hashring::kMaxVnodes, and a
// client_join above it must each leave every node running and every ring
// as it was.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bson/codec.h"
#include "bson/field_reader.h"
#include "cluster/cluster.h"
#include "cluster/messages.h"
#include "cluster/node_server.h"
#include "common/bytes.h"
#include "core/record.h"
#include "gossip/messages.h"
#include "hashring/md5.h"
#include "hashring/ring.h"
#include "net/client_proto.h"
#include "net/frame.h"
#include "rebalance/messages.h"

namespace hotman {
namespace {

using bson::Document;
using bson::Type;
using bson::Value;

// --- fixed instances ---------------------------------------------------------

Document FixedRecord() {
  const std::array<std::uint8_t, bson::ObjectId::kSize> id = {
      0x65, 0x1f, 0x2e, 0x3d, 0x4c, 0x5b, 0x6a, 0x79, 0x88, 0x97, 0xa6, 0xb5};
  return core::MakeRecord(bson::ObjectId(id), "user:42", ToBytes("hello"),
                          /*is_copy=*/false, /*deleted=*/false,
                          /*timestamp=*/1234567, "db1:19870");
}

cluster::GetAckMsg RecordAck() {
  cluster::GetAckMsg ack;
  ack.req = 4245;
  ack.ok = true;
  ack.found = true;
  ack.record = FixedRecord();
  ack.queue_micros = 3;
  ack.service_micros = 5;
  return ack;
}

cluster::GetAckMsg DigestAck() {
  cluster::GetAckMsg ack;
  ack.req = 4246;
  ack.ok = true;
  ack.found = true;
  ack.digest = true;
  ack.digest_ts = 1234567;
  ack.digest_origin = "db1:19870";
  ack.queue_micros = 3;
  ack.service_micros = 5;
  return ack;
}

gossip::EndpointStateUpdate FixedState() {
  return gossip::EndpointStateUpdate{
      "db1:19870", 3, {{"heartbeat", {"17", 17}}, {"vnodes", {"128", 2}}}};
}

net::Message FixedFrameMessage() {
  net::Message msg;
  msg.from = "db1:19870";
  msg.to = "db2:19870";
  msg.type = cluster::kMsgPutAck;
  msg.sent_at = 1234;
  msg.body = cluster::EncodePutAck(cluster::PutAckMsg{4243, true, "", 17, 29});
  return msg;
}

/// The envelope document of FixedFrameMessage() (the frame minus its prefix).
Document EnvelopeOf(const net::Message& msg) {
  std::string frame;
  net::EncodeFrame(msg, &frame);
  Document envelope;
  EXPECT_TRUE(bson::Decode(std::string_view(frame).substr(net::kFrameHeaderBytes),
                           &envelope)
                  .ok());
  return envelope;
}

// --- one decoder, described -------------------------------------------------

/// The types a field accepts (kRecord: a document core::ValidateRecord
/// accepts).
enum class Kind { kString, kBool, kInt64, kNumber, kBinary, kDocument, kArray, kRecord };

bool Accepts(Kind kind, Type type) {
  switch (kind) {
    case Kind::kString:
      return type == Type::kString;
    case Kind::kBool:
      return type == Type::kBool;
    case Kind::kInt64:
      return type == Type::kInt64;
    case Kind::kNumber:
      return type == Type::kDouble || type == Type::kInt32 || type == Type::kInt64;
    case Kind::kBinary:
      return type == Type::kBinary;
    case Kind::kDocument:
    case Kind::kRecord:
      return type == Type::kDocument;
    case Kind::kArray:
      return type == Type::kArray;
  }
  return false;
}

/// A field by path: "a.0.b" is field b of element 0 of array field a.
struct Required {
  std::string path;
  Kind kind;
};

/// An optional field and what the re-encoded message holds when it is
/// absent (nullopt: the encoder leaves it out).
struct Optional {
  std::string path;
  std::optional<Value> reencoded;
};

struct Decoder {
  std::string name;
  Document wire;  ///< the fixed instance, encoded
  /// Decodes, then encodes the result again.
  std::function<Result<Document>(const Document&)> roundtrip;
  std::vector<Required> required;
  std::vector<Optional> optional;
};

/// Decode-then-encode for a Decode*/Encode* pair.
template <typename Decode, typename Encode>
std::function<Result<Document>(const Document&)> RoundTrip(Decode decode, Encode encode) {
  return [decode, encode](const Document& doc) -> Result<Document> {
    auto decoded = decode(doc);
    if (!decoded.ok()) return decoded.status();
    return encode(*decoded);
  };
}

Result<Document> EnvelopeRoundTrip(const Document& envelope) {
  net::Message msg;
  Status s = net::DecodeEnvelope(bson::EncodeToString(envelope), &msg);
  if (!s.ok()) return s;
  return EnvelopeOf(msg);
}

std::vector<Required> GossipStateFields(const std::string& at) {
  return {{at, Kind::kArray},
          {at + ".0", Kind::kDocument},
          {at + ".0.ep", Kind::kString},
          {at + ".0.gen", Kind::kNumber},
          {at + ".0.entries", Kind::kArray},
          {at + ".0.entries.0", Kind::kDocument},
          {at + ".0.entries.0.k", Kind::kString},
          {at + ".0.entries.0.v", Kind::kString},
          {at + ".0.entries.0.ver", Kind::kNumber}};
}

std::vector<Required> GossipDigestFields(const std::string& at) {
  return {{at, Kind::kArray},
          {at + ".0", Kind::kDocument},
          {at + ".0.ep", Kind::kString},
          {at + ".0.gen", Kind::kNumber},
          {at + ".0.maxv", Kind::kNumber}};
}

std::vector<Decoder> AllDecoders() {
  using namespace cluster;
  using namespace net;
  using namespace rebalance;
  using namespace gossip;
  const Optional q_us{"q_us", Value(std::int64_t{0})};
  const Optional s_us{"s_us", Value(std::int64_t{0})};
  std::vector<Decoder> all;
  all.push_back({"put_replica", EncodePutReplica(PutReplicaMsg{4242, FixedRecord()}),
                 RoundTrip(DecodePutReplica, EncodePutReplica),
                 {{"req", Kind::kInt64}, {"doc", Kind::kRecord}},
                 {}});
  all.push_back({"put_ack", EncodePutAck(PutAckMsg{4243, true, "", 17, 29}),
                 RoundTrip(DecodePutAck, EncodePutAck),
                 {{"req", Kind::kInt64}, {"ok", Kind::kBool}, {"err", Kind::kString}},
                 {q_us, s_us}});
  all.push_back({"get_replica", EncodeGetReplica(GetReplicaMsg{4244, "user:42", true}),
                 RoundTrip(DecodeGetReplica, EncodeGetReplica),
                 {{"req", Kind::kInt64}, {"key", Kind::kString}},
                 {{"dig", std::nullopt}}});
  all.push_back({"get_ack", EncodeGetAck(RecordAck()),
                 RoundTrip(DecodeGetAck, EncodeGetAck),
                 {{"req", Kind::kInt64},
                  {"ok", Kind::kBool},
                  {"found", Kind::kBool},
                  {"doc", Kind::kRecord},
                  {"err", Kind::kString}},
                 {q_us, s_us, {"dig", std::nullopt}}});
  all.push_back({"get_ack (digest)", EncodeGetAck(DigestAck()),
                 RoundTrip(DecodeGetAck, EncodeGetAck),
                 {{"req", Kind::kInt64},
                  {"ok", Kind::kBool},
                  {"found", Kind::kBool},
                  {"err", Kind::kString}},
                 {q_us,
                  s_us,
                  {"dts", Value(std::int64_t{0})},
                  {"dor", Value(std::string())}}});
  all.push_back(
      {"hint_store", EncodeHintStore(HintStoreMsg{4247, "db3:19870", FixedRecord()}),
       RoundTrip(DecodeHintStore, EncodeHintStore),
       {{"req", Kind::kInt64}, {"target", Kind::kString}, {"doc", Kind::kRecord}},
       {}});
  all.push_back({"node_added", EncodeMembership(MembershipMsg{"db4:19870", 128}),
                 RoundTrip(DecodeMembership, EncodeMembership),
                 {{"node", Kind::kString}},
                 {{"vnodes", Value(std::int32_t{0})}}});
  all.push_back({"ae_digest",
                 EncodeAeDigest(AeDigestMsg{{{"user:42", 1234567, "db1:19870"},
                                             {"user:43", 1234568, "db2:19870"}}}),
                 RoundTrip(DecodeAeDigest, EncodeAeDigest),
                 {{"entries", Kind::kArray},
                  {"entries.0", Kind::kDocument},
                  {"entries.0.k", Kind::kString},
                  {"entries.0.ts", Kind::kInt64},
                  {"entries.0.o", Kind::kString}},
                 {}});
  all.push_back({"ae_digest (partial)",
                 EncodeAeDigest(AeDigestMsg{{{"user:42", 1234567, "db1:19870"}}, true}),
                 RoundTrip(DecodeAeDigest, EncodeAeDigest),
                 {{"entries", Kind::kArray},
                  {"entries.0", Kind::kDocument},
                  {"entries.0.k", Kind::kString},
                  {"entries.0.ts", Kind::kInt64},
                  {"entries.0.o", Kind::kString}},
                 {{"p", std::nullopt}}});
  all.push_back({"ae_request", EncodeAeRequest(AeRequestMsg{{"user:42", "user:43"}}),
                 RoundTrip(DecodeAeRequest, EncodeAeRequest),
                 {{"keys", Kind::kArray}, {"keys.1", Kind::kString}},
                 {}});
  all.push_back({"client_put", EncodeClientPut(ClientPutMsg{4250, "user:42", ToBytes("hello")}),
                 RoundTrip(DecodeClientPut, EncodeClientPut),
                 {{"req", Kind::kInt64}, {"key", Kind::kString}, {"val", Kind::kBinary}},
                 {}});
  all.push_back({"client_put_ack", EncodeClientAck(ClientAckMsg{4251, false, "Timeout: put"}),
                 RoundTrip(DecodeClientAck, EncodeClientAck),
                 {{"req", Kind::kInt64}, {"ok", Kind::kBool}, {"err", Kind::kString}},
                 {}});
  all.push_back({"client_get", EncodeClientGet(ClientGetMsg{4252, "user:42"}),
                 RoundTrip(DecodeClientGet, EncodeClientGet),
                 {{"req", Kind::kInt64}, {"key", Kind::kString}},
                 {}});
  all.push_back({"client_get_ack",
                 EncodeClientGetAck(ClientGetAckMsg{4253, true, true, ToBytes("hello"), ""}),
                 RoundTrip(DecodeClientGetAck, EncodeClientGetAck),
                 {{"req", Kind::kInt64},
                  {"ok", Kind::kBool},
                  {"found", Kind::kBool},
                  {"val", Kind::kBinary},
                  {"err", Kind::kString}},
                 {}});
  all.push_back({"client_stats_ack",
                 EncodeClientStatsAck(ClientStatsAckMsg{4254, "{\"counters\":{}}"}),
                 RoundTrip(DecodeClientStatsAck, EncodeClientStatsAck),
                 {{"req", Kind::kInt64}, {"json", Kind::kString}},
                 {}});
  all.push_back({"client_join", EncodeClientJoin(ClientJoinMsg{4255, "db4:19870", 256, 0.5}),
                 RoundTrip(DecodeClientJoin, EncodeClientJoin),
                 {{"req", Kind::kInt64},
                  {"node", Kind::kString},
                  {"vnodes", Kind::kInt64},
                  {"capacity", Kind::kNumber}},
                 {}});
  all.push_back(
      {"range_digest",
       EncodeRangeDigest(RangeDigestMsg{"t-1", {{10, 20}, {4000000000u, 5}}, 7}),
       RoundTrip(DecodeRangeDigest, EncodeRangeDigest),
       {{"id", Kind::kString},
        {"arcs", Kind::kArray},
        {"arcs.1", Kind::kDocument},
        {"arcs.1.s", Kind::kNumber},
        {"arcs.1.e", Kind::kNumber}},
       {{"total", Value(std::int64_t{0})}}});
  all.push_back({"range_ack", EncodeRangeAck(RangeAckMsg{"t-1", true, {12345, "user:42"}}),
                 RoundTrip(DecodeRangeAck, EncodeRangeAck),
                 {{"id", Kind::kString},
                  {"ok", Kind::kBool},
                  {"wm_p", Kind::kNumber},
                  {"wm_k", Kind::kString}},
                 {}});
  all.push_back(
      {"range_push", EncodeRangePush(RangePushMsg{"t-1", {FixedRecord()}, {12345, "user:42"}}),
       RoundTrip(DecodeRangePush, EncodeRangePush),
       {{"id", Kind::kString},
        {"recs", Kind::kArray},
        {"recs.0", Kind::kRecord},
        {"wm_p", Kind::kNumber},
        {"wm_k", Kind::kString}},
       {}});
  all.push_back({"transfer_done", EncodeTransferDone(TransferDoneMsg{"t-1"}),
                 RoundTrip(DecodeTransferDone, EncodeTransferDone),
                 {{"id", Kind::kString}},
                 {}});
  all.push_back({"gossip_syn",
                 EncodeSyn(SynMessage{{{"db1:19870", 3, 17}, {"db2:19870", 4, 9}}}),
                 RoundTrip(DecodeSyn, EncodeSyn), GossipDigestFields("digests"), {}});
  std::vector<Required> ack1_fields = GossipStateFields("states");
  for (Required& f : GossipDigestFields("requests")) ack1_fields.push_back(f);
  all.push_back({"gossip_ack1",
                 EncodeAck1(Ack1Message{{FixedState()}, {{"db2:19870", 4, 9}}}),
                 RoundTrip(DecodeAck1, EncodeAck1), ack1_fields, {}});
  all.push_back({"gossip_ack2", EncodeAck2(Ack2Message{{FixedState()}}),
                 RoundTrip(DecodeAck2, EncodeAck2), GossipStateFields("states"), {}});
  all.push_back({"frame envelope", EnvelopeOf(FixedFrameMessage()), EnvelopeRoundTrip,
                 {{"f", Kind::kString}, {"t", Kind::kString}, {"y", Kind::kString}},
                 {{"s", Value(std::int64_t{0})}, {"b", Value(Document())}}});
  return all;
}

/// `doc` with the field at `path` set to `value`, or removed when `value`
/// is empty. A path ending in an index sets that array element.
Document Edited(Document doc, std::string_view path, const std::optional<Value>& value) {
  Document* at = &doc;
  while (true) {
    const std::size_t dot = path.find('.');
    const std::string name(path.substr(0, dot));
    if (dot == std::string_view::npos) {
      if (value.has_value()) {
        at->Set(name, *value);
      } else {
        at->Remove(name);
      }
      return doc;
    }
    path = path.substr(dot + 1);
    Value* child = at->GetMutable(name);
    EXPECT_NE(child, nullptr) << name;
    if (child == nullptr) return doc;
    if (!child->is_array()) {
      at = &child->as_document();
      continue;
    }
    const std::size_t next = path.find('.');
    Value& element = child->as_array().at(std::stoul(std::string(path.substr(0, next))));
    if (next == std::string_view::npos) {
      element = *value;
      return doc;
    }
    path = path.substr(next + 1);
    at = &element.as_document();
  }
}

bool IsElement(const std::string& path) {
  return std::isdigit(static_cast<unsigned char>(path.back())) != 0;
}

/// One value of every BSON type a decoder might meet.
std::vector<Value> OneOfEachType() {
  return {Value(1.5),           Value("x"),          Value(Document()),
          Value(bson::Array()), Value(bson::Binary(ToBytes("b"))),
          Value(true),          Value(std::int32_t{1}), Value(std::int64_t{1}),
          Value()};
}

// --- pinned wire bytes ------------------------------------------------------

struct Pin {
  const char* name;
  std::string bytes;
  std::size_t size;
  const char* md5;
};

TEST(WireCodecTest, EncodersWriteThePinnedBytes) {
  std::string frame;
  net::EncodeFrame(FixedFrameMessage(), &frame);
  const std::vector<Decoder> decoders = AllDecoders();
  auto body = [&decoders](const char* name) {
    for (const Decoder& d : decoders) {
      if (d.name == name) return bson::EncodeToString(d.wire);
    }
    ADD_FAILURE() << "no decoder " << name;
    return std::string();
  };
  // Recorded from the encoders as they were when this test was written;
  // a failure here is a wire-format change.
  const std::vector<Pin> pins = {
      {"put_replica", body("put_replica"), 145, "cce6f81f604bc177dd13f040a55421e3"},
      {"put_ack", body("put_ack"), 61, "3213858096e0695f6b2ee5d67b8d36e7"},
      {"get_replica", body("get_replica"), 41, "4af3287010fc7d65082b3c6636a8dc70"},
      {"get_ack", body("get_ack"), 196, "03945f7dece22e317ed96e4db7bca79b"},
      {"get_ack (digest)", body("get_ack (digest)"), 107, "e67655dcfd98ec1f76e279fa6f13dedd"},
      {"hint_store", body("hint_store"), 167, "99ebb850e819759446a7b9d9fe1249db"},
      {"node_added", body("node_added"), 37, "1f1c6e4c9f0da2325bfccfcf5ab35266"},
      {"ae_digest", body("ae_digest"), 123, "4f7b520fe14bc0b25a52722692f52a45"},
      {"ae_digest (partial)", body("ae_digest (partial)"), 75,
       "1395c9f008295cd7487d7898984dc57c"},
      {"ae_request", body("ae_request"), 46, "05ba951df2eeddfdebc213efd178a858"},
      {"client_put", body("client_put"), 50, "12041b858f76edf7e90dd043272f54a2"},
      {"client_put_ack", body("client_put_ack"), 45, "b9712ea39d047a60f35450231b275f51"},
      {"client_get", body("client_get"), 35, "ae86feebc69b42081dcf30e123314a77"},
      {"client_get_ack", body("client_get_ack"), 56, "13e88ee5a1d7b6de34f0d1f2b3fe29e0"},
      {"client_stats_ack", body("client_stats_ack"), 44, "4a02c14f568a12fefca5efa8579d7810"},
      {"client_join", body("client_join"), 72, "dbd2e98e8db56eca0b29bc72694db84c"},
      {"range_digest", body("range_digest"), 103, "d7a8366fba6551b95bd54103c2228d5b"},
      {"range_ack", body("range_ack"), 54, "a5464154ad107825a56a6a37e7480f3c"},
      {"range_push", body("range_push"), 185, "f20dffef28a6bba5492f251f869db6eb"},
      {"transfer_done", body("transfer_done"), 17, "257e146c8f7339ea4b72974e6f6e8378"},
      {"gossip_syn", body("gossip_syn"), 125, "75af7f4af867b84049e7cf05daf572ae"},
      {"gossip_ack1", body("gossip_ack1"), 233, "0ae95dbe635dd1d8c47db18b2e7877e7"},
      {"gossip_ack2", body("gossip_ack2"), 165, "4b9b608c0c44383eafe20ada0a9529dd"},
      {"frame", frame, 133, "a4c728610ddda881b3eb70561d2cf4d7"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(pin.bytes.size(), pin.size);
    EXPECT_EQ(hashring::Md5::HexDigest(pin.bytes), pin.md5);
  }
}

// --- every decoder, one rule ------------------------------------------------

TEST(WireCodecTest, PinnedInstancesRoundTrip) {
  for (const Decoder& d : AllDecoders()) {
    SCOPED_TRACE(d.name);
    Result<Document> again = d.roundtrip(d.wire);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, d.wire);
  }
}

TEST(WireCodecTest, MissingRequiredFieldIsCorruption) {
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      if (IsElement(field.path)) continue;  // an element cannot be absent
      SCOPED_TRACE(d.name + " without " + field.path);
      Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, std::nullopt));
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
    }
  }
}

TEST(WireCodecTest, RequiredFieldOfAnotherTypeIsCorruption) {
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      for (const Value& value : OneOfEachType()) {
        if (Accepts(field.kind, value.type())) continue;
        SCOPED_TRACE(d.name + " with " + field.path + " a " + bson::TypeName(value.type()));
        Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, value));
        EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
      }
    }
  }
}

TEST(WireCodecTest, RequiredFieldKeepsEveryTypeItAccepts) {
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      // A document's own fields are checked one by one above.
      if (field.kind == Kind::kDocument || field.kind == Kind::kRecord) continue;
      for (const Value& value : OneOfEachType()) {
        if (!Accepts(field.kind, value.type())) continue;
        SCOPED_TRACE(d.name + " with " + field.path + " a " + bson::TypeName(value.type()));
        Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, value));
        EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
      }
    }
  }
}

TEST(WireCodecTest, AbsentOptionalFieldTakesItsDefault) {
  for (const Decoder& d : AllDecoders()) {
    for (const Optional& field : d.optional) {
      SCOPED_TRACE(d.name + " without " + field.path);
      Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, std::nullopt));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(*decoded, Edited(d.wire, field.path, field.reencoded));
    }
  }
}

TEST(WireCodecTest, OptionalFieldOfAnotherTypeIsCorruption) {
  for (const Decoder& d : AllDecoders()) {
    for (const Optional& field : d.optional) {
      const Type type = field.reencoded.has_value() ? field.reencoded->type() : Type::kBool;
      for (const Value& value : OneOfEachType()) {
        const bool number = type == Type::kInt32 || type == Type::kInt64;
        if (value.type() == type || (number && value.is_number())) continue;
        SCOPED_TRACE(d.name + " with " + field.path + " a " + bson::TypeName(value.type()));
        Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, value));
        EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
      }
    }
  }
}

TEST(WireCodecTest, RejectionNamesTheField) {
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      std::string name = field.path;
      while (IsElement(name)) name = name.substr(0, name.rfind('.'));
      name = name.substr(name.rfind('.') + 1);
      SCOPED_TRACE(d.name + " with " + field.path + " a null");
      Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, Value()));
      EXPECT_NE(decoded.status().message().find(name), std::string::npos)
          << decoded.status().ToString();
    }
  }
}

TEST(WireCodecTest, RingPointOutsideUint32IsCorruption) {
  const std::int64_t kTop = std::int64_t{1} << 32;
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      const std::string leaf = field.path.substr(field.path.rfind('.') + 1);
      if (leaf != "s" && leaf != "e" && leaf != "wm_p") continue;
      SCOPED_TRACE(d.name + " " + field.path);
      for (const Value& bad : {Value(std::int64_t{-1}), Value(kTop), Value(-1.0),
                               Value(static_cast<double>(kTop))}) {
        EXPECT_TRUE(d.roundtrip(Edited(d.wire, field.path, bad)).status().IsCorruption())
            << bson::TypeName(bad.type());
      }
      const Value top(kTop - 1);
      Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, top));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(*decoded, Edited(d.wire, field.path, top));
    }
  }
}

TEST(WireCodecTest, RecordThatValidateRecordRejectsIsCorruption) {
  Document no_key = FixedRecord();
  no_key.Remove(core::kFieldSelfKey);
  Document int_key = FixedRecord();
  int_key.Set(core::kFieldSelfKey, Value(std::int64_t{42}));
  Document empty_key = FixedRecord();
  empty_key.Set(core::kFieldSelfKey, Value(""));
  Document no_ts = FixedRecord();
  no_ts.Remove(core::kFieldTimestamp);
  for (const Decoder& d : AllDecoders()) {
    for (const Required& field : d.required) {
      if (field.kind != Kind::kRecord) continue;
      for (const Document& bad : {Document(), no_key, int_key, empty_key, no_ts}) {
        ASSERT_FALSE(core::ValidateRecord(bad).ok());
        SCOPED_TRACE(d.name + " " + field.path);
        Result<Document> decoded = d.roundtrip(Edited(d.wire, field.path, Value(bad)));
        EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
      }
    }
  }
}

TEST(WireCodecTest, MembershipVnodesOutsideTheBoundIsCorruption) {
  const Document notice = cluster::EncodeMembership({"db4:19870", 128});
  auto with = [&notice](Value vnodes) {
    return cluster::DecodeMembership(Edited(notice, "vnodes", vnodes));
  };
  EXPECT_TRUE(with(Value(hashring::kMaxVnodes + 1)).status().IsCorruption());
  EXPECT_TRUE(with(Value(-1)).status().IsCorruption());
  EXPECT_TRUE(with(Value(std::int64_t{1} << 33)).status().IsCorruption());
  Result<cluster::MembershipMsg> at_bound = with(Value(hashring::kMaxVnodes));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(at_bound->vnodes, hashring::kMaxVnodes);
}

// --- the reader itself ------------------------------------------------------

TEST(FieldReaderTest, KeepsTheFirstFailureNamingMessageAndField) {
  const Document doc{{"a", Value("x")}, {"b", Value(std::int32_t{7})}};
  bson::FieldReader r(doc, "probe");
  EXPECT_EQ(r.String("a"), "x");
  EXPECT_EQ(r.Int64("b"), 0);  // an int32 is not an int64
  EXPECT_EQ(r.Number("b"), 0);  // after a failure every read is a zero value
  EXPECT_EQ(r.String("missing"), "");
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_EQ(r.status().message(), "probe: b: is int32, wants int64");
}

TEST(FieldReaderTest, DoubleOutsideInt64IsMalformedNotUndefined) {
  for (double bad : {std::nan(""), 1e19, -1e19, std::numeric_limits<double>::infinity()}) {
    const Document doc{{"n", Value(bad)}};
    bson::FieldReader r(doc, "probe");
    EXPECT_EQ(r.NumberOr("n", 5), 5);
    EXPECT_TRUE(r.status().IsCorruption()) << bad;
  }
  const Document doc{{"n", Value(-2.9)}};
  bson::FieldReader r(doc, "probe");
  EXPECT_EQ(r.Number("n"), -2);  // truncates toward zero, as NumberAsInt64 does
  EXPECT_TRUE(r.ok());
}

// --- hostile frames against running nodes -----------------------------------

constexpr const char* kDb1 = "db1:19870";
constexpr const char* kDb2 = "db2:19870";

void SendFrom(cluster::Cluster* sim, const char* from, const char* type,
              Document body) {
  net::Message msg;
  msg.from = from;
  msg.to = kDb1;
  msg.type = type;
  msg.body = std::move(body);
  sim->network()->Send(std::move(msg));
}

/// Each node's ring as (node, vnode count) pairs.
std::vector<std::vector<std::pair<std::string, int>>> Rings(cluster::Cluster* sim) {
  std::vector<std::vector<std::pair<std::string, int>>> rings;
  for (cluster::StorageNode* node : sim->nodes()) {
    rings.emplace_back();
    for (const std::string& member : node->ring().Nodes()) {
      rings.back().emplace_back(member, node->ring().VnodeCount(member));
    }
  }
  return rings;
}

TEST(HostileFrameTest, MalformedRecordsLeaveTheNodeServing) {
  cluster::ClusterConfig config = cluster::ClusterConfig::Uniform(3);
  config.read_quorum = 3;  // the read stays pending until db2 answers
  cluster::Cluster sim(config, /*seed=*/31);
  ASSERT_TRUE(sim.Start().ok());
  ASSERT_TRUE(sim.PutSync("user:42", ToBytes("v1")).ok());

  const Document empty;
  Document int_key = FixedRecord();
  int_key.Set(core::kFieldSelfKey, Value(std::int64_t{42}));
  SendFrom(&sim, kDb2, cluster::kMsgPutReplica,
           cluster::EncodePutReplica({7, empty}));
  SendFrom(&sim, kDb2, cluster::kMsgPutReplica,
           cluster::EncodePutReplica({8, int_key}));
  SendFrom(&sim, kDb2, cluster::kMsgHintStore,
           cluster::EncodeHintStore({9, kDb1, empty}));
  SendFrom(&sim, kDb2, rebalance::kMsgRangePush,
           rebalance::EncodeRangePush({"t-1", {empty}, {1, "user:42"}}));
  // A forged get_ack for every request id db1's one shard could have given
  // the pending read.
  bool answered = false;
  sim.node(kDb1)->CoordinateGet("user:42", [&](const Result<Document>&) {
    answered = true;
  });
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    cluster::GetAckMsg forged;
    forged.req = seq << cluster::StorageNode::kShardBits;
    forged.ok = true;
    forged.found = true;
    SendFrom(&sim, kDb2, cluster::kMsgGetAck, cluster::EncodeGetAck(forged));
  }
  sim.RunFor(2 * kMicrosPerSecond);

  EXPECT_TRUE(answered);
  EXPECT_GE(sim.node(kDb1)->stats().get_acks_corrupt, 1u);
  EXPECT_TRUE(sim.PutSync("user:43", ToBytes("v2")).ok());
  Result<Bytes> got = sim.GetSync("user:43");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(*got), "v2");
}

TEST(HostileFrameTest, JoinAboveMaxVnodesIsRefusedAndLeavesEveryRing) {
  cluster::Cluster sim(cluster::ClusterConfig::Uniform(3), /*seed=*/32);
  ASSERT_TRUE(sim.Start().ok());
  cluster::NodeServer server(sim.node(kDb1), sim.network());
  server.Start();
  std::vector<net::ClientAckMsg> acks;
  sim.network()->RegisterEndpoint("ctl:1", [&acks](const net::Message& msg) {
    auto ack = net::DecodeClientAck(msg.body);
    if (ack.ok()) acks.push_back(*ack);
  });
  const auto before = Rings(&sim);

  const std::vector<net::ClientJoinMsg> joins = {
      {1, "db4:19870", hashring::kMaxVnodes + 1, 1.0},
      {2, "db4:19870", 128, 1000.0},  // 128 000 points once scaled
      {3, "db4:19870", 128, std::nan("")},
      {4, "db4:19870", 128, std::numeric_limits<double>::infinity()},
  };
  for (const net::ClientJoinMsg& join : joins) {
    net::Message msg;
    msg.from = "ctl:1";
    msg.to = kDb1;
    msg.type = net::kMsgClientJoin;
    msg.body = net::EncodeClientJoin(join);
    sim.network()->Send(std::move(msg));
  }
  sim.RunFor(5 * kMicrosPerSecond);

  ASSERT_EQ(acks.size(), joins.size());
  for (const net::ClientAckMsg& ack : acks) {
    EXPECT_FALSE(ack.ok) << ack.req;
    EXPECT_FALSE(ack.error.empty()) << ack.req;
  }
  EXPECT_EQ(Rings(&sim), before);
  sim.network()->UnregisterEndpoint("ctl:1");
}

TEST(HostileFrameTest, GossipedVnodesOutsideTheBoundLeaveTheRing) {
  cluster::Cluster sim(cluster::ClusterConfig::Uniform(3), /*seed=*/33);
  ASSERT_TRUE(sim.Start().ok());
  const auto before = Rings(&sim);
  for (const std::string& weight :
       {std::to_string(hashring::kMaxVnodes + 1), std::string("0"), std::string("12abc")}) {
    SCOPED_TRACE(weight);
    sim.node(kDb2)->gossiper()->SetLocalState(gossip::kStateVnodes, weight);
    sim.RunFor(10 * kMicrosPerSecond);
    EXPECT_EQ(Rings(&sim), before);
  }
}

}  // namespace
}  // namespace hotman
