#include "cluster/messages.h"

#include "bson/field_reader.h"
#include "core/record.h"
#include "hashring/ring.h"

namespace hotman::cluster {

namespace {

using bson::Document;
using bson::Type;
using bson::Value;

std::int64_t AsI64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

/// A record from a peer. The message is malformed unless
/// core::ValidateRecord accepts it, so nothing past a decoder meets a record
/// the record accessors would abort on.
Document RecordField(bson::FieldReader& r, const char* name) {
  const Document& record = r.Doc(name);
  const Status valid = core::ValidateRecord(record);
  if (!valid.ok()) r.Reject(name, valid.message());
  return record;
}

}  // namespace

bson::Document EncodePutReplica(const PutReplicaMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("doc", Value(msg.record));
  return doc;
}

Result<PutReplicaMsg> DecodePutReplica(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgPutReplica);
  PutReplicaMsg out;
  out.req = r.Int64("req");
  out.record = RecordField(r, "doc");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodePutAck(const PutAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("err", Value(msg.error));
  doc.Append("q_us", Value(msg.queue_micros));
  doc.Append("s_us", Value(msg.service_micros));
  return doc;
}

Result<PutAckMsg> DecodePutAck(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgPutAck);
  PutAckMsg out;
  out.req = r.Int64("req");
  out.ok = r.Bool("ok");
  out.error = r.String("err");
  out.queue_micros = r.NumberOr("q_us", 0);
  out.service_micros = r.NumberOr("s_us", 0);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeGetReplica(const GetReplicaMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("key", Value(msg.key));
  // Only encoded when set, so pre-digest decoders never see the field.
  if (msg.digest_only) doc.Append("dig", Value(true));
  return doc;
}

Result<GetReplicaMsg> DecodeGetReplica(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgGetReplica);
  GetReplicaMsg out;
  out.req = r.Int64("req");
  out.key = r.String("key");
  out.digest_only = r.BoolOr("dig", false);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeGetAck(const GetAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("found", Value(msg.found));
  if (msg.found && !msg.digest) doc.Append("doc", Value(msg.record));
  doc.Append("err", Value(msg.error));
  doc.Append("q_us", Value(msg.queue_micros));
  doc.Append("s_us", Value(msg.service_micros));
  if (msg.digest) {
    doc.Append("dig", Value(true));
    doc.Append("dts", Value(msg.digest_ts));
    doc.Append("dor", Value(msg.digest_origin));
  }
  return doc;
}

Result<GetAckMsg> DecodeGetAck(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgGetAck);
  GetAckMsg out;
  out.req = r.Int64("req");
  out.ok = r.Bool("ok");
  out.found = r.Bool("found");
  out.error = r.String("err");
  out.queue_micros = r.NumberOr("q_us", 0);
  out.service_micros = r.NumberOr("s_us", 0);
  out.digest = r.BoolOr("dig", false);
  if (out.digest) {
    out.digest_ts = r.NumberOr("dts", 0);
    out.digest_origin = r.StringOr("dor", "");
  } else if (out.found) {
    out.record = RecordField(r, "doc");
  }
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeHintStore(const HintStoreMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("target", Value(msg.target));
  doc.Append("doc", Value(msg.record));
  return doc;
}

Result<HintStoreMsg> DecodeHintStore(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgHintStore);
  HintStoreMsg out;
  out.req = r.Int64("req");
  out.target = r.String("target");
  out.record = RecordField(r, "doc");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeMembership(const MembershipMsg& msg) {
  Document doc;
  doc.Append("node", Value(msg.node));
  doc.Append("vnodes", Value(static_cast<std::int32_t>(msg.vnodes)));
  return doc;
}

Result<MembershipMsg> DecodeMembership(const bson::Document& doc) {
  bson::FieldReader r(doc, "membership");
  MembershipMsg out;
  out.node = r.String("node");
  const std::int64_t vnodes = r.NumberOr("vnodes", 0);
  if (vnodes < 0 || vnodes > hashring::kMaxVnodes) {
    r.Reject("vnodes", "is out of [0, kMaxVnodes]");
  }
  if (!r.ok()) return r.status();
  out.vnodes = static_cast<int>(vnodes);
  return out;
}

bson::Document EncodeAeDigest(const AeDigestMsg& msg) {
  Document doc;
  bson::Array entries;
  entries.reserve(msg.entries.size());
  for (const AeDigestEntry& e : msg.entries) {
    Document item;
    item.Append("k", Value(e.key));
    item.Append("ts", Value(e.timestamp));
    item.Append("o", Value(e.origin));
    entries.emplace_back(std::move(item));
  }
  doc.Append("entries", Value(std::move(entries)));
  // Only encoded when set, so a full digest keeps its bytes.
  if (msg.partial) doc.Append("p", Value(true));
  return doc;
}

Result<AeDigestMsg> DecodeAeDigest(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgAeDigest);
  AeDigestMsg out;
  for (const Value& entry : r.Array("entries", Type::kDocument)) {
    bson::FieldReader e(entry.as_document(), "ae_digest entry");
    out.entries.push_back(AeDigestEntry{e.String("k"), e.Int64("ts"), e.String("o")});
    if (!e.ok()) return e.status();
  }
  out.partial = r.BoolOr("p", false);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeAeRequest(const AeRequestMsg& msg) {
  Document doc;
  bson::Array keys;
  keys.reserve(msg.keys.size());
  for (const std::string& key : msg.keys) keys.emplace_back(Value(key));
  doc.Append("keys", Value(std::move(keys)));
  return doc;
}

Result<AeRequestMsg> DecodeAeRequest(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgAeRequest);
  AeRequestMsg out;
  for (const Value& key : r.Array("keys", Type::kString)) {
    out.keys.push_back(key.as_string());
  }
  if (!r.ok()) return r.status();
  return out;
}

}  // namespace hotman::cluster
