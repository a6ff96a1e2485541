#include "net/client_proto.h"

#include "bson/field_reader.h"

namespace hotman::net {

namespace {

using bson::Document;
using bson::Value;

std::int64_t AsI64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

bson::Document EncodeClientPut(const ClientPutMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("key", Value(msg.key));
  doc.Append("val", Value(bson::Binary(msg.value)));
  return doc;
}

Result<ClientPutMsg> DecodeClientPut(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgClientPut);
  ClientPutMsg out;
  out.req = r.Int64("req");
  out.key = r.String("key");
  out.value = r.Binary("val");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeClientAck(const ClientAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("err", Value(msg.error));
  return doc;
}

Result<ClientAckMsg> DecodeClientAck(const bson::Document& doc) {
  bson::FieldReader r(doc, "client ack");
  ClientAckMsg out;
  out.req = r.Int64("req");
  out.ok = r.Bool("ok");
  out.error = r.String("err");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeClientGet(const ClientGetMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("key", Value(msg.key));
  return doc;
}

Result<ClientGetMsg> DecodeClientGet(const bson::Document& doc) {
  bson::FieldReader r(doc, "client request");
  ClientGetMsg out;
  out.req = r.Int64("req");
  out.key = r.String("key");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeClientGetAck(const ClientGetAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("found", Value(msg.found));
  doc.Append("val", Value(bson::Binary(msg.value)));
  doc.Append("err", Value(msg.error));
  return doc;
}

Result<ClientGetAckMsg> DecodeClientGetAck(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgClientGetAck);
  ClientGetAckMsg out;
  out.req = r.Int64("req");
  out.ok = r.Bool("ok");
  out.found = r.Bool("found");
  out.value = r.Binary("val");
  out.error = r.String("err");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeClientStatsAck(const ClientStatsAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("json", Value(msg.json));
  return doc;
}

Result<ClientStatsAckMsg> DecodeClientStatsAck(const bson::Document& doc) {
  bson::FieldReader r(doc, "client stats ack");
  ClientStatsAckMsg out;
  out.req = r.Int64("req");
  out.json = r.String("json");
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeClientJoin(const ClientJoinMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("node", Value(msg.node));
  doc.Append("vnodes", Value(msg.vnodes));
  doc.Append("capacity", Value(msg.capacity));
  return doc;
}

Result<ClientJoinMsg> DecodeClientJoin(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgClientJoin);
  ClientJoinMsg out;
  out.req = r.Int64("req");
  out.node = r.String("node");
  out.vnodes = r.Int64("vnodes");
  out.capacity = r.Double("capacity");
  if (!r.ok()) return r.status();
  return out;
}

}  // namespace hotman::net
