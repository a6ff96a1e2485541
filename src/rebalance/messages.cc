#include "rebalance/messages.h"

#include "bson/field_reader.h"
#include "core/record.h"

namespace hotman::rebalance {

namespace {

using bson::Document;
using bson::Type;
using bson::Value;

void AppendWatermark(Document* doc, const Watermark& wm) {
  doc->Append("wm_p", Value(static_cast<std::int64_t>(wm.point)));
  doc->Append("wm_k", Value(wm.key));
}

Watermark GetWatermark(bson::FieldReader& r) {
  return Watermark{r.Uint32("wm_p"), r.String("wm_k")};
}

}  // namespace

bson::Document EncodeRangeDigest(const RangeDigestMsg& msg) {
  Document doc;
  doc.Append("id", Value(msg.transfer_id));
  bson::Array arcs;
  arcs.reserve(msg.arcs.size());
  for (const hashring::Range& arc : msg.arcs) {
    Document item;
    item.Append("s", Value(static_cast<std::int64_t>(arc.start)));
    item.Append("e", Value(static_cast<std::int64_t>(arc.end)));
    arcs.emplace_back(std::move(item));
  }
  doc.Append("arcs", Value(std::move(arcs)));
  doc.Append("total", Value(static_cast<std::int64_t>(msg.total_records)));
  return doc;
}

Result<RangeDigestMsg> DecodeRangeDigest(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgRangeDigest);
  RangeDigestMsg out;
  out.transfer_id = r.String("id");
  for (const Value& arc : r.Array("arcs", Type::kDocument)) {
    bson::FieldReader a(arc.as_document(), "range_digest arc");
    out.arcs.push_back(hashring::Range{a.Uint32("s"), a.Uint32("e")});
    if (!a.ok()) return a.status();
  }
  out.total_records = r.NumberOr("total", 0);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeRangeAck(const RangeAckMsg& msg) {
  Document doc;
  doc.Append("id", Value(msg.transfer_id));
  doc.Append("ok", Value(msg.ok));
  AppendWatermark(&doc, msg.watermark);
  return doc;
}

Result<RangeAckMsg> DecodeRangeAck(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgRangeAck);
  RangeAckMsg out;
  out.transfer_id = r.String("id");
  out.ok = r.Bool("ok");
  out.watermark = GetWatermark(r);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeRangePush(const RangePushMsg& msg) {
  Document doc;
  doc.Append("id", Value(msg.transfer_id));
  bson::Array records;
  records.reserve(msg.records.size());
  for (const bson::Document& record : msg.records) {
    records.emplace_back(Value(record));
  }
  doc.Append("recs", Value(std::move(records)));
  AppendWatermark(&doc, msg.watermark);
  return doc;
}

Result<RangePushMsg> DecodeRangePush(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgRangePush);
  RangePushMsg out;
  out.transfer_id = r.String("id");
  for (const Value& record : r.Array("recs", Type::kDocument)) {
    // Only records core::ValidateRecord accepts go past the decoder.
    const Status valid = core::ValidateRecord(record.as_document());
    if (!valid.ok()) r.Reject("recs", valid.message());
    out.records.push_back(record.as_document());
  }
  out.watermark = GetWatermark(r);
  if (!r.ok()) return r.status();
  return out;
}

bson::Document EncodeTransferDone(const TransferDoneMsg& msg) {
  Document doc;
  doc.Append("id", Value(msg.transfer_id));
  return doc;
}

Result<TransferDoneMsg> DecodeTransferDone(const bson::Document& doc) {
  bson::FieldReader r(doc, kMsgTransferDone);
  TransferDoneMsg out;
  out.transfer_id = r.String("id");
  if (!r.ok()) return r.status();
  return out;
}

}  // namespace hotman::rebalance
