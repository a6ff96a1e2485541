#include "net/frame.h"

#include <bit>
#include <cstring>

#include "bson/codec.h"
#include "bson/field_reader.h"

namespace hotman::net {

namespace {

constexpr char kFrom[] = "f";
constexpr char kTo[] = "t";
constexpr char kType[] = "y";
constexpr char kSentAt[] = "s";
constexpr char kBody[] = "b";

std::uint32_t ReadU32Le(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

void WriteU32Le(std::uint32_t v, char* p) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

void EncodeFrame(const Message& msg, std::string* out) {
  bson::Document envelope;
  envelope.Append(kFrom, msg.from);
  envelope.Append(kTo, msg.to);
  envelope.Append(kType, msg.type);
  envelope.Append(kSentAt, static_cast<std::int64_t>(msg.sent_at));
  envelope.Append(kBody, msg.body);

  const std::size_t header_at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  bson::Encode(envelope, out);
  const std::size_t payload_len = out->size() - header_at - kFrameHeaderBytes;
  WriteU32Le(static_cast<std::uint32_t>(payload_len), out->data() + header_at);
}

Status DecodeEnvelope(std::string_view payload, Message* msg) {
  bson::Document envelope;
  HOTMAN_RETURN_IF_ERROR(bson::Decode(payload, &envelope));
  bson::FieldReader r(envelope, "frame envelope");
  r.String(kFrom);
  r.String(kTo);
  r.String(kType);
  msg->sent_at = r.NumberOr(kSentAt, 0);
  r.OptionalDoc(kBody);
  if (!r.ok()) return r.status();
  // Every field has been checked and the envelope ends here, so the strings
  // and the body move out of it rather than being copied.
  msg->from = std::move(envelope.GetMutable(kFrom)->as_string());
  msg->to = std::move(envelope.GetMutable(kTo)->as_string());
  msg->type = std::move(envelope.GetMutable(kType)->as_string());
  bson::Value* body = envelope.GetMutable(kBody);
  msg->body = body != nullptr ? std::move(body->as_document()) : bson::Document();
  return Status::OK();
}

void FrameReader::Append(std::string_view data) {
  if (!error_.ok()) return;  // stream is dead, don't buffer more
  // Compact once the consumed prefix dominates the buffer, amortizing the
  // memmove over many frames instead of paying it per frame.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data.data(), data.size());
}

Status FrameReader::Next(Message* msg, bool* complete) {
  *complete = false;
  if (!error_.ok()) return error_;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Status::OK();
  const std::uint32_t payload_len = ReadU32Le(buf_.data() + pos_);
  if (payload_len > max_frame_bytes_) {
    error_ = Status::Corruption("frame length exceeds maximum");
    return error_;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < payload_len) return Status::OK();
  const std::string_view payload(buf_.data() + pos_ + kFrameHeaderBytes,
                                 payload_len);
  Status st = DecodeEnvelope(payload, msg);
  if (!st.ok()) {
    error_ = st;
    return error_;
  }
  pos_ += kFrameHeaderBytes + payload_len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  *complete = true;
  return Status::OK();
}

}  // namespace hotman::net
