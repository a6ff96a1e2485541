#ifndef HOTMAN_BSON_FIELD_READER_H_
#define HOTMAN_BSON_FIELD_READER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "bson/document.h"
#include "common/bytes.h"
#include "common/status.h"

namespace hotman::bson {

/// Typed reads of one wire message's fields, so every decoder follows one
/// rule: a required field that is absent, or any field present with a type
/// its getter does not accept, makes the message malformed; an absent
/// optional field (the `…Or` getters) takes its fallback. The first bad
/// field is kept as one Status::Corruption naming the message and the
/// field, and every later read returns a zero value, so a decoder reads all
/// its fields and checks status() once. Nothing allocates unless a field is
/// bad: decoding runs on every frame.
class FieldReader {
 public:
  /// `doc` and `message` (the message's name, for errors) must outlive the
  /// reader.
  FieldReader(const Document& doc, const char* message)
      : doc_(doc), message_(message) {}

  const std::string& String(const char* name);
  bool Bool(const char* name);
  /// Any number, widened to double.
  double Double(const char* name);
  const Bytes& Binary(const char* name);
  const Document& Doc(const char* name);
  /// An array whose every element has type `element`.
  const bson::Array& Array(const char* name, Type element);
  /// Exactly a BSON int64.
  std::int64_t Int64(const char* name);
  /// Any number, as int64 (a double truncates toward zero and must fit).
  std::int64_t Number(const char* name);
  /// A number in [0, 2^32): a ring point.
  std::uint32_t Uint32(const char* name);

  std::string StringOr(const char* name, std::string fallback);
  bool BoolOr(const char* name, bool fallback);
  std::int64_t NumberOr(const char* name, std::int64_t fallback);
  /// The optional document `name`, or null when absent. It copies nothing:
  /// a decoder that owns the read document can move the checked field out
  /// (Document::GetMutable).
  const Document* OptionalDoc(const char* name);

  /// Fails the read on `name` for a reason its type does not show (a range,
  /// a record schema). Like a bad getter, it keeps only the first failure.
  void Reject(const char* name, std::string_view problem);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  /// The field when present with a type `accepts`; null otherwise, failing
  /// the read unless it is absent and optional.
  const Value* Find(const char* name, bool required,
                    bool (Value::*accepts)() const, const char* wanted);
  /// `v`'s number as int64, or `fallback` when `v` is null or a double out
  /// of int64's range (which fails the read).
  std::int64_t AsInt64(const char* name, const Value* v, std::int64_t fallback);

  const Document& doc_;
  const char* message_;
  Status status_;
};

}  // namespace hotman::bson

#endif  // HOTMAN_BSON_FIELD_READER_H_
