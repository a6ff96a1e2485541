#include "bson/field_reader.h"

#include <limits>

namespace hotman::bson {

namespace {

/// The zero value a failed read returns by reference.
template <typename T>
const T& Zero() {
  static const T zero;
  return zero;
}

}  // namespace

void FieldReader::Reject(const char* name, std::string_view problem) {
  if (!status_.ok()) return;
  status_ = Status::Corruption(std::string(message_) + ": " + name + ": " +
                               std::string(problem));
}

const Value* FieldReader::Find(const char* name, bool required,
                               bool (Value::*accepts)() const,
                               const char* wanted) {
  if (!status_.ok()) return nullptr;
  const Value* v = doc_.Get(name);
  if (v == nullptr) {
    if (required) Reject(name, "missing");
    return nullptr;
  }
  if (!(v->*accepts)()) {
    Reject(name, std::string("is ") + TypeName(v->type()) + ", wants " + wanted);
    return nullptr;
  }
  return v;
}

std::int64_t FieldReader::AsInt64(const char* name, const Value* v,
                                  std::int64_t fallback) {
  if (v == nullptr) return fallback;
  // Converting a double outside int64's range is undefined behaviour.
  constexpr double kLimit = 0x1p63;
  if (v->is_double() && !(v->as_double() >= -kLimit && v->as_double() < kLimit)) {
    Reject(name, "is a double out of int64 range");
    return fallback;
  }
  return v->NumberAsInt64();
}

const std::string& FieldReader::String(const char* name) {
  const Value* v = Find(name, true, &Value::is_string, "string");
  return v != nullptr ? v->as_string() : Zero<std::string>();
}

bool FieldReader::Bool(const char* name) {
  const Value* v = Find(name, true, &Value::is_bool, "bool");
  return v != nullptr && v->as_bool();
}

double FieldReader::Double(const char* name) {
  const Value* v = Find(name, true, &Value::is_number, "number");
  return v != nullptr ? v->NumberAsDouble() : 0.0;
}

const Bytes& FieldReader::Binary(const char* name) {
  const Value* v = Find(name, true, &Value::is_binary, "binary");
  return v != nullptr ? v->as_binary().data() : Zero<Bytes>();
}

const Document& FieldReader::Doc(const char* name) {
  const Value* v = Find(name, true, &Value::is_document, "document");
  return v != nullptr ? v->as_document() : Zero<Document>();
}

const Array& FieldReader::Array(const char* name, Type element) {
  const Value* v = Find(name, true, &Value::is_array, "array");
  if (v == nullptr) return Zero<bson::Array>();
  const bson::Array& items = v->as_array();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].type() != element) {
      Reject(name, "element " + std::to_string(i) + " is " +
                       TypeName(items[i].type()) + ", wants " + TypeName(element));
      return Zero<bson::Array>();
    }
  }
  return items;
}

std::int64_t FieldReader::Int64(const char* name) {
  const Value* v = Find(name, true, &Value::is_int64, "int64");
  return v != nullptr ? v->as_int64() : 0;
}

std::int64_t FieldReader::Number(const char* name) {
  return AsInt64(name, Find(name, true, &Value::is_number, "number"), 0);
}

std::uint32_t FieldReader::Uint32(const char* name) {
  const std::int64_t n = Number(name);
  if (n < 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    Reject(name, "is out of uint32 range");
    return 0;
  }
  return static_cast<std::uint32_t>(n);
}

std::string FieldReader::StringOr(const char* name, std::string fallback) {
  const Value* v = Find(name, false, &Value::is_string, "string");
  if (v == nullptr) return fallback;
  return v->as_string();
}

bool FieldReader::BoolOr(const char* name, bool fallback) {
  const Value* v = Find(name, false, &Value::is_bool, "bool");
  return v != nullptr ? v->as_bool() : fallback;
}

std::int64_t FieldReader::NumberOr(const char* name, std::int64_t fallback) {
  return AsInt64(name, Find(name, false, &Value::is_number, "number"), fallback);
}

const Document* FieldReader::OptionalDoc(const char* name) {
  const Value* v = Find(name, false, &Value::is_document, "document");
  return v != nullptr ? &v->as_document() : nullptr;
}

}  // namespace hotman::bson
