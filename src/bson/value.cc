#include "bson/value.h"

#include <cstdio>
#include <cstdlib>

#include "bson/document.h"

namespace hotman::bson {

namespace {

[[noreturn]] void DieBadAccess(Type actual, const char* wanted) {
  std::fprintf(stderr, "bson::Value bad access: value is %s, accessor wants %s\n",
               TypeName(actual), wanted);
  std::abort();
}

/// Three-way compare for arithmetic values.
template <typename T>
int Cmp(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

const char* TypeName(Type type) {
  switch (type) {
    case Type::kDouble:
      return "double";
    case Type::kString:
      return "string";
    case Type::kDocument:
      return "document";
    case Type::kArray:
      return "array";
    case Type::kBinary:
      return "binary";
    case Type::kObjectId:
      return "objectId";
    case Type::kBool:
      return "bool";
    case Type::kDateTime:
      return "datetime";
    case Type::kNull:
      return "null";
    case Type::kInt32:
      return "int32";
    case Type::kInt64:
      return "int64";
  }
  return "unknown";
}

Value::Value() : rep_(NullT{}) {}
Value::Value(double v) : rep_(v) {}
Value::Value(std::string v) : rep_(std::move(v)) {}
Value::Value(std::string_view v) : rep_(std::string(v)) {}
Value::Value(const char* v) : rep_(std::string(v)) {}
Value::Value(bool v) : rep_(v) {}
Value::Value(std::int32_t v) : rep_(v) {}
Value::Value(std::int64_t v) : rep_(v) {}
Value::Value(Binary v) : rep_(std::move(v)) {}
Value::Value(ObjectId v) : rep_(v) {}
Value::Value(DateTime v) : rep_(v) {}
Value::Value(Document v) : rep_(std::make_unique<Document>(std::move(v))) {}
Value::Value(Array v) : rep_(std::make_unique<Array>(std::move(v))) {}

Value::Value(const Value& other) { *this = other; }

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  if (auto* doc = std::get_if<std::unique_ptr<Document>>(&other.rep_)) {
    rep_ = std::make_unique<Document>(**doc);
  } else if (auto* arr = std::get_if<std::unique_ptr<Array>>(&other.rep_)) {
    rep_ = std::make_unique<Array>(**arr);
  } else {
    // All remaining alternatives are copyable value types.
    std::visit(
        [this](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (!std::is_same_v<T, std::unique_ptr<Document>> &&
                        !std::is_same_v<T, std::unique_ptr<Array>>) {
            rep_ = v;
          }
        },
        other.rep_);
  }
  return *this;
}

Value::Value(Value&& other) noexcept : rep_(std::move(other.rep_)) {
  other.rep_ = NullT{};
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    rep_ = std::move(other.rep_);
    other.rep_ = NullT{};
  }
  return *this;
}

Value::~Value() = default;

Type Value::type() const {
  switch (rep_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kDouble;
    case 2:
      return Type::kString;
    case 3:
      return Type::kDocument;
    case 4:
      return Type::kArray;
    case 5:
      return Type::kBinary;
    case 6:
      return Type::kObjectId;
    case 7:
      return Type::kBool;
    case 8:
      return Type::kDateTime;
    case 9:
      return Type::kInt32;
    case 10:
      return Type::kInt64;
  }
  return Type::kNull;
}

bool Value::is_number() const {
  Type t = type();
  return t == Type::kDouble || t == Type::kInt32 || t == Type::kInt64;
}

double Value::as_double() const {
  if (auto* v = std::get_if<double>(&rep_)) return *v;
  DieBadAccess(type(), "double");
}

const std::string& Value::as_string() const {
  if (auto* v = std::get_if<std::string>(&rep_)) return *v;
  DieBadAccess(type(), "string");
}

std::string& Value::as_string() {
  if (auto* v = std::get_if<std::string>(&rep_)) return *v;
  DieBadAccess(type(), "string");
}

const Document& Value::as_document() const {
  if (auto* v = std::get_if<std::unique_ptr<Document>>(&rep_)) return **v;
  DieBadAccess(type(), "document");
}

Document& Value::as_document() {
  if (auto* v = std::get_if<std::unique_ptr<Document>>(&rep_)) return **v;
  DieBadAccess(type(), "document");
}

const Array& Value::as_array() const {
  if (auto* v = std::get_if<std::unique_ptr<Array>>(&rep_)) return **v;
  DieBadAccess(type(), "array");
}

Array& Value::as_array() {
  if (auto* v = std::get_if<std::unique_ptr<Array>>(&rep_)) return **v;
  DieBadAccess(type(), "array");
}

const Binary& Value::as_binary() const {
  if (auto* v = std::get_if<Binary>(&rep_)) return *v;
  DieBadAccess(type(), "binary");
}

ObjectId Value::as_object_id() const {
  if (auto* v = std::get_if<ObjectId>(&rep_)) return *v;
  DieBadAccess(type(), "objectId");
}

bool Value::as_bool() const {
  if (auto* v = std::get_if<bool>(&rep_)) return *v;
  DieBadAccess(type(), "bool");
}

DateTime Value::as_datetime() const {
  if (auto* v = std::get_if<DateTime>(&rep_)) return *v;
  DieBadAccess(type(), "datetime");
}

std::int32_t Value::as_int32() const {
  if (auto* v = std::get_if<std::int32_t>(&rep_)) return *v;
  DieBadAccess(type(), "int32");
}

std::int64_t Value::as_int64() const {
  if (auto* v = std::get_if<std::int64_t>(&rep_)) return *v;
  DieBadAccess(type(), "int64");
}

double Value::NumberAsDouble() const {
  switch (type()) {
    case Type::kDouble:
      return as_double();
    case Type::kInt32:
      return static_cast<double>(as_int32());
    case Type::kInt64:
      return static_cast<double>(as_int64());
    default:
      DieBadAccess(type(), "number");
  }
}

std::int64_t Value::NumberAsInt64() const {
  switch (type()) {
    case Type::kDouble:
      return static_cast<std::int64_t>(as_double());
    case Type::kInt32:
      return as_int32();
    case Type::kInt64:
      return as_int64();
    default:
      DieBadAccess(type(), "number");
  }
}

int Value::CanonicalRank() const {
  // Mongo-style canonical sort order brackets.
  switch (type()) {
    case Type::kNull:
      return 0;
    case Type::kDouble:
    case Type::kInt32:
    case Type::kInt64:
      return 1;
    case Type::kString:
      return 2;
    case Type::kDocument:
      return 3;
    case Type::kArray:
      return 4;
    case Type::kBinary:
      return 5;
    case Type::kObjectId:
      return 6;
    case Type::kBool:
      return 7;
    case Type::kDateTime:
      return 8;
  }
  return 99;
}

int Value::Compare(const Value& other) const {
  const int ra = CanonicalRank();
  const int rb = other.CanonicalRank();
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:  // null == null
      return 0;
    case 1: {  // numbers, cross-type numeric comparison
      // Compare as int64 when both sides are integral to avoid precision
      // loss; otherwise widen to double.
      const bool ints = type() != Type::kDouble && other.type() != Type::kDouble;
      if (ints) return Cmp(NumberAsInt64(), other.NumberAsInt64());
      return Cmp(NumberAsDouble(), other.NumberAsDouble());
    }
    case 2:
      return as_string().compare(other.as_string()) < 0
                 ? -1
                 : (as_string() == other.as_string() ? 0 : 1);
    case 3:
      return as_document().Compare(other.as_document());
    case 4: {
      const Array& a = as_array();
      const Array& b = other.as_array();
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return Cmp(a.size(), b.size());
    }
    case 5: {
      const Binary& a = as_binary();
      const Binary& b = other.as_binary();
      // BSON orders binary by length, then subtype, then bytes.
      if (int c = Cmp(a.data().size(), b.data().size()); c != 0) return c;
      if (int c = Cmp(a.subtype(), b.subtype()); c != 0) return c;
      if (a.data() < b.data()) return -1;
      if (b.data() < a.data()) return 1;
      return 0;
    }
    case 6: {
      auto c = as_object_id() <=> other.as_object_id();
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case 7:
      return Cmp(static_cast<int>(as_bool()), static_cast<int>(other.as_bool()));
    case 8:
      return Cmp(as_datetime().millis, other.as_datetime().millis);
  }
  return 0;
}

}  // namespace hotman::bson
