#ifndef ESDB_DOCUMENT_VALUE_H_
#define ESDB_DOCUMENT_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace esdb {

// Scalar value stored in a document field. Document-oriented schema:
// a field may hold a different type in every document.
class Value {
 public:
  enum class Type { kNull = 0, kBool, kInt, kDouble, kString };

  Value() : data_(std::monostate{}) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(int64_t i) : data_(i) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(const char* s) : data_(std::string(s)) {}

  static Value Null() { return Value(); }

  Type type() const { return Type(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  // Numeric coercion: ints widen to double; bool/strings are not
  // coerced (caller checks is_numeric()). For sums; the order below
  // never rounds through double.
  double NumericValue() const {
    return is_int() ? double(as_int()) : as_double();
  }

  // The total order of values (defined in document/slot.h, where
  // CompareSlots implements it): null < bool < numeric < string;
  // numerics by exact value across int/double, -0.0 == 0.0, and every
  // NaN one value above +inf. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // Display form ("null", "true", "42", "3.5", raw string).
  std::string ToString() const;

  // Order-preserving key encoding used by term and composite indexes:
  // the byte order of two encodings is Compare()'s order, and
  // compare-equal values encode to equal bytes (layout in slot.h).
  std::string EncodeSortable() const;

  // Compact tagged binary round-trip (not order-preserving), used by
  // document serialization and doc-values columns.
  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(std::string_view data, size_t* pos, Value* out);

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

}  // namespace esdb

#endif  // ESDB_DOCUMENT_VALUE_H_
