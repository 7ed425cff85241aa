#include "document/value.h"

#include "common/varint.h"
#include "document/slot.h"

#include <cstdio>
#include <cstring>

namespace esdb {

int Value::Compare(const Value& other) const {
  return CompareSlots(SlotOf(*this), SlotOf(other));
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return as_bool() ? "true" : "false";
    case Type::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(as_int()));
      return buf;
    }
    case Type::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", as_double());
      return buf;
    }
    case Type::kString:
      return as_string();
  }
  return "";
}

std::string Value::EncodeSortable() const {
  return esdb::EncodeSortable(SlotOf(*this));
}

// Type tags in the serialized form.
constexpr char kTagNull = 'n';
constexpr char kTagBool = 'b';
constexpr char kTagInt = 'i';
constexpr char kTagDouble = 'd';
constexpr char kTagString = 's';

void Value::EncodeTo(std::string* out) const {
  switch (type()) {
    case Value::Type::kNull:
      out->push_back(kTagNull);
      break;
    case Value::Type::kBool:
      out->push_back(kTagBool);
      out->push_back(as_bool() ? 1 : 0);
      break;
    case Value::Type::kInt:
      out->push_back(kTagInt);
      // Zigzag so negatives stay compact.
      PutVarint64(out, (uint64_t(as_int()) << 1) ^
                           uint64_t(as_int() >> 63));
      break;
    case Value::Type::kDouble: {
      out->push_back(kTagDouble);
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      const double d = as_double();
      __builtin_memcpy(&bits, &d, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        out->push_back(char((bits >> shift) & 0xff));
      }
      break;
    }
    case Value::Type::kString:
      out->push_back(kTagString);
      PutLengthPrefixed(out, as_string());
      break;
  }
}

bool Value::DecodeFrom(std::string_view data, size_t* pos, Value* out) {
  if (*pos >= data.size()) return false;
  const char tag = data[(*pos)++];
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagBool:
      if (*pos >= data.size()) return false;
      *out = Value(data[(*pos)++] != 0);
      return true;
    case kTagInt: {
      uint64_t zz = 0;
      if (!GetVarint64(data, pos, &zz)) return false;
      *out = Value(int64_t((zz >> 1) ^ (~(zz & 1) + 1)));
      return true;
    }
    case kTagDouble: {
      if (*pos + 8 > data.size()) return false;
      uint64_t bits = 0;
      for (int shift = 0; shift < 64; shift += 8) {
        bits |= uint64_t(uint8_t(data[*pos])) << shift;
        ++(*pos);
      }
      double d;
      __builtin_memcpy(&d, &bits, sizeof(d));
      *out = Value(d);
      return true;
    }
    case kTagString: {
      std::string_view s;
      if (!GetLengthPrefixed(data, pos, &s)) return false;
      *out = Value(std::string(s));
      return true;
    }
    default:
      return false;
  }
}


}  // namespace esdb
