#include "document/slot.h"

namespace esdb {

Value SlotToValue(const TypedSlot& slot) {
  switch (slot.tag) {
    case SlotTag::kNothing:
      return Value::Null();
    case SlotTag::kBool:
      return Value(slot.as_bool());
    case SlotTag::kInt:
      return Value(slot.as_int());
    case SlotTag::kDouble:
      return Value(slot.as_double());
    case SlotTag::kString:
      return Value(slot.as_string());
  }
  return Value::Null();
}

TypedSlot SlotOf(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      return TypedSlot::Nothing();
    case Value::Type::kBool:
      return TypedSlot{SlotTag::kBool, v.as_bool() ? 1u : 0u};
    case Value::Type::kInt:
      return TypedSlot{SlotTag::kInt, uint64_t(v.as_int())};
    case Value::Type::kDouble: {
      TypedSlot slot{SlotTag::kDouble, 0};
      const double d = v.as_double();
      std::memcpy(&slot.payload, &d, sizeof(d));
      return slot;
    }
    case Value::Type::kString:
      return TypedSlot{SlotTag::kString,
                       uint64_t(uintptr_t(&v.as_string()))};
  }
  return TypedSlot::Nothing();
}

std::string EncodeSortable(const TypedSlot& slot) {
  // Layout: 1 type-rank byte, then a type-specific order-preserving
  // payload. Numerics (int and double) share rank 2 and are both
  // encoded via the IEEE-754 total-order trick on double so that
  // cross-type numeric comparisons order correctly.
  std::string out;
  out.push_back(char('0' + SlotRank(slot.tag)));
  switch (slot.tag) {
    case SlotTag::kNothing:
      break;
    case SlotTag::kBool:
      out.push_back(slot.as_bool() ? '\x01' : '\x00');
      break;
    case SlotTag::kInt:
    case SlotTag::kDouble: {
      const double d = slot.NumericValue();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      // Flip so that byte-lexicographic order == numeric order:
      // negative doubles invert all bits, positive flip the sign bit.
      if (bits & 0x8000000000000000ull) {
        bits = ~bits;
      } else {
        bits |= 0x8000000000000000ull;
      }
      char be[8];
      for (int i = 0; i < 8; ++i) be[i] = char((bits >> (56 - 8 * i)) & 0xff);
      out.append(be, sizeof(be));
      break;
    }
    case SlotTag::kString:
      out.append(slot.as_string());
      break;
  }
  return out;
}

}  // namespace esdb
