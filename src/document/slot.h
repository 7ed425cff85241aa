#ifndef ESDB_DOCUMENT_SLOT_H_
#define ESDB_DOCUMENT_SLOT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "document/value.h"

// The typed-slot vocabulary of the vectorized engine. It lives at the
// document layer (not query/batch) because DocValues::Column stores
// slots natively — tag array + payload array frozen at segment build
// — and the storage layer may not include upward into query/ (the
// include-layer DAG is enforced by tools/lint/esdb_lint). The
// slot *operations* that depend on the query AST (EvalPredSlot) stay
// in query/batch/slot.h.

namespace esdb {

// Type tag of a slot value (1 byte). kNothing stands for null AND
// missing — the batch engine signals "no value" with it instead of
// branching into exception/optional paths (the SBE "Nothing" idea).
// Tag values are stable: DocValues::Column stores them in its
// contiguous tag array.
enum class SlotTag : uint8_t {
  kNothing = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
};

// A value as the vectorized executor sees it: 1-byte tag + 8-byte
// payload. Shallow values (bool/int64/double) live in the payload
// itself; strings are a pointer to the column's interned string pool
// (valid as long as the segment is pinned — segments are immutable
// and epoch-published, so a slot never outlives its storage). Slots
// are trivially copyable; gathering a batch of them is a plain
// array walk with zero allocation.
struct TypedSlot {
  SlotTag tag = SlotTag::kNothing;
  uint64_t payload = 0;

  bool is_nothing() const { return tag == SlotTag::kNothing; }
  bool as_bool() const { return payload != 0; }
  int64_t as_int() const { return int64_t(payload); }
  double as_double() const {
    double d;
    std::memcpy(&d, &payload, sizeof(d));
    return d;
  }
  const std::string& as_string() const {
    return *reinterpret_cast<const std::string*>(uintptr_t(payload));
  }
  bool is_numeric() const {
    return tag == SlotTag::kInt || tag == SlotTag::kDouble;
  }
  // Numeric coercion, mirroring Value::NumericValue.
  double NumericValue() const {
    return tag == SlotTag::kInt ? double(as_int()) : as_double();
  }

  static TypedSlot Nothing() { return TypedSlot{}; }
};

// Materializes a slot as a Value (string slots copy out of the pool).
// Used only at batch boundaries: group-by keys, aggregate min/max.
Value SlotToValue(const TypedSlot& slot);

// The slot view of `v`: a string slot points at v's own string, so it
// must not outlive `v`.
TypedSlot SlotOf(const Value& v);

// The rank lattice of Value::Compare: null < bool < numeric < string.
inline int SlotRank(SlotTag tag) {
  switch (tag) {
    case SlotTag::kNothing:
      return 0;
    case SlotTag::kBool:
      return 1;
    case SlotTag::kInt:
    case SlotTag::kDouble:
      return 2;
    case SlotTag::kString:
      return 3;
  }
  return 4;
}

// Total ordering of a slot against a Value, identical to
// Value::Compare on the materialized slot (null < bool < numeric <
// string; numerics compare by value across int/double, exactly when
// both sides are ints). Returns <0, 0, >0. Inline: the batch engine's
// filter loops call it once per candidate doc.
inline int CompareSlotValue(const TypedSlot& slot, const Value& other) {
  static constexpr int kValueRank[] = {0, 1, 2, 2, 3};  // by Value::Type
  const int ra = SlotRank(slot.tag);
  const int rb = kValueRank[int(other.type())];
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (slot.tag) {
    case SlotTag::kNothing:
      return 0;
    case SlotTag::kBool: {
      const int a = slot.as_bool() ? 1 : 0;
      const int b = other.as_bool() ? 1 : 0;
      return a - b;
    }
    case SlotTag::kInt:
    case SlotTag::kDouble: {
      if (slot.tag == SlotTag::kInt && other.is_int()) {
        const int64_t a = slot.as_int();
        const int64_t b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const double a = slot.NumericValue();
      const double b = other.NumericValue();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case SlotTag::kString:
      return slot.as_string().compare(other.as_string());
  }
  return 0;
}

// Order-preserving key encoding of the slot's value, without
// materializing it; Value::EncodeSortable is this over SlotOf(value).
std::string EncodeSortable(const TypedSlot& slot);

}  // namespace esdb

#endif  // ESDB_DOCUMENT_SLOT_H_
