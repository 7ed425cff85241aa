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
//
// This header also defines the order of values, once (CompareSlots),
// and the byte encoding that agrees with it (EncodeSortable).

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
  // Numeric coercion, mirroring Value::NumericValue (sums only; the
  // order never rounds through double).
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
inline TypedSlot SlotOf(const Value& v) {
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

// --- The order of values ------------------------------------------------
//
// One total order, used by every part of the engine that orders or
// equates values: Value::Compare, predicate evaluation (row and slot),
// index terms and term ranges, composite keys, column sketches and
// their histograms, MIN/MAX folds, ORDER BY, GROUP BY keys and the
// normalizer's range merge. All of them call CompareSlots or compare
// EncodeSortable bytes, which agree with it.
//
//   - null < bool < numeric < string; false < true; strings compare
//     bytewise.
//   - Numerics compare by exact value across int64 and double, never
//     rounded through double: int 2^53 + 1 > double 2^53.
//   - -0.0 equals 0.0 (and int 0).
//   - All NaNs are one value, whatever their sign or payload: equal to
//     each other, above +inf, below every string.
//
// A filter fast path may compare in a column's own domain (int64, or
// a double's order key) only after translating its bounds into that
// domain with this order (query/batch/filter.cc).

// The rank lattice of the order: null < bool < numeric < string.
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

// Exact order of an int64 against a double (NaN included). Out of
// line: mixed int/double comparisons are the rare case.
int CompareIntDouble(int64_t i, double d);

// The largest double not above `i`; *exact says whether it equals `i`
// (every |i| <= 2^53 does, and larger ints when their low bits allow).
double DoubleAtOrBelow(int64_t i, bool* exact);

// Order of two doubles: IEEE order, with -0.0 == 0.0 and every NaN
// equal to every other NaN and above +inf.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return int(a != a) - int(b != b);  // a NaN is involved
}

// The order of values. Returns <0, 0, >0. Inline: the batch engine's
// filter loops call it once per candidate doc.
inline int CompareSlots(const TypedSlot& a, const TypedSlot& b) {
  const int ra = SlotRank(a.tag);
  const int rb = SlotRank(b.tag);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.tag) {
    case SlotTag::kNothing:
      return 0;
    case SlotTag::kBool:
      return int(a.as_bool()) - int(b.as_bool());
    case SlotTag::kInt:
      if (b.tag == SlotTag::kInt) {
        return int(a.as_int() > b.as_int()) - int(a.as_int() < b.as_int());
      }
      return CompareIntDouble(a.as_int(), b.as_double());
    case SlotTag::kDouble:
      if (b.tag == SlotTag::kDouble) {
        return CompareDoubles(a.as_double(), b.as_double());
      }
      return -CompareIntDouble(b.as_int(), a.as_double());
    case SlotTag::kString:
      return a.as_string().compare(b.as_string());
  }
  return 0;
}

// The order of a slot against a Value: CompareSlots(slot, SlotOf(v)).
inline int CompareSlotValue(const TypedSlot& slot, const Value& other) {
  return CompareSlots(slot, SlotOf(other));
}

// Order-preserving key encoding of the slot's value, without
// materializing it; Value::EncodeSortable is this over SlotOf(value).
// Byte order of two encodings is CompareSlots' order, and equal values
// encode to equal bytes:
//
//   1 rank byte ('0' + SlotRank), then
//   bool:    one byte, 0 or 1
//   numeric: the 8 big-endian bytes of DoubleOrderBits(d), where d is
//            the value itself (-0.0 and every NaN canonicalised first)
//            or, for an int that no double represents exactly, the
//            largest double below it followed by the 8 big-endian bytes
//            of the (nonzero) remainder int - d
//   string:  its bytes
//
// An encoding that extends another (a longer string, an int's nonzero
// remainder after its double) belongs to a greater value, so appending
// '\0' to a term (TermBounds) or escaping it into a composite key
// (storage/sorted_key_index.h) keeps this order.
std::string EncodeSortable(const TypedSlot& slot);

// The bits of `d` flipped so that unsigned order is IEEE order over
// non-NaN doubles: negatives invert all bits, non-negatives set the
// sign bit. -0.0 sits just below 0.0; positive NaNs sit above +inf and
// negative NaNs below -inf (callers place them).
inline uint64_t DoubleOrderBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits ^ (uint64_t(int64_t(bits) >> 63) | 0x8000000000000000ull);
}

}  // namespace esdb

#endif  // ESDB_DOCUMENT_SLOT_H_
