#include "document/slot.h"

#include <cmath>
#include <limits>

namespace esdb {

namespace {

// DoubleOrderBits of the positive quiet NaN, the one encoding of every
// NaN: above +inf.
constexpr uint64_t kNanOrderBits = 0xfff8000000000000ull;

void AppendBigEndian(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(char((v >> shift) & 0xff));
  }
}

}  // namespace

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

int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d) || d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  // |d| < 2^63: its integral part converts to int64 exactly.
  const double whole = std::trunc(d);
  const int64_t w = int64_t(whole);
  if (i != w) return i < w ? -1 : 1;
  return d > whole ? -1 : (d < whole ? 1 : 0);
}

double DoubleAtOrBelow(int64_t i, bool* exact) {
  const double d = double(i);  // nearest; -2^63 <= d <= 2^63
  *exact = d < 0x1p63 && int64_t(d) == i;
  if (*exact || (d < 0x1p63 && int64_t(d) < i)) return d;
  return std::nextafter(d, -std::numeric_limits<double>::infinity());
}

std::string EncodeSortable(const TypedSlot& slot) {
  std::string out;
  out.push_back(char('0' + SlotRank(slot.tag)));
  switch (slot.tag) {
    case SlotTag::kNothing:
      break;
    case SlotTag::kBool:
      out.push_back(slot.as_bool() ? '\x01' : '\x00');
      break;
    case SlotTag::kInt: {
      bool exact = false;
      const double d = DoubleAtOrBelow(slot.as_int(), &exact);
      AppendBigEndian(&out, DoubleOrderBits(d));
      if (!exact) {
        AppendBigEndian(&out, uint64_t(slot.as_int()) - uint64_t(int64_t(d)));
      }
      break;
    }
    case SlotTag::kDouble: {
      const double d = slot.as_double();
      AppendBigEndian(&out, std::isnan(d) ? kNanOrderBits
                                          : DoubleOrderBits(d == 0 ? 0.0 : d));
      break;
    }
    case SlotTag::kString:
      out.append(slot.as_string());
      break;
  }
  return out;
}

}  // namespace esdb
