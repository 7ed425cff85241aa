#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "document/slot.h"
#include "document/value.h"

namespace esdb {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t(5)).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(int64_t(1)).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
}

TEST(ValueTest, CrossTypeOrdering) {
  // null < bool < numeric < string.
  Value null_v, bool_v(true), int_v(int64_t(5)), str_v("a");
  EXPECT_LT(null_v.Compare(bool_v), 0);
  EXPECT_LT(bool_v.Compare(int_v), 0);
  EXPECT_LT(int_v.Compare(str_v), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t(3)).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t(3)).Compare(Value(3.5)), 0);
  EXPECT_GT(Value(4.5).Compare(Value(int64_t(4))), 0);
}

TEST(ValueTest, IntComparisonIsExact) {
  // Values beyond double's 53-bit mantissa still compare exactly
  // when both sides are ints.
  const int64_t big = (1ll << 60);
  EXPECT_LT(Value(big).Compare(Value(big + 1)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t(-7)).ToString(), "-7");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

Value RandomValue(Rng& rng) {
  switch (rng.Uniform(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng.Bernoulli(0.5));
    case 2:
      return Value(int64_t(rng.Next() % 2001) - 1000);
    case 3:
      return Value(double(int64_t(rng.Next() % 2001) - 1000) / 8.0);
    default: {
      std::string s;
      const size_t len = rng.Uniform(6);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(char('a' + rng.Uniform(4)));
      }
      return Value(std::move(s));
    }
  }
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

Value DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return Value(d);
}

// The edges of the value order: null, both bools, strings (empty, one a
// prefix of another, a high byte), ints near 0, +-2^53 and +-2^63, and
// doubles at +-inf, +-0.0, denormals, near +-2^53 and +-2^63, and NaNs
// of several payloads and both signs.
std::vector<Value> EdgeValues() {
  constexpr int64_t k53 = int64_t(1) << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<Value> out = {Value::Null(), Value(false), Value(true),
                            Value(""), Value("a"), Value("ab"), Value("b"),
                            Value("\xff")};
  for (int64_t i : {int64_t(0), int64_t(1), int64_t(-1), k53 - 1, k53,
                    k53 + 1, k53 + 2, k53 + 3, -k53, -k53 - 1, -k53 - 2,
                    kMax, kMax - 1, kMax - 1024, kMax - 1023, kMin,
                    kMin + 1, kMin + 1024, kMin + 1025}) {
    out.push_back(Value(i));
  }
  for (double d : {0.0, -0.0, 0.5, -0.5, 1.0, -1.0, kDenorm, -kDenorm,
                   std::numeric_limits<double>::min(), kInf, -kInf,
                   0x1p53, -0x1p53, 0x1p53 + 2, 0x1p63, -0x1p63,
                   std::nextafter(0x1p63, 0.0), std::nextafter(-0x1p63, -kInf),
                   1e300, -1e300}) {
    out.push_back(Value(d));
  }
  for (uint64_t bits :
       {0x7ff8000000000000ull, 0x7ff0000000000001ull, 0x7ff8dead00000000ull,
        0xfff8000000000000ull, 0xfff0000000000001ull, 0xffffffffffffffffull}) {
    out.push_back(DoubleFromBits(bits));
  }
  return out;
}

// An edge value, or a value one step away from one.
Value RandomOrderValue(Rng& rng, const std::vector<Value>& edges) {
  const Value& e = edges[rng.Uniform(edges.size())];
  if (rng.Bernoulli(0.5)) return e;
  if (e.is_int()) {
    const int64_t step = int64_t(rng.Uniform(3)) - 1;
    const int64_t i = e.as_int();
    if ((step > 0 && i == std::numeric_limits<int64_t>::max()) ||
        (step < 0 && i == std::numeric_limits<int64_t>::min())) {
      return e;
    }
    return Value(i + step);
  }
  if (e.is_double() && std::isfinite(e.as_double())) {
    const double inf = std::numeric_limits<double>::infinity();
    const double toward = rng.Bernoulli(0.5) ? inf : -inf;
    return Value(std::nextafter(e.as_double(), toward));
  }
  return RandomValue(rng);
}

// Property: Compare is a total order, CompareSlotValue is Compare on
// the slot, and EncodeSortable's byte order is Compare's order.
void ExpectAgreement(const Value& a, const Value& b) {
  const int c = Sign(a.Compare(b));
  EXPECT_EQ(Sign(b.Compare(a)), -c) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(Sign(CompareSlotValue(SlotOf(a), b)), c)
      << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(Sign(a.EncodeSortable().compare(b.EncodeSortable())), c)
      << a.ToString() << " vs " << b.ToString();
}

void ExpectTransitive(const Value& a, const Value& b, const Value& c) {
  const int ab = Sign(a.Compare(b));
  const int bc = Sign(b.Compare(c));
  if (ab > 0 || bc > 0) return;
  const int ac = Sign(a.Compare(c));
  if (ab == 0 && bc == 0) {
    EXPECT_EQ(ac, 0) << a.ToString() << " " << b.ToString() << " "
                     << c.ToString();
  } else {
    EXPECT_LT(ac, 0) << a.ToString() << " " << b.ToString() << " "
                     << c.ToString();
  }
}

TEST(ValueOrderProperty, TotalOrderThatSlotsAndEncodingAgreeWith) {
  const std::vector<Value> edges = EdgeValues();
  for (const Value& a : edges) {
    for (const Value& b : edges) {
      ExpectAgreement(a, b);
      for (const Value& c : edges) ExpectTransitive(a, b, c);
    }
  }
  Rng rng(99);
  for (int trial = 0; trial < 20000; ++trial) {
    const Value a = RandomOrderValue(rng, edges);
    const Value b = RandomOrderValue(rng, edges);
    const Value c = RandomOrderValue(rng, edges);
    ExpectAgreement(a, b);
    ExpectTransitive(a, b, c);
  }
}

TEST(ValueOrderTest, EdgesOfTheOrder) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const int64_t k53 = int64_t(1) << 53;
  EXPECT_EQ(Value(-0.0).Compare(Value(0.0)), 0);
  EXPECT_EQ(Value(-0.0).Compare(Value(int64_t(0))), 0);
  EXPECT_EQ(Value(kNaN).Compare(DoubleFromBits(0xfff0000000000001ull)), 0);
  EXPECT_GT(Value(kNaN).Compare(
                Value(std::numeric_limits<double>::infinity())), 0);
  EXPECT_LT(Value(kNaN).Compare(Value("")), 0);
  EXPECT_GT(Value(k53 + 1).Compare(Value(0x1p53)), 0);
  EXPECT_LT(Value(0x1p53).Compare(Value(k53 + 1)), 0);
  EXPECT_EQ(Value(k53).Compare(Value(0x1p53)), 0);
  EXPECT_LT(Value(std::numeric_limits<int64_t>::max()).Compare(Value(0x1p63)),
            0);
  // Compare-equal values encode to the same bytes.
  EXPECT_EQ(Value(-0.0).EncodeSortable(), Value(int64_t(0)).EncodeSortable());
  EXPECT_EQ(Value(kNaN).EncodeSortable(),
            DoubleFromBits(0xfff8000000000000ull).EncodeSortable());
}

// Property: EncodeTo/DecodeFrom round-trips every value.
TEST(ValueEncodingProperty, BinaryRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 5000; ++trial) {
    const Value v = RandomValue(rng);
    std::string buf;
    v.EncodeTo(&buf);
    size_t pos = 0;
    Value out;
    ASSERT_TRUE(Value::DecodeFrom(buf, &pos, &out));
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(v.Compare(out), 0);
    EXPECT_EQ(v.type(), out.type());
  }
}

TEST(ValueEncodingTest, NegativeDoublesOrderCorrectly) {
  const std::vector<double> ordered = {-1e30, -2.5, -0.0, 0.0,
                                       1e-9, 2.5,  1e30};
  for (size_t i = 1; i < ordered.size(); ++i) {
    const std::string prev = Value(ordered[i - 1]).EncodeSortable();
    const std::string cur = Value(ordered[i]).EncodeSortable();
    EXPECT_LE(prev.compare(cur), 0) << ordered[i - 1] << " vs " << ordered[i];
  }
}

TEST(ValueEncodingTest, DecodeRejectsGarbage) {
  Value out;
  size_t pos = 0;
  EXPECT_FALSE(Value::DecodeFrom("?junk", &pos, &out));
  pos = 0;
  EXPECT_FALSE(Value::DecodeFrom("", &pos, &out));
  pos = 0;
  EXPECT_FALSE(Value::DecodeFrom("d12", &pos, &out));  // truncated double
}

}  // namespace
}  // namespace esdb
