#include "query/batch/filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "query/executor.h"

namespace esdb {
namespace batch {

SlotSource SlotSource::Resolve(const Segment& segment,
                               const std::string& field) {
  SlotSource src;
  src.column = segment.doc_values().Find(field);
  if (src.column != nullptr) return src;
  // Virtual sub-attribute column "attributes.<key>": resolve the
  // interned key id once; per-doc reads are then a tiny pair scan.
  const size_t dot = field.find('.');
  if (dot != std::string::npos &&
      field.compare(0, dot, kFieldAttributes) == 0) {
    src.sidecar = segment.attribute_sidecar();
    if (src.sidecar != nullptr) {
      src.key_id = src.sidecar->KeyId(std::string_view(field).substr(dot + 1));
    }
  }
  return src;
}

namespace {

// --- Bound translation ----------------------------------------------------
//
// A fast path compares in its column's own domain: int64 for an
// all-int column, and for an all-double column the order key below.
// Both domains have 2^64 elements, addressed by position (0 = least);
// a literal of any type cuts a domain into the elements below it,
// equal to it and above it, and a predicate keeps one run of
// positions. Translating the literal once, by the value order, is what
// lets the loops compare one type.

// A position in a 2^64-element domain, or kEnd just past it.
using Pos = unsigned __int128;
constexpr Pos kEnd = Pos(1) << 64;

// The elements equal to a literal are the positions [ge, gt).
struct Cut {
  Pos ge, gt;
};

// An int's position: offset binary, so unsigned order is int order.
uint64_t IntPos(int64_t i) { return uint64_t(i) ^ 0x8000000000000000ull; }

// A double's order key: DoubleOrderBits rotated so that -inf is 0 and
// the NaNs of both signs form one run at the top, above +inf. -0.0 and
// 0.0 are adjacent keys, which every cut of a zero covers together.
constexpr uint64_t kKeyOffset = 0x000fffffffffffffull;  // bits of -inf
uint64_t OrderKey(double d) { return DoubleOrderBits(d) - kKeyOffset; }
constexpr double kInf = std::numeric_limits<double>::infinity();

// The cut of a numeric literal in each domain. Null and bool sit below
// every number and strings above, so Specialize cuts those at 0 and at
// kEnd.
Cut IntCut(const Value& v) {
  if (v.is_int()) return {IntPos(v.as_int()), Pos(IntPos(v.as_int())) + 1};
  const double d = v.as_double();
  if (std::isnan(d) || d >= 0x1p63) return {kEnd, kEnd};
  if (d < -0x1p63) return {0, 0};
  const double up = std::ceil(d);  // < 2^63: doubles there are whole
  const Pos p = IntPos(int64_t(up));
  return {p, up == d ? p + 1 : p};
}

Cut DoubleCut(const Value& v) {
  if (v.is_int()) {
    bool exact = false;
    const double d = DoubleAtOrBelow(v.as_int(), &exact);
    if (exact) return DoubleCut(Value(d));
    const Pos p = Pos(OrderKey(d)) + 1;
    return {p, p};
  }
  const double d = v.as_double();
  if (std::isnan(d)) return {Pos(OrderKey(kInf)) + 1, kEnd};
  if (d == 0) return {OrderKey(-0.0), Pos(OrderKey(0.0)) + 1};
  return {OrderKey(d), Pos(OrderKey(d)) + 1};
}

// Keeps the ids whose value's position lies in [lo, hi] (or outside it,
// when `neg`): the one loop of both range fast paths.
template <auto Position, typename T>
size_t KeepRange(const T* data, uint64_t lo, uint64_t hi, bool neg,
                 DocId* ids, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const DocId id = ids[i];
    const uint64_t p = Position(data[id]);
    const bool in = (p >= lo) & (p <= hi);
    ids[out] = id;
    out += size_t(in != neg);
  }
  return out;
}

}  // namespace

FilterProgram::FilterProgram(const Segment& segment,
                             const std::vector<FilterPred>& filters) {
  steps_.reserve(filters.size());
  for (const FilterPred& f : filters) {
    Step step;
    step.pred = &f.pred;
    step.negated = f.negated;
    step.source = SlotSource::Resolve(segment, f.pred.column);
    if (step.source.missing()) {
      // Field absent from the entire segment: the predicate sees null
      // for every doc, so the verdict is one constant for the whole
      // segment — either a no-op step or an always-empty result.
      const bool keep = f.pred.Eval(Value::Null()) != f.negated;
      if (!keep) trivially_empty_ = true;
      continue;
    }
    Specialize(&step);
    steps_.push_back(std::move(step));
  }
}

// Picks the specialized loop for one step: its literals become one
// run of positions in the column's domain.
void FilterProgram::Specialize(Step* s) {
  if (s->source.column == nullptr) return;  // sidecar reads stay generic
  const SlotTag utag = s->source.column->uniform_tag();
  if (utag != SlotTag::kInt && utag != SlotTag::kDouble) return;
  const bool ints = utag == SlotTag::kInt;
  const Predicate& p = *s->pred;
  const std::vector<Value>& args = p.args;
  const auto cut = [ints](const Value& v) -> Cut {
    if (!v.is_numeric()) return v.is_string() ? Cut{kEnd, kEnd} : Cut{0, 0};
    return ints ? IntCut(v) : DoubleCut(v);
  };

  if (p.op == PredOp::kIn) {
    if (!ints) return;
    for (const Value& a : args) {
      const Cut c = cut(a);
      if (c.ge < c.gt) s->in_set.push_back(uint64_t(c.ge));
    }
    std::sort(s->in_set.begin(), s->in_set.end());
    s->fast = Fast::kIntIn;
    return;
  }
  const size_t arity = p.op == PredOp::kBetween ? 2 : 1;
  if (args.size() != arity) return;
  Pos lo = 0, hi = kEnd;  // kept positions: [lo, hi)
  switch (p.op) {
    case PredOp::kEq:
      lo = cut(args[0]).ge;
      hi = cut(args[0]).gt;
      break;
    case PredOp::kLt:
      hi = cut(args[0]).ge;
      break;
    case PredOp::kLe:
      hi = cut(args[0]).gt;
      break;
    case PredOp::kGt:
      lo = cut(args[0]).gt;
      break;
    case PredOp::kGe:
      lo = cut(args[0]).ge;
      break;
    case PredOp::kBetween:
      lo = cut(args[0]).ge;
      hi = cut(args[1]).gt;
      break;
    default:
      return;  // kNe, string/null ops: generic
  }
  if (lo >= hi) lo = hi = 1;  // keeps nothing: first 1 > last 0
  s->lo = uint64_t(lo);
  s->hi = uint64_t(hi - 1);
  s->fast = ints ? Fast::kIntRange : Fast::kDoubleRange;
}

size_t FilterProgram::EvalBatch(DocId* ids, size_t n) const {
  for (const Step& s : steps_) {
    if (n == 0) break;
    const bool neg = s.negated;
    size_t out = 0;
    switch (s.fast) {
      case Fast::kIntRange:
        out = KeepRange<IntPos>(s.source.column->int64_data(), s.lo, s.hi,
                                neg, ids, n);
        break;
      case Fast::kDoubleRange:
        out = KeepRange<OrderKey>(s.source.column->double_data(), s.lo, s.hi,
                                  neg, ids, n);
        break;
      case Fast::kIntIn: {
        const int64_t* data = s.source.column->int64_data();
        const uint64_t* set = s.in_set.data();
        const uint64_t* set_end = set + s.in_set.size();
        for (size_t i = 0; i < n; ++i) {
          const DocId id = ids[i];
          const bool in = std::binary_search(set, set_end, IntPos(data[id]));
          ids[out] = id;
          out += size_t(in != neg);
        }
        break;
      }
      case Fast::kGeneric: {
        const Predicate& pred = *s.pred;
        for (size_t i = 0; i < n; ++i) {
          const DocId id = ids[i];
          const bool hit = EvalPredSlot(pred, s.source.Read(id));
          ids[out] = id;
          out += size_t(hit != neg);
        }
        break;
      }
    }
    n = out;
  }
  return n;
}

PostingList FilterPostings(const Segment& segment,
                           const PostingList& candidates,
                           const std::vector<FilterPred>& filters,
                           ExecStats* stats) {
  stats->docs_filtered += candidates.size();
  if (filters.empty()) return candidates;
  const FilterProgram program(segment, filters);
  PostingList out;
  if (program.trivially_empty()) return out;

  DocId buf[kBatchSize];
  const std::vector<DocId>& ids = candidates.ids();
  for (size_t i = 0; i < ids.size(); i += kBatchSize) {
    const size_t chunk = std::min(kBatchSize, ids.size() - i);
    std::memcpy(buf, ids.data() + i, chunk * sizeof(DocId));
    const size_t kept = program.EvalBatch(buf, chunk);
    for (size_t j = 0; j < kept; ++j) out.Append(buf[j]);
    ++stats->batches_evaluated;
    stats->batch_rows_passed += kept;
  }
  return out;
}

}  // namespace batch
}  // namespace esdb
