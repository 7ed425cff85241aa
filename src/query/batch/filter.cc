#include "query/batch/filter.h"

#include <algorithm>
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

bool AllInt(const std::vector<Value>& args) {
  for (const Value& a : args) {
    if (!a.is_int()) return false;
  }
  return !args.empty();
}

bool AllNumeric(const std::vector<Value>& args) {
  for (const Value& a : args) {
    if (!a.is_numeric()) return false;
  }
  return !args.empty();
}

bool AllDouble(const std::vector<Value>& args) {
  for (const Value& a : args) {
    if (!a.is_double()) return false;
  }
  return !args.empty();
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

// Picks the specialized loop for one step. Fast paths must replicate
// Value::Compare bit-for-bit, which constrains them:
//  - int column vs int args compares exactly (int64), so IntRange
//    only applies when ALL args are ints (a mixed kBetween would
//    compare one bound exactly and one as double);
//  - any double operand compares as double, including the
//    NaN-compares-equal quirk of Value::Compare (a<b?-1:(a>b?1:0)
//    yields 0 for NaN pairs) — the DoubleRange loop therefore tests
//    with negated comparisons (!(x < lo)) instead of (x >= lo) so
//    NaN columns and NaN bounds behave exactly as Predicate::Eval.
void FilterProgram::Specialize(Step* s) {
  if (s->source.column == nullptr) return;  // sidecar reads stay generic
  const SlotTag utag = s->source.column->uniform_tag();
  const Predicate& p = *s->pred;
  const std::vector<Value>& args = p.args;
  constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (utag == SlotTag::kInt && AllInt(args)) {
    if (p.op == PredOp::kIn) {
      s->in_set.reserve(args.size());
      for (const Value& a : args) s->in_set.push_back(a.as_int());
      std::sort(s->in_set.begin(), s->in_set.end());
      s->fast = Fast::kIntIn;
      return;
    }
    const auto empty_range = [s] { s->ilo = 1; s->ihi = 0; };
    switch (p.op) {
      case PredOp::kEq:
        if (args.size() != 1) return;
        s->ilo = s->ihi = args[0].as_int();
        break;
      case PredOp::kLt:
        if (args.size() != 1) return;
        s->ilo = kIntMin;
        if (args[0].as_int() == kIntMin) {
          empty_range();  // nothing is < INT64_MIN
        } else {
          s->ihi = args[0].as_int() - 1;
        }
        break;
      case PredOp::kLe:
        if (args.size() != 1) return;
        s->ilo = kIntMin;
        s->ihi = args[0].as_int();
        break;
      case PredOp::kGt:
        if (args.size() != 1) return;
        s->ihi = kIntMax;
        if (args[0].as_int() == kIntMax) {
          empty_range();
        } else {
          s->ilo = args[0].as_int() + 1;
        }
        break;
      case PredOp::kGe:
        if (args.size() != 1) return;
        s->ilo = args[0].as_int();
        s->ihi = kIntMax;
        break;
      case PredOp::kBetween:
        if (args.size() != 2) return;
        s->ilo = args[0].as_int();
        s->ihi = args[1].as_int();
        break;
      default:
        return;  // kNe, string/null ops: generic
    }
    s->fast = Fast::kIntRange;
    return;
  }

  // Double compare path: a uniformly-double column against numeric
  // args (Value::Compare always compares these as doubles), or a
  // uniformly-int column against all-double args (ditto).
  const bool double_compare = (utag == SlotTag::kDouble && AllNumeric(args)) ||
                              (utag == SlotTag::kInt && AllDouble(args));
  if (!double_compare) return;
  s->dlo = -kInf;
  s->dhi = kInf;
  s->dlo_incl = s->dhi_incl = true;
  switch (p.op) {
    case PredOp::kEq:
      if (args.size() != 1) return;
      s->dlo = s->dhi = args[0].NumericValue();
      break;
    case PredOp::kLt:
      if (args.size() != 1) return;
      s->dhi = args[0].NumericValue();
      s->dhi_incl = false;
      break;
    case PredOp::kLe:
      if (args.size() != 1) return;
      s->dhi = args[0].NumericValue();
      break;
    case PredOp::kGt:
      if (args.size() != 1) return;
      s->dlo = args[0].NumericValue();
      s->dlo_incl = false;
      break;
    case PredOp::kGe:
      if (args.size() != 1) return;
      s->dlo = args[0].NumericValue();
      break;
    case PredOp::kBetween:
      if (args.size() != 2) return;
      s->dlo = args[0].NumericValue();
      s->dhi = args[1].NumericValue();
      break;
    default:
      return;
  }
  s->src_is_int = (utag == SlotTag::kInt);
  s->fast = Fast::kDoubleRange;
}

size_t FilterProgram::EvalBatch(DocId* ids, size_t n) const {
  for (const Step& s : steps_) {
    if (n == 0) break;
    const bool neg = s.negated;
    size_t out = 0;
    switch (s.fast) {
      case Fast::kIntRange: {
        const int64_t* data = s.source.column->int64_data();
        const int64_t lo = s.ilo, hi = s.ihi;
        for (size_t i = 0; i < n; ++i) {
          const DocId id = ids[i];
          const int64_t x = data[id];
          const bool in = (x >= lo) & (x <= hi);
          ids[out] = id;
          out += size_t(in != neg);
        }
        break;
      }
      case Fast::kIntIn: {
        const int64_t* data = s.source.column->int64_data();
        const int64_t* set = s.in_set.data();
        const int64_t* set_end = set + s.in_set.size();
        for (size_t i = 0; i < n; ++i) {
          const DocId id = ids[i];
          const bool in = std::binary_search(set, set_end, data[id]);
          ids[out] = id;
          out += size_t(in != neg);
        }
        break;
      }
      case Fast::kDoubleRange: {
        const bool lo_incl = s.dlo_incl, hi_incl = s.dhi_incl;
        const double lo = s.dlo, hi = s.dhi;
        // Negated comparisons, NOT (x >= lo && x <= hi): this is what
        // keeps NaN operands byte-identical to Value::Compare.
        const auto in_range = [lo, hi, lo_incl, hi_incl](double x) {
          const bool lo_ok = lo_incl ? !(x < lo) : (x > lo);
          const bool hi_ok = hi_incl ? !(x > hi) : (x < hi);
          return lo_ok && hi_ok;
        };
        if (s.src_is_int) {
          const int64_t* data = s.source.column->int64_data();
          for (size_t i = 0; i < n; ++i) {
            const DocId id = ids[i];
            const bool in = in_range(double(data[id]));
            ids[out] = id;
            out += size_t(in != neg);
          }
        } else {
          const double* data = s.source.column->double_data();
          for (size_t i = 0; i < n; ++i) {
            const DocId id = ids[i];
            const bool in = in_range(data[id]);
            ids[out] = id;
            out += size_t(in != neg);
          }
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
