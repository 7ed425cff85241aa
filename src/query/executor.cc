#include "query/executor.h"

#include <algorithm>
#include <cmath>

#include "query/batch/aggregate.h"
#include "query/batch/filter.h"
#include "storage/analyzer.h"

namespace esdb {

namespace {

// The one field resolver: a column of a document inside a segment,
// read through its slot source, so "attributes.<key>" virtual columns
// read the segment's decoded sidecar.
Value ResolveFieldValue(const Segment& segment, DocId id,
                        const std::string& field) {
  return batch::SlotToValue(
      batch::SlotSource::Resolve(segment, field).Read(id));
}

// The same resolution on a fetched document (SlotSource::Resolve's
// order): a stored field of that name first, else an
// "attributes.<key>" virtual column read from the document's
// attributes string, parsed as the sidecar parses it.
Value ResolveFieldValue(const Document& doc, const std::string& field) {
  if (doc.Has(field)) return doc.Get(field);
  const size_t dot = field.find('.');
  if (dot == std::string::npos ||
      field.compare(0, dot, kFieldAttributes) != 0) {
    return Value::Null();
  }
  const Value& attributes = doc.Get(kFieldAttributes);
  if (!attributes.is_string()) return Value::Null();
  const std::string_view key = std::string_view(field).substr(dot + 1);
  for (const auto& [k, v] : ParseAttributeViews(attributes.as_string())) {
    if (k == key) return Value(std::string(v));
  }
  return Value::Null();
}

PostingList ApplyFilters(const Segment& segment, PostingList candidates,
                         const std::vector<FilterPred>& filters,
                         ExecStats* stats) {
  if (filters.empty() || candidates.empty()) return candidates;
  return batch::FilterPostings(segment, candidates, filters, stats);
}

// ORDER-BY/LIMIT pushdown (kIndexTopK): walk the composite index in
// key order (reversed for DESC) and stop once `topk_cap` live,
// filter-passing matches are in hand — plus every entry tied with the
// cap-th match on the ORDER-BY column, so the candidate set is a
// superset of the stable-sort winners for any ORDER BY that leads
// with that column. Candidates return in doc-id order so downstream
// iteration and stable sorts behave exactly like the unpushed plan.
Result<PostingList> EvalIndexTopK(const PlanNode& plan, const SegmentView& view,
                                  ExecStats* stats) {
  const Segment& segment = *view;
  const SortedKeyIndex* index = segment.CompositeIndex(plan.index_name);
  if (index == nullptr) {
    return Status::FailedPrecondition("composite index not found: " +
                                      plan.index_name);
  }
  const size_t range_total =
      index->CountRange(plan.key_range.lo, plan.key_range.hi);
  if (plan.topk_cap <= 0) {
    stats->rows_skipped_by_pushdown += range_total;
    return PostingList();
  }
  // Visited entries arrive one at a time in key order, so the residual
  // filters run as a one-id batch through the segment's program.
  const batch::FilterProgram program(segment, plan.filters);
  // The ORDER-BY column is the one right after the equality prefix;
  // its encoded bytes end at this many column terminators.
  const size_t ncols = size_t(plan.eq_prefix_len) + 1;
  std::vector<DocId> ids;
  int64_t matches = 0;
  std::string boundary;
  bool bounded = false;
  const size_t visited = index->VisitRange(
      plan.key_range.lo, plan.key_range.hi, plan.topk_reverse,
      [&](std::string_view key, DocId id) {
        const std::string_view prefix =
            key.substr(0, ColumnPrefixEnd(key, ncols));
        if (bounded && prefix != boundary) return false;
        // Tombstone-aware early termination: deleted entries are
        // visited but never consume the cap.
        if (view.IsDeleted(id)) return true;
        if (!plan.filters.empty()) {
          ++stats->docs_filtered;
          DocId one = id;
          if (program.trivially_empty() || program.EvalBatch(&one, 1) == 0) {
            return true;
          }
          ++stats->batch_rows_passed;
        }
        ids.push_back(id);
        if (!bounded && ++matches >= plan.topk_cap) {
          bounded = true;
          boundary.assign(prefix.data(), prefix.size());
        }
        return true;
      });
  stats->postings_considered += visited;
  stats->rows_skipped_by_pushdown += range_total - visited;
  std::sort(ids.begin(), ids.end());
  return PostingList(std::move(ids));
}

}  // namespace

Result<PostingList> EvalPlan(const PlanNode& plan, const SegmentView& view,
                             ExecStats* stats) {
  const Segment& segment = *view;
  switch (plan.kind) {
    case PlanNode::Kind::kEmpty:
      return PostingList();
    case PlanNode::Kind::kFullScan: {
      // Live docs of the pinned epoch: the overlay is applied here
      // (which is why FullScan plans are not filter-cacheable — the
      // live set shrinks as later epochs add tombstones).
      PostingList live = view.LiveDocs();
      stats->postings_considered += live.size();
      return ApplyFilters(segment, std::move(live), plan.filters, stats);
    }
    case PlanNode::Kind::kTermLookup: {
      std::vector<const PostingList*> lists;
      lists.reserve(plan.terms.size());
      for (const std::string& term : plan.terms) {
        const PostingList& list = segment.Postings(plan.field, term);
        stats->postings_considered += list.size();
        if (!list.empty()) lists.push_back(&list);
      }
      return PostingList::UnionAll(std::move(lists));
    }
    case PlanNode::Kind::kTermRange: {
      std::vector<const PostingList*> lists =
          segment.PostingsRange(plan.field, plan.lo_term, plan.hi_term);
      for (const PostingList* list : lists) {
        stats->postings_considered += list->size();
      }
      return PostingList::UnionAll(std::move(lists));
    }
    case PlanNode::Kind::kCompositeScan: {
      const SortedKeyIndex* index = segment.CompositeIndex(plan.index_name);
      if (index == nullptr) {
        return Status::FailedPrecondition("composite index not found: " +
                                          plan.index_name);
      }
      PostingList out = index->ScanRange(plan.key_range.lo, plan.key_range.hi);
      stats->postings_considered += out.size();
      return out;
    }
    case PlanNode::Kind::kDocValueFilter: {
      ESDB_ASSIGN_OR_RETURN(PostingList child,
                            EvalPlan(*plan.children[0], view, stats));
      return ApplyFilters(segment, std::move(child), plan.filters, stats);
    }
    case PlanNode::Kind::kIntersect: {
      std::vector<PostingList> lists;
      lists.reserve(plan.children.size());
      for (const auto& c : plan.children) {
        ESDB_ASSIGN_OR_RETURN(PostingList child, EvalPlan(*c, view, stats));
        if (child.empty()) return PostingList();
        lists.push_back(std::move(child));
      }
      std::vector<const PostingList*> ptrs;
      ptrs.reserve(lists.size());
      for (const PostingList& l : lists) ptrs.push_back(&l);
      return PostingList::IntersectAll(std::move(ptrs));
    }
    case PlanNode::Kind::kUnion: {
      // All children collected first, then one k-way UnionAll merge —
      // the pairwise Union(acc, child) loop this replaces re-merged
      // the accumulator per child (quadratic in total postings).
      std::vector<PostingList> lists;
      lists.reserve(plan.children.size());
      for (const auto& c : plan.children) {
        ESDB_ASSIGN_OR_RETURN(PostingList child, EvalPlan(*c, view, stats));
        if (!child.empty()) lists.push_back(std::move(child));
      }
      std::vector<const PostingList*> ptrs;
      ptrs.reserve(lists.size());
      for (const PostingList& l : lists) ptrs.push_back(&l);
      return PostingList::UnionAll(std::move(ptrs));
    }
    case PlanNode::Kind::kIndexTopK:
      // Already tombstone- and filter-resolved; callers re-checking
      // IsDeleted on the result is a harmless no-op.
      return EvalIndexTopK(plan, view, stats);
    case PlanNode::Kind::kStatsOnly:
      // Reaching plan evaluation means the stats fast path did not
      // apply to this segment (tombstones present, or a row query);
      // fall back to the wrapped scan plan, which is always correct.
      return EvalPlan(*plan.children[0], view, stats);
  }
  return Status::Internal("unknown plan node");
}

namespace {

// True when the query sorts by or selects _score (scoring must run).
bool NeedsScoring(const Query& query) {
  for (const OrderBy& ob : query.order_by) {
    if (ob.column == kFieldScore) return true;
  }
  if (!query.select_columns.empty()) {
    for (const std::string& col : query.select_columns) {
      if (col == kFieldScore) return true;
    }
  }
  return false;
}

// Walks `e` collecting MATCH predicates (negated matches do not
// contribute to relevance, mirroring Lucene's must_not).
void CollectMatches(const Expr& e, bool negated,
                    std::vector<const Predicate*>* out) {
  switch (e.kind) {
    case Expr::Kind::kPred:
      if (!negated && e.pred.op == PredOp::kMatch) out->push_back(&e.pred);
      return;
    case Expr::Kind::kNot:
      CollectMatches(*e.children[0], !negated, out);
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      for (const auto& c : e.children) CollectMatches(*c, negated, out);
      return;
  }
}

// BM25 corpus statistics of one query over one pinned shard snapshot.
// N and every document frequency count the snapshot's live docs, so
// the statistics — and every _score — do not depend on how refreshes,
// merges or migrations cut those docs into segments.
struct ScoreStats {
  struct Match {
    const std::string* column = nullptr;  // into the query's WHERE
    std::vector<std::string> tokens;      // query tokens, in order
    std::vector<double> doc_freq;         // live docs holding each token
  };
  std::vector<Match> matches;
  double num_docs = 0;
};

Result<ScoreStats> CollectScoreStats(const Expr* where,
                                     const ShardView& snapshot) {
  ScoreStats out;
  std::vector<const Predicate*> preds;
  if (where != nullptr) CollectMatches(*where, false, &preds);
  for (const Predicate* pred : preds) {
    if (!pred->args[0].is_string()) continue;
    ScoreStats::Match match;
    match.column = &pred->column;
    match.tokens = Tokenize(pred->args[0].as_string());
    match.doc_freq.assign(match.tokens.size(), 0);
    out.matches.push_back(std::move(match));
  }
  if (out.matches.empty()) return out;
  for (const SegmentView& raw : snapshot) {
    ESDB_ASSIGN_OR_RETURN(const SegmentView view, raw.Pinned());
    out.num_docs += double(view.num_live_docs());
    for (ScoreStats::Match& match : out.matches) {
      for (size_t t = 0; t < match.tokens.size(); ++t) {
        const PostingList& list =
            view->Postings(*match.column, match.tokens[t]);
        size_t live = list.size();
        if (view.num_deleted() != 0) {
          for (DocId id : list.ids()) live -= view.IsDeleted(id) ? 1 : 0;
        }
        match.doc_freq[t] += double(live);
      }
    }
  }
  return out;
}

// Relevance of `doc` against the query's MATCH predicates:
//   score = sum over query tokens of idf(t) * tf / (tf + k1)
// with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) from `corpus`,
// and tf counted by re-analyzing the doc's text.
double ScoreDocument(const ScoreStats& corpus, const Document& doc) {
  constexpr double kK1 = 1.2;  // BM25 term-frequency saturation
  double score = 0;
  for (const ScoreStats::Match& match : corpus.matches) {
    const Value& field_value = doc.Get(*match.column);
    if (!field_value.is_string()) continue;
    const std::vector<std::string> doc_tokens =
        Tokenize(field_value.as_string());
    for (size_t i = 0; i < match.tokens.size(); ++i) {
      double tf = 0;
      for (const std::string& t : doc_tokens) {
        if (t == match.tokens[i]) tf += 1;
      }
      if (tf == 0) continue;
      const double df = match.doc_freq[i];
      const double idf =
          std::log(1.0 + (corpus.num_docs - df + 0.5) / (df + 0.5));
      score += idf * tf / (tf + kK1);
    }
  }
  return score;
}

// Relevance score without decoding the stored document: the MATCH
// columns' text is read from doc values into a scratch doc. Produces
// the same value as ScoreDocument on the materialized document (the
// doc-value column holds the identical field text).
double ScoreFromDocValues(const ScoreStats& corpus, const Segment& segment,
                          DocId id) {
  Document scratch;
  for (const ScoreStats::Match& match : corpus.matches) {
    scratch.Set(*match.column, ResolveFieldValue(segment, id, *match.column));
  }
  return ScoreDocument(corpus, scratch);
}

// Answers an aggregate for one segment from its stats / index bounds
// (kStatsOnly fast path). Returns false when the segment must fall
// back to the wrapped scan plan: any tombstone invalidates the
// precomputed counts, and index-bound MIN/MAX needs the composite
// index present. Merging follows batch::Aggregator's exact rules
// (strict Compare, segment order) so answers are byte-identical to
// scanning.
[[nodiscard]] Result<bool> TryStatsOnly(const Query& query,
                                        const PlanNode& plan,
                                        const SegmentView& view,
                                        QueryResult* result,
                                        ExecStats* stats) {
  if (view.num_deleted() != 0) return false;
  const Segment& segment = *view;
  if (plan.index_name.empty()) {
    // Whole-segment variant (unfiltered COUNT/MIN/MAX).
    const uint64_t n = segment.num_docs();
    if (query.agg != AggFunc::kCount) {
      const ColumnStats* cs = segment.column_stats();
      if (cs == nullptr) return false;
      const ColumnSketch* sk = cs->Find(query.agg_column);
      // A missing sketch means the column is absent (all nulls) in
      // this segment — scanning would contribute nothing either.
      if (sk != nullptr && sk->non_null > 0) {
        // Only the requested extremum, matching Aggregator; sum is
        // never stats-answered (cross-segment float addition order).
        if (query.agg == AggFunc::kMin) {
          if (!result->agg_min || sk->min.Compare(*result->agg_min) < 0) {
            result->agg_min = sk->min;
          }
        } else if (query.agg == AggFunc::kMax) {
          if (!result->agg_max || sk->max.Compare(*result->agg_max) > 0) {
            result->agg_max = sk->max;
          }
        } else {
          return false;  // SUM/AVG are never stats-answerable
        }
      }
    }
    result->total_matched += n;
    result->agg_count += n;
    ++stats->stats_only_answers;
    return true;
  }
  // Index-bound variant: COUNT/MIN/MAX under a pure equality prefix.
  // The composite index holds one entry per doc (null-padded), so the
  // range count IS the match count, and the extremum of the column
  // after the prefix sits at the range edges.
  const SortedKeyIndex* index = segment.CompositeIndex(plan.index_name);
  if (index == nullptr) return false;
  const std::string& lo = plan.key_range.lo;
  const std::string& hi = plan.key_range.hi;
  const size_t count = index->CountRange(lo, hi);
  result->total_matched += count;
  result->agg_count += count;
  if (query.agg != AggFunc::kCount && count > 0) {
    // Non-null sub-range: nulls sort first, so skipping the encoded
    // null column (plus kAfter, as MakeKeyRange does for inclusive
    // bounds) lands on the first non-null entry.
    std::string lo_nonnull = lo;
    AppendEncodedColumn(&lo_nonnull, Value::Null());
    lo_nonnull.push_back('\xff');
    if (index->CountRange(lo_nonnull, hi) > 0) {
      // Entries sort by (order column, later columns, doc id): every
      // compare-equal extremum shares one encoded-column run, and the
      // smallest doc id IN the run is the doc a sequential doc-order
      // scan would have kept (first occurrence wins ties). Walk the
      // edge run to find it.
      const size_t ncols = size_t(plan.eq_prefix_len) + 1;
      const bool want_max = query.agg == AggFunc::kMax;
      std::string run;
      DocId best = 0;
      bool have = false;
      index->VisitRange(lo_nonnull, hi, /*reverse=*/want_max,
                        [&](std::string_view key, DocId id) {
                          const std::string_view prefix =
                              key.substr(0, ColumnPrefixEnd(key, ncols));
                          if (!have) {
                            run.assign(prefix.data(), prefix.size());
                            best = id;
                            have = true;
                            return true;
                          }
                          if (prefix != run) return false;
                          best = std::min(best, id);
                          return true;
                        });
      const Value v = ResolveFieldValue(segment, best, query.agg_column);
      if (query.agg == AggFunc::kMin) {
        if (!result->agg_min || v.Compare(*result->agg_min) < 0) {
          result->agg_min = v;
        }
      } else if (!result->agg_max || v.Compare(*result->agg_max) > 0) {
        result->agg_max = v;
      }
    }
  }
  ++stats->stats_only_answers;
  return true;
}

}  // namespace

Result<PostingList> EvalPlanCached(const PlanNode& plan,
                                   const SegmentView& view, ExecStats* stats,
                                   FilterCache* cache, uint64_t cache_domain,
                                   const std::string& fingerprint) {
  if (cache == nullptr || fingerprint.empty()) {
    return EvalPlan(plan, view, stats);
  }
  PostingList cached;
  if (cache->Get(cache_domain, view.id(), fingerprint, &cached)) {
    return cached;
  }
  ESDB_ASSIGN_OR_RETURN(PostingList candidates, EvalPlan(plan, view, stats));
  cache->Put(cache_domain, view.id(), fingerprint, candidates);
  return candidates;
}

Result<QueryResult> ExecuteOnShard(
    const Query& query, const PlanNode& plan, const ShardView& snapshot,
    ExecStats* stats, FilterCache* cache, uint64_t cache_domain,
    const ExecOptions&) {
  if (query.agg == AggFunc::kNone && query.group_by.empty()) {
    return Status::InvalidArgument(
        "row queries run through the query and fetch phases");
  }
  const std::string fingerprint =
      (cache != nullptr && IsCacheable(plan)) ? PlanFingerprint(plan)
                                              : std::string();
  QueryResult result;
  // kStatsOnly applies per segment, and only to ungrouped aggregates.
  const bool try_stats_only =
      plan.kind == PlanNode::Kind::kStatsOnly && query.group_by.empty();
  // A bare full scan needs no candidate list on a tombstone-free
  // segment: every doc id 0..n-1 is live and matches.
  const bool bare_full_scan =
      plan.kind == PlanNode::Kind::kFullScan && plan.filters.empty();
  batch::Aggregator aggregator(query, &result, stats);

  for (const SegmentView& raw : snapshot) {
    ++stats->segments_visited;
    // One pin per segment per query: a cold segment's decoded index
    // part is materialized through the block cache here (first touch
    // decompresses; later queries hit) and stays alive for the whole
    // scan.
    ESDB_ASSIGN_OR_RETURN(const SegmentView view, raw.Pinned());
    if (try_stats_only) {
      ESDB_ASSIGN_OR_RETURN(const bool answered,
                            TryStatsOnly(query, plan, view, &result, stats));
      if (answered) continue;
    }
    aggregator.BeginSegment(*view);
    if (bare_full_scan && view.num_deleted() == 0) {
      const DocId n = DocId(view.num_docs());
      stats->postings_considered += n;
      result.total_matched += n;
      for (DocId id = 0; id < n; ++id) aggregator.Add(id);
      continue;
    }
    ESDB_ASSIGN_OR_RETURN(PostingList candidates,
                          EvalPlanCached(plan, view, stats, cache,
                                         cache_domain, fingerprint));
    for (DocId id : candidates.ids()) {
      if (view.IsDeleted(id)) continue;
      ++result.total_matched;
      aggregator.Add(id);
    }
  }
  return result;
}

Result<std::vector<RowRef>> ExecuteQueryPhase(
    const Query& query, const PlanNode& plan, const ShardView& snapshot,
    uint32_t shard_ordinal, ExecStats* stats, uint64_t* total_matched,
    bool* total_matched_exact, FilterCache* cache, uint64_t cache_domain,
    const ExecOptions&) {
  if (query.agg != AggFunc::kNone || !query.group_by.empty()) {
    return Status::InvalidArgument(
        "query phase only applies to row queries");
  }
  const std::string fingerprint =
      (cache != nullptr && IsCacheable(plan)) ? PlanFingerprint(plan)
                                              : std::string();
  const bool scoring = NeedsScoring(query);
  ScoreStats corpus;
  if (scoring) {
    ESDB_ASSIGN_OR_RETURN(corpus,
                          CollectScoreStats(query.where.get(), snapshot));
  }
  const bool can_early_stop = query.order_by.empty() && query.limit >= 0;
  const int64_t local_cap =
      query.limit >= 0 ? query.limit + query.offset : -1;
  const uint64_t pushdown_skips_before = stats->rows_skipped_by_pushdown;

  std::vector<RowRef> refs;
  std::vector<batch::SlotSource> order_sources;
  for (uint32_t segment_ordinal = 0; segment_ordinal < snapshot.size();
       ++segment_ordinal) {
    // Same one-pin-per-segment discipline as ExecuteOnShard.
    ESDB_ASSIGN_OR_RETURN(const SegmentView view,
                          snapshot[segment_ordinal].Pinned());
    ++stats->segments_visited;
    ESDB_ASSIGN_OR_RETURN(PostingList candidates,
                          EvalPlanCached(plan, view, stats, cache,
                                         cache_domain, fingerprint));
    if (candidates.empty()) continue;
    // Each ORDER BY column resolves to a slot source once per segment,
    // not once per (doc, column).
    order_sources.clear();
    for (const OrderBy& ob : query.order_by) {
      order_sources.push_back(batch::SlotSource::Resolve(*view, ob.column));
    }
    for (DocId id : candidates.ids()) {
      if (view.IsDeleted(id)) continue;
      ++(*total_matched);
      RowRef ref;
      ref.shard_ordinal = shard_ordinal;
      ref.segment_ordinal = segment_ordinal;
      ref.doc = id;
      // Sort keys from doc values only — the whole point of the query
      // phase is to avoid decoding stored documents for losers.
      for (size_t k = 0; k < query.order_by.size(); ++k) {
        const OrderBy& ob = query.order_by[k];
        if (ob.column == kFieldScore && scoring) {
          ref.sort_keys.emplace_back(ScoreFromDocValues(corpus, *view, id));
        } else {
          ref.sort_keys.push_back(
              batch::SlotToValue(order_sources[k].Read(id)));
        }
      }
      refs.push_back(std::move(ref));
      if (can_early_stop && int64_t(refs.size()) >= local_cap) {
        if (total_matched_exact != nullptr) *total_matched_exact = false;
        return refs;
      }
    }
  }
  if (total_matched_exact != nullptr &&
      stats->rows_skipped_by_pushdown != pushdown_skips_before) {
    *total_matched_exact = false;
  }
  if (!query.order_by.empty() && local_cap >= 0 &&
      int64_t(refs.size()) > local_cap) {
    SortRowRefs(query, &refs);
    refs.resize(size_t(local_cap));
  }
  return refs;
}

void SortRowRefs(const Query& query, std::vector<RowRef>* refs) {
  std::stable_sort(refs->begin(), refs->end(),
                   [&](const RowRef& a, const RowRef& b) {
                     for (size_t i = 0; i < query.order_by.size(); ++i) {
                       const int c = a.sort_keys[i].Compare(b.sort_keys[i]);
                       if (c != 0) {
                         return query.order_by[i].descending ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
}

Result<std::vector<Document>> ExecuteFetchPhase(
    const Query& query, const std::vector<SegmentSnapshot>& snapshots,
    const std::vector<RowRef>& refs, ExecStats* stats, const ExecOptions&) {
  const bool scoring = NeedsScoring(query);
  // Per shard, computed on its first winner: the query phase scored
  // against the same pinned snapshot, so the statistics agree.
  std::vector<std::optional<ScoreStats>> corpora(scoring ? snapshots.size()
                                                         : 0);
  std::vector<Document> rows;
  rows.reserve(refs.size());
  for (const RowRef& ref : refs) {
    // Winners-only materialization: fetch pins the segment and reads
    // exactly the winning docs (for a cold segment: one row-block
    // decompression per winner, usually cache-adjacent).
    ESDB_ASSIGN_OR_RETURN(
        const SegmentView view,
        (*snapshots[ref.shard_ordinal])[ref.segment_ordinal].Pinned());
    ESDB_ASSIGN_OR_RETURN(Document doc, view.GetDocument(ref.doc));
    ++stats->rows_materialized;
    if (scoring) {
      std::optional<ScoreStats>& corpus = corpora[ref.shard_ordinal];
      if (!corpus) {
        ESDB_ASSIGN_OR_RETURN(
            corpus, CollectScoreStats(query.where.get(),
                                      *snapshots[ref.shard_ordinal]));
      }
      doc.Set(kFieldScore, Value(ScoreDocument(*corpus, doc)));
    }
    rows.push_back(std::move(doc));
  }
  return rows;
}

void ProjectRows(const Query& query, std::vector<Document>* rows) {
  if (query.select_columns.empty()) return;
  for (Document& doc : *rows) {
    Document projected;
    for (const std::string& col : query.select_columns) {
      projected.Set(col, ResolveFieldValue(doc, col));
    }
    doc = std::move(projected);
  }
}

void GroupStats::Merge(const GroupStats& other) {
  count += other.count;
  sum += other.sum;
  if (other.min && (!min || other.min->Compare(*min) < 0)) min = other.min;
  if (other.max && (!max || other.max->Compare(*max) > 0)) max = other.max;
}

QueryResult AggregateResults(const Query&,
                             std::vector<QueryResult> shard_results) {
  QueryResult merged;
  for (QueryResult& r : shard_results) {
    merged.total_matched += r.total_matched;
    merged.agg_count += r.agg_count;
    merged.agg_sum += r.agg_sum;
    if (r.agg_min && (!merged.agg_min ||
                      r.agg_min->Compare(*merged.agg_min) < 0)) {
      merged.agg_min = r.agg_min;
    }
    if (r.agg_max && (!merged.agg_max ||
                      r.agg_max->Compare(*merged.agg_max) > 0)) {
      merged.agg_max = r.agg_max;
    }
    for (auto& [key, group] : r.groups) merged.groups[key].Merge(group);
  }
  return merged;
}

}  // namespace esdb
