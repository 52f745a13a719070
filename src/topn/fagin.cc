#include "topn/fagin.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "obs/query_trace.h"

namespace moa {
namespace {

/// Per-query-term sorted and random access: an impact cursor over the
/// term's postings in descending-weight order, whose FindWeight also
/// serves the random probes. Works over any PostingSource — the in-memory
/// file serves its materialized impact order, a catalog shard view the
/// impact order its snapshot built on the term's first use (normally its
/// bound), and a bare segment scores the list into a fresh, lazily sorted
/// ImpactOrder per call.
struct ListAccess {
  std::unique_ptr<ImpactCursor> cursor;

  bool exhausted() const { return cursor->at_end(); }
  /// Sorted-access threshold: weight at the cursor (0 once exhausted).
  double threshold() const {
    return exhausted() ? 0.0 : cursor->weight();
  }
};

/// Builds sorted accessors for all query terms with non-empty lists;
/// fails if the source has no impact metadata for one of them.
Result<std::vector<ListAccess>> MakeAccessors(const PostingSource& source,
                                              const ScoringModel& model,
                                              const Query& query) {
  std::vector<ListAccess> accessors;
  for (TermId t : query.terms) {
    if (source.DocFrequency(t) == 0) continue;
    if (!source.HasImpacts(t)) {
      return Status::FailedPrecondition(
          "Fagin algorithms require impact orders; call "
          "InvertedFile::BuildImpactOrders first");
    }
    accessors.push_back(ListAccess{source.OpenImpactCursor(t, model)});
  }
  return accessors;
}

/// Random access: weight of `doc` in `accessor`'s list (0 if absent), as
/// its sorted access emits it. A hit ticks one score on every storage, so
/// the work ticks do not depend on whether the weight was stored.
double RandomAccessWeight(const ListAccess& accessor, DocId doc,
                          TopNStats* stats) {
  ++stats->random_accesses;
  const std::optional<double> weight =
      accessor.cursor->FindWeight(doc);  // ticks one random read
  if (!weight.has_value()) return 0.0;
  CostTicker::TickScore();
  return *weight;
}

/// Bounded best-n tracker (min-heap on ScoredDocLess; front = weakest).
class BestN {
 public:
  explicit BestN(size_t n) : n_(n) {}

  void Offer(const ScoredDoc& sd) {
    if (n_ == 0) return;
    if (heap_.size() < n_) {
      heap_.push_back(sd);
      std::push_heap(heap_.begin(), heap_.end(), WeakestFirst);
    } else if (ScoredDocLess(sd, heap_.front())) {
      CostTicker::TickCompare();
      std::pop_heap(heap_.begin(), heap_.end(), WeakestFirst);
      heap_.back() = sd;
      std::push_heap(heap_.begin(), heap_.end(), WeakestFirst);
    }
  }

  bool full() const { return heap_.size() >= n_; }
  /// Score of the weakest member (the "n-th best so far").
  double nth_score() const { return heap_.front().score; }

  std::vector<ScoredDoc> TakeSortedDesc() {
    std::sort(heap_.begin(), heap_.end(), ScoredDocLess);
    return std::move(heap_);
  }

 private:
  static bool WeakestFirst(const ScoredDoc& a, const ScoredDoc& b) {
    CostTicker::TickCompare();
    return ScoredDocLess(a, b);
  }

  size_t n_;
  std::vector<ScoredDoc> heap_;
};

}  // namespace

// ---------------------------------------------------------------------------
// TA
// ---------------------------------------------------------------------------

Result<TopNResult> FaginTA(const PostingSource& source,
                           const ScoringModel& model, const Query& query,
                           size_t n, const FaginOptions& options) {
  (void)options;
  TopNResult result;
  CostScope scope;
  std::vector<ListAccess> accessors;
  {
    obs::TraceSpan span(obs::kStageCursorOpen);
    Result<std::vector<ListAccess>> accessors_or =
        MakeAccessors(source, model, query);
    if (!accessors_or.ok()) return accessors_or.status();
    accessors = std::move(accessors_or).ValueOrDie();
  }

  BestN best(n);
  std::unordered_set<DocId> resolved;
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    bool done = accessors.empty() || n == 0;
    while (!done) {
      bool any_advanced = false;
      for (size_t i = 0; i < accessors.size(); ++i) {
        ListAccess& cur = accessors[i];
        if (cur.exhausted()) continue;
        any_advanced = true;
        const DocId doc = cur.cursor->doc();
        const double w = cur.cursor->weight();
        cur.cursor->next();
        ++result.stats.sorted_accesses;
        CostTicker::TickSeq();

        if (resolved.insert(doc).second) {
          ++result.stats.candidates;
          // Complete the score via random access to every other list. The
          // sorted-access weight `w` is folded in at accessor position i so
          // the floating-point addition order is always the accessor order,
          // independent of which list surfaced the document first — that
          // order depends on the *other* documents in the source, and
          // keeping it out of the sum makes TA scores bit-identical across
          // physical partitionings of the document space.
          double score = 0.0;
          for (size_t j = 0; j < accessors.size(); ++j) {
            score += (j == i) ? w
                              : RandomAccessWeight(accessors[j], doc,
                                                   &result.stats);
          }
          best.Offer(ScoredDoc{doc, score});
        }
      }
      // Threshold: best possible score of any unseen document.
      double tau = 0.0;
      for (const auto& cur : accessors) tau += cur.threshold();
      if (best.full() && best.nth_score() >= tau) {
        result.stats.stopped_early = any_advanced;
        done = true;
      } else if (!any_advanced) {
        done = true;  // every list exhausted
      }
    }
  }
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    result.items = best.TakeSortedDesc();
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// FA
// ---------------------------------------------------------------------------

Result<TopNResult> FaginFA(const PostingSource& source,
                           const ScoringModel& model, const Query& query,
                           size_t n, const FaginOptions& options) {
  (void)options;
  TopNResult result;
  CostScope scope;
  std::vector<ListAccess> accessors;
  {
    obs::TraceSpan span(obs::kStageCursorOpen);
    Result<std::vector<ListAccess>> accessors_or =
        MakeAccessors(source, model, query);
    if (!accessors_or.ok()) return accessors_or.status();
    accessors = std::move(accessors_or).ValueOrDie();
  }
  const size_t m = accessors.size();

  if (m == 0 || n == 0) {
    result.stats.cost = scope.Snapshot();
    return result;
  }
  if (m > 64) {
    return Status::InvalidArgument("FA supports at most 64 query terms");
  }

  // Phase 1: round-robin sorted access until n documents have been "fully
  // seen". Sparse-list adaptation: a document counts as seen in list i if
  // it appeared there under sorted access OR list i is exhausted (absence
  // means weight 0, and 0 >= the exhausted list's threshold of 0, so the
  // classical FA dominance argument still holds).
  const uint64_t all_mask = (m == 64) ? ~0ULL : ((1ULL << m) - 1);
  std::unordered_map<DocId, uint64_t> seen_mask;  // doc -> lists seen via SA
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    uint64_t exhausted_mask = 0;
    size_t fully_seen = 0;
    int round = 0;
    for (;;) {
      bool advanced = false;
      for (size_t i = 0; i < m; ++i) {
        ListAccess& cur = accessors[i];
        if (cur.exhausted()) {
          exhausted_mask |= (1ULL << i);
          continue;
        }
        advanced = true;
        const DocId doc = cur.cursor->doc();
        cur.cursor->next();
        ++result.stats.sorted_accesses;
        CostTicker::TickSeq();
        seen_mask[doc] |= (1ULL << i);
        if (cur.exhausted()) exhausted_mask |= (1ULL << i);
      }
      if (!advanced) break;  // every list exhausted: everything is seen
      // Recount fully-seen docs periodically (counting is O(candidates); the
      // stop may fire a few rounds late, which is safe, never wrong).
      if (++round % 8 == 0 || (exhausted_mask != 0)) {
        fully_seen = 0;
        for (const auto& [doc, mask] : seen_mask) {
          CostTicker::TickCompare();
          if ((mask | exhausted_mask) == all_mask) ++fully_seen;
        }
        if (fully_seen >= n) break;
      }
    }
  }
  result.stats.stopped_early =
      std::any_of(accessors.begin(), accessors.end(),
                  [](const ListAccess& c) { return !c.exhausted(); });

  // Phase 2: random-access completion of every seen document (each doc's
  // full score is recomputed via random access; the true top-n is a subset
  // of the seen set by the dominance argument above).
  BestN best(n);
  result.stats.candidates = static_cast<int64_t>(seen_mask.size());
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    for (const auto& [doc, mask] : seen_mask) {
      double score = 0.0;
      for (const auto& cur : accessors) {
        score += RandomAccessWeight(cur, doc, &result.stats);
      }
      best.Offer(ScoredDoc{doc, score});
    }
    result.items = best.TakeSortedDesc();
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// NRA
// ---------------------------------------------------------------------------

Result<TopNResult> FaginNRA(const PostingSource& source,
                            const ScoringModel& model, const Query& query,
                            size_t n, const FaginOptions& options) {
  TopNResult result;
  CostScope scope;
  std::vector<ListAccess> accessors;
  {
    obs::TraceSpan span(obs::kStageCursorOpen);
    Result<std::vector<ListAccess>> accessors_or =
        MakeAccessors(source, model, query);
    if (!accessors_or.ok()) return accessors_or.status();
    accessors = std::move(accessors_or).ValueOrDie();
  }
  const size_t m = accessors.size();

  if (m == 0 || n == 0) {
    result.stats.cost = scope.Snapshot();
    return result;
  }
  if (m > 64) {
    return Status::InvalidArgument("NRA supports at most 64 query terms");
  }

  struct Candidate {
    double lower = 0.0;
    uint64_t seen_mask = 0;
  };
  std::unordered_map<DocId, Candidate> cand;

  int64_t accesses_since_check = 0;
  bool done = false;
  // Closed explicitly before the final emit (the loop has two exits).
  std::optional<obs::TraceSpan> accumulate_span(
      std::in_place, obs::kStageAccumulate);
  while (!done) {
    bool advanced = false;
    for (size_t i = 0; i < m; ++i) {
      ListAccess& cur = accessors[i];
      if (cur.exhausted()) continue;
      advanced = true;
      const DocId doc = cur.cursor->doc();
      const double w = cur.cursor->weight();
      cur.cursor->next();
      ++result.stats.sorted_accesses;
      ++accesses_since_check;
      CostTicker::TickSeq();
      Candidate& c = cand[doc];
      c.lower += w;
      c.seen_mask |= (1ULL << i);
    }
    if (!advanced) {
      done = true;  // all exhausted: lower bounds are exact
      break;
    }
    if (accesses_since_check < options.check_every) continue;
    accesses_since_check = 0;

    // Stop test. thresholds[i] = weight at cursor i.
    double thresholds[64];
    for (size_t i = 0; i < m; ++i) thresholds[i] = accessors[i].threshold();

    // n-th best candidate by (lower bound desc, doc asc) — the tentative
    // top-n set under the library's deterministic tie order.
    if (cand.size() < n) continue;
    std::vector<std::pair<double, DocId>> ranked;  // (-lower, doc): asc order
    ranked.reserve(cand.size());
    for (const auto& [doc, c] : cand) ranked.emplace_back(-c.lower, doc);
    std::nth_element(ranked.begin(), ranked.begin() + (n - 1), ranked.end());
    const auto kth = ranked[n - 1];
    const double kth_lower = -kth.first;

    // Upper bound of any completely unseen document.
    double max_other_upper = 0.0;
    for (size_t i = 0; i < m; ++i) max_other_upper += thresholds[i];
    bool ok_to_stop = kth_lower >= max_other_upper;  // unseen docs ruled out
    if (ok_to_stop) {
      for (const auto& [doc, c] : cand) {
        if (std::make_pair(-c.lower, doc) <= kth) continue;  // in the top n
        double upper = c.lower;
        for (size_t i = 0; i < m; ++i) {
          if (!(c.seen_mask & (1ULL << i))) upper += thresholds[i];
        }
        CostTicker::TickCompare();
        if (upper > kth_lower) {
          ok_to_stop = false;
          break;
        }
      }
    }
    if (ok_to_stop) {
      result.stats.stopped_early = true;
      done = true;
    }
  }

  accumulate_span.reset();

  // Emit the n best by lower bound (exact set per NRA guarantee).
  BestN best(n);
  result.stats.candidates = static_cast<int64_t>(cand.size());
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    for (const auto& [doc, c] : cand) best.Offer(ScoredDoc{doc, c.lower});
    result.items = best.TakeSortedDesc();
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
