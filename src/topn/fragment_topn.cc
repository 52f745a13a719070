#include "topn/fragment_topn.h"

#include <algorithm>
#include <unordered_set>

#include "obs/query_trace.h"

namespace moa {
namespace {

/// Accumulates postings of `terms` into `acc`, ticking seq + score.
/// Cursor-based, so the same pass runs over the in-memory file, a mmap
/// segment or a catalog snapshot (tombstones already filtered).
void AccumulateTerms(const PostingSource& source, const ScoringModel& model,
                     const std::vector<TermId>& terms,
                     std::vector<double>* acc) {
  for (TermId t : terms) {
    for (auto cursor = source.OpenCursor(t); !cursor->at_end();
         cursor->next()) {
      CostTicker::TickSeq();
      CostTicker::TickScore();
      const Posting p{cursor->doc(), cursor->tf()};
      (*acc)[p.doc] += model.Weight(t, p);
    }
  }
}

/// Bounded heap selection of the best n from a dense score array.
std::vector<ScoredDoc> HeapSelect(const std::vector<double>& acc, size_t n) {
  auto weakest_first = [](const ScoredDoc& a, const ScoredDoc& b) {
    CostTicker::TickCompare();
    return ScoredDocLess(a, b);
  };
  std::vector<ScoredDoc> heap;
  heap.reserve(n);
  for (DocId d = 0; d < acc.size(); ++d) {
    if (acc[d] <= 0.0) continue;
    const ScoredDoc sd{d, acc[d]};
    if (heap.size() < n) {
      heap.push_back(sd);
      std::push_heap(heap.begin(), heap.end(), weakest_first);
    } else if (n > 0 && ScoredDocLess(sd, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), weakest_first);
      heap.back() = sd;
      std::push_heap(heap.begin(), heap.end(), weakest_first);
    }
  }
  // sort_heap under this comparator leaves the best element first.
  std::sort_heap(heap.begin(), heap.end(), weakest_first);
  return heap;
}

/// Splits query terms by fragment.
void SplitQuery(const Fragmentation& frag, const Query& query,
                std::vector<TermId>* small_terms,
                std::vector<TermId>* large_terms) {
  for (TermId t : query.terms) {
    if (frag.in_small(t)) {
      small_terms->push_back(t);
    } else {
      large_terms->push_back(t);
    }
  }
}

int64_t CountCandidates(const std::vector<double>& acc) {
  int64_t c = 0;
  for (double s : acc) c += (s > 0.0) ? 1 : 0;
  return c;
}

}  // namespace

TopNResult SmallFragmentTopN(const PostingSource& source,
                             const Fragmentation& frag,
                             const ScoringModel& model, const Query& query,
                             size_t n) {
  TopNResult result;
  CostScope scope;
  std::vector<TermId> small_terms, large_terms;
  SplitQuery(frag, query, &small_terms, &large_terms);

  std::vector<double> acc(source.num_docs(), 0.0);
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    AccumulateTerms(source, model, small_terms, &acc);
  }
  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    result.items = HeapSelect(acc, n);
  }
  result.stats.candidates = CountCandidates(acc);
  result.stats.stopped_early = !large_terms.empty();
  result.stats.cost = scope.Snapshot();
  return result;
}

Result<TopNResult> QualitySwitchTopN(const PostingSource& source,
                                     const Fragmentation& frag,
                                     const ScoringModel& model,
                                     const Query& query, size_t n,
                                     const QualitySwitchOptions& options) {
  // Negated, so that a NaN, which no `potential > threshold * nth` test
  // would ever pass, is refused too.
  if (!(options.switch_threshold >= 0.0)) {
    return Status::InvalidArgument("switch_threshold must be >= 0");
  }
  TopNResult result;
  CostScope scope;
  std::vector<TermId> small_terms, large_terms;
  SplitQuery(frag, query, &small_terms, &large_terms);

  // Phase 1: cheap small-fragment pass. The whole small-pass + optional
  // large-fragment completion is one accumulate span — the quality check
  // in between is part of deciding how much accumulation to do.
  std::vector<double> acc(source.num_docs(), 0.0);
  bool process_large = false;
  {
  obs::TraceSpan accumulate_span(obs::kStageAccumulate);
  AccumulateTerms(source, model, small_terms, &acc);

  if (!large_terms.empty() && options.mode != LargeFragmentMode::kSkip) {
    // Early quality check: can the large fragment still change the top n?
    // Upper bound of its contribution to any single document:
    double potential = 0.0;
    for (TermId t : large_terms) {
      if (source.DocFrequency(t) == 0) continue;
      if (!source.HasImpacts(t)) {
        return Status::FailedPrecondition(
            "QualitySwitchTopN requires impact orders for upper bounds");
      }
      potential += source.MaxImpact(t);
    }
    // Current n-th best from the small fragment alone.
    std::vector<ScoredDoc> tentative = HeapSelect(acc, n);
    const double nth =
        tentative.size() >= n && n > 0 ? tentative.back().score : 0.0;
    process_large = potential > options.switch_threshold * nth;
  }

  if (process_large) {
    result.stats.used_large_fragment = true;
    switch (options.mode) {
      case LargeFragmentMode::kSkip:
        break;  // unreachable (guarded above)
      case LargeFragmentMode::kFullScan:
        AccumulateTerms(source, model, large_terms, &acc);
        break;
      case LargeFragmentMode::kSparseProbe: {
        // Candidate pool: the best small-fragment accumulations plus, per
        // large-fragment term, the champions from its impact-order prefix
        // (so documents carried purely by frequent terms are reachable).
        const size_t pool_size =
            options.candidate_pool > 0 ? options.candidate_pool : 4 * n;
        const size_t champions =
            options.champions > 0 ? options.champions : 4 * n;
        std::vector<ScoredDoc> pool = HeapSelect(acc, pool_size);
        std::unordered_set<DocId> pooled;
        for (const ScoredDoc& sd : pool) pooled.insert(sd.doc);
        for (TermId t : large_terms) {
          // DocFrequency may overstate the actual list (a sharded view
          // reports global df over a shard-local list), so the cursor's
          // own end is the authoritative stop.
          const size_t k =
              std::min<size_t>(champions, source.DocFrequency(t));
          auto impact = source.OpenImpactCursor(t, model);
          for (size_t i = 0; i < k && !impact->at_end(); ++i, impact->next()) {
            CostTicker::TickSeq();
            const DocId d = impact->doc();
            if (pooled.insert(d).second) pool.push_back(ScoredDoc{d, acc[d]});
          }
        }
        // Zero-copy fast path: when the source adapts an in-memory file,
        // the sparse index borrows the existing list instead of
        // materializing a per-query copy through the cursor.
        const auto* in_memory =
            dynamic_cast<const InMemoryPostingSource*>(&source);
        for (TermId t : large_terms) {
          if (source.DocFrequency(t) == 0) continue;
          const PostingList* borrowed =
              in_memory != nullptr ? &in_memory->file()->list(t) : nullptr;
          const SparseIndex* index = nullptr;
          PostingList local_list;
          SparseIndex local;
          if (options.sparse_cache != nullptr) {
            index = borrowed != nullptr
                        ? options.sparse_cache->GetOrBuild(
                              t, *borrowed, options.sparse_block)
                        : options.sparse_cache->GetOrBuild(
                              t, source, options.sparse_block);
          } else if (borrowed != nullptr) {
            local = SparseIndex(borrowed, options.sparse_block);
            index = &local;
          } else {
            for (auto cursor = source.OpenCursor(t); !cursor->at_end();
                 cursor->next()) {
              local_list.Append(cursor->doc(), cursor->tf());
            }
            local = SparseIndex(&local_list, options.sparse_block);
            index = &local;
          }
          for (const ScoredDoc& sd : pool) {
            ++result.stats.random_accesses;
            auto tf = index->Probe(sd.doc);
            if (tf.has_value()) {
              CostTicker::TickScore();
              acc[sd.doc] += model.Weight(t, Posting{sd.doc, *tf});
            }
          }
        }
        break;
      }
    }
  }
  }  // accumulate span

  {
    obs::TraceSpan span(obs::kStageHeapMerge);
    result.items = HeapSelect(acc, n);
  }
  result.stats.candidates = CountCandidates(acc);
  result.stats.stopped_early = !large_terms.empty() && !process_large;
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
