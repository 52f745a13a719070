#include "topn/stop_after.h"

#include <algorithm>
#include <cmath>

#include "common/histogram.h"
#include "common/rng.h"
#include "ir/exact_eval.h"
#include "obs/query_trace.h"
#include "topn/block_max.h"

namespace moa {
namespace {

/// Bounded sort-stop over an explicit candidate buffer.
std::vector<ScoredDoc> SortStop(std::vector<ScoredDoc> docs, size_t n) {
  const size_t k = std::min(n, docs.size());
  std::partial_sort(docs.begin(), docs.begin() + k, docs.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      CostTicker::TickCompare();
                      return ScoredDocLess(a, b);
                    });
  docs.resize(k);
  return docs;
}

}  // namespace

Result<TopNResult> StopAfterTopN(const PostingSource& source,
                                 const ScoringModel& model, const Query& query,
                                 size_t n, const StopAfterOptions& options) {
  if (options.safety <= 0.0) {
    return Status::InvalidArgument("safety must be > 0");
  }
  TopNResult result;
  CostScope scope;

  // Scoring stage (common to both placements): accumulation over the query
  // terms in query order. When the source carries impact bounds, the
  // block-max helper prunes with *strict* engagement — every document it
  // drops scores strictly below the final n-th score, so the tie-broken
  // top n (and hence both placements' answers) is bit-identical to the
  // dense scan; only the sub-n candidate pool shrinks. Without bounds
  // (or with n == 0) it falls back to the dense scan.
  std::vector<TermId> terms;
  bool can_prune = n > 0;
  for (TermId t : query.terms) {
    if (source.DocFrequency(t) == 0) continue;
    if (!source.HasImpacts(t)) {
      can_prune = false;
      break;
    }
    terms.push_back(t);
  }

  std::vector<ScoredDoc> candidates;  // positive-score docs, doc ascending
  {
    obs::TraceSpan span(obs::kStageAccumulate);
    if (can_prune) {
      BlockMaxOptions bm;
      bm.n = n;
      bm.mode = PruneMode::kContinue;
      bm.strict = true;
      BlockMaxOutcome outcome;
      const std::unordered_map<DocId, double> acc =
          BlockMaxAccumulate(source, model, terms, bm, &outcome);
      candidates.reserve(acc.size());
      for (const auto& [d, s] : acc) {
        if (s > 0.0) candidates.push_back(ScoredDoc{d, s});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const ScoredDoc& a, const ScoredDoc& b) {
                  return a.doc < b.doc;
                });
    } else {
      const std::vector<double> acc = AccumulateScores(source, model, query);
      for (DocId d = 0; d < acc.size(); ++d) {
        if (acc[d] > 0.0) candidates.push_back(ScoredDoc{d, acc[d]});
      }
    }
  }
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  // Everything below is stop-after selection work (materialize + sort-stop
  // or sample + cutoff scan): one heap_merge span per return path.
  if (options.policy == StopAfterPolicy::kConservative) {
    // Materialize everything, bounded sort-stop above.
    {
      obs::TraceSpan span(obs::kStageHeapMerge);
      std::vector<ScoredDoc> buffer;
      buffer.reserve(candidates.size());
      for (const ScoredDoc& c : candidates) {
        CostTicker::TickBytes(16);
        buffer.push_back(c);
      }
      result.items = SortStop(std::move(buffer), n);
    }
    result.stats.cost = scope.Snapshot();
    return result;
  }

  // Aggressive: estimate a score cutoff from a sample, push the predicate
  // below materialization, restart with a relaxed cutoff on underflow.
  obs::TraceSpan select_span(obs::kStageHeapMerge);
  Rng rng(options.seed);
  const size_t sample_size =
      std::min(options.sample_size, candidates.size());
  std::vector<double> sample;
  sample.reserve(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    CostTicker::TickRandom();
    sample.push_back(candidates[rng.Uniform(candidates.size())].score);
  }

  double cutoff = 0.0;
  if (!sample.empty() && !candidates.empty()) {
    Histogram hist = Histogram::FromData(sample, options.histogram_buckets);
    // Want ~n * safety survivors out of |candidates|; scale to sample scale.
    const double frac = static_cast<double>(sample.size()) /
                        static_cast<double>(candidates.size());
    const int64_t target = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(static_cast<double>(n) *
                                          options.safety * frac)));
    cutoff = hist.ValueWithCountAbove(target) * options.estimate_bias;
  }

  for (;;) {
    std::vector<ScoredDoc> survivors;
    for (const ScoredDoc& c : candidates) {
      CostTicker::TickCompare();
      if (c.score >= cutoff) {
        CostTicker::TickBytes(16);
        survivors.push_back(c);
      }
    }
    if (survivors.size() >= std::min(n, candidates.size())) {
      result.stats.stopped_early = survivors.size() < candidates.size();
      result.items = SortStop(std::move(survivors), n);
      break;
    }
    // Underflow: braking distance exceeded. Relax and restart.
    ++result.stats.restarts;
    if (cutoff <= 0.0) {
      // Cannot relax further; take what exists.
      result.items = SortStop(std::move(survivors), n);
      break;
    }
    cutoff = (result.stats.restarts >= 3) ? 0.0 : cutoff * 0.5;
  }
  result.stats.cost = scope.Snapshot();
  return result;
}

}  // namespace moa
