#include "topn/block_max.h"

#include <algorithm>
#include <functional>

#include "common/cost_ticker.h"

namespace moa {

std::unordered_map<DocId, double> BlockMaxAccumulate(
    const PostingSource& source, const ScoringModel& model,
    const std::vector<TermId>& terms, const BlockMaxOptions& options,
    BlockMaxOutcome* outcome) {
  const size_t n = options.n;

  // Suffix sums of max weights: remaining[i] = max score obtainable from
  // terms[i..] alone.
  std::vector<double> remaining(terms.size() + 1, 0.0);
  for (size_t i = terms.size(); i-- > 0;) {
    remaining[i] = remaining[i + 1] + source.MaxImpact(terms[i]);
  }

  std::unordered_map<DocId, double> acc;
  bool inserting = true;

  // Cheap running lower bound for the n-th best score: exact tracking per
  // posting would need a heap per update; a periodically refreshed bound
  // is enough because a *lower* bound only delays (never unsoundly
  // triggers) pruning or abandonment.
  // A caller-seeded threshold (distributed max-score) is itself a valid
  // lower bound before any local accumulator exists, and the local n-th
  // can only tighten it.
  double nth_lower = options.initial_threshold;
  auto refresh_nth = [&]() {
    if (acc.size() < n || n == 0) {
      nth_lower = options.initial_threshold;
      return;
    }
    std::vector<double> scores;
    scores.reserve(acc.size());
    for (const auto& [d, s] : acc) scores.push_back(s);
    std::nth_element(scores.begin(), scores.begin() + (n - 1), scores.end(),
                     std::greater<double>());
    nth_lower = std::max(scores[n - 1], options.initial_threshold);
    CostTicker::TickCompare(static_cast<int64_t>(acc.size()));
  };

  std::vector<DocId> probe_order;  // reused across pruned terms
  const CollectionStatsView& stats = model.stats();

  // Sequential scan of term t's whole list, weighed with the term's
  // TermWeight (read once per term, bit-identical to model.Weight).
  // `insert` distinguishes the dense phase (unseen docs may open
  // accumulators, budget permitting) from the pruned update-scan
  // (existing accumulators only).
  const auto scan_term = [&](TermId t, const TermWeight& weight,
                             bool insert) {
    for (auto cursor = source.OpenCursor(t); !cursor->at_end();
         cursor->next()) {
      CostTicker::TickSeq();
      const DocId d = cursor->doc();
      auto it = acc.find(d);
      if (it != acc.end()) {
        CostTicker::TickScore();
        it->second += weight(cursor->tf(), stats.DocLength(d));
      } else if (insert && (options.accumulator_budget == 0 ||
                            acc.size() < options.accumulator_budget)) {
        CostTicker::TickScore();
        acc.emplace(d, weight(cursor->tf(), stats.DocLength(d)));
      }
      // else: pruned phase or budget bound — read but not scored.
    }
  };

  for (size_t i = 0; i < terms.size(); ++i) {
    refresh_nth();
    // With a seeded threshold the n-accumulator precondition is already
    // met globally (n documents at or above the threshold exist on the
    // merged shards), so the bound may engage before — even without —
    // any local accumulator.
    if (n > 0 && (acc.size() >= n || options.initial_threshold > 0.0) &&
        (options.strict ? nth_lower > remaining[i]
                        : nth_lower >= remaining[i])) {
      // No unseen document can reach the top n anymore.
      if (options.mode == PruneMode::kQuit) {
        outcome->stopped_early = true;
        return acc;
      }
      if (inserting) {
        inserting = false;
        outcome->stopped_early = true;  // pruning engaged
      }
    }
    const TermId t = terms[i];
    const TermWeight weight = model.ForTerm(t);

    if (inserting) {
      // Dense phase: full scan, building and updating accumulators.
      scan_term(t, weight, /*insert=*/true);
      continue;
    }

    // Pruned phase: only existing accumulators can change. When the list
    // is shorter than the accumulator set, a sequential update scan
    // touches fewer cursor positions than per-accumulator probing would.
    const uint32_t df = source.DocFrequency(t);
    if (acc.size() >= df) {
      scan_term(t, weight, /*insert=*/false);
      continue;
    }

    // Probe phase: visit accumulators in doc order so the cursor moves
    // strictly forward, shallow-stepping across the block directory.
    probe_order.clear();
    probe_order.reserve(acc.size());
    for (const auto& [d, s] : acc) probe_order.push_back(d);
    std::sort(probe_order.begin(), probe_order.end());
    CostTicker::TickCompare(static_cast<int64_t>(probe_order.size()));
    const double term_bound = source.MaxImpact(t);
    const auto cursor = source.OpenCursor(t);
    for (DocId d : probe_order) {
      cursor->shallow_advance(d);
      if (cursor->block_last_doc() == kEndDoc) break;  // term exhausted
      const auto it = acc.find(d);
      // Ceiling on d's final score: current sum, plus the term's bound
      // (an upper bound on Weight(t, d) whether or not d holds t), plus
      // everything the unprocessed terms could add.
      const double ceiling = it->second + term_bound + remaining[i + 1];
      CostTicker::TickCompare();
      if (ceiling < nth_lower) {
        // Strictly below a lower bound on the n-th best score, which only
        // grows from here: d can never re-enter the top n. Dropping it is
        // permanent — later terms skip (and never decode blocks for) it.
        acc.erase(it);
        continue;
      }
      CostTicker::TickRandom();
      cursor->advance_to(d);
      if (!cursor->at_end() && cursor->doc() == d) {
        CostTicker::TickScore();
        it->second += weight(cursor->tf(), stats.DocLength(d));
      }
    }
  }
  return acc;
}

}  // namespace moa
