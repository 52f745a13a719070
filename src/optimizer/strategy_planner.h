// StrategyPlanner: per-query cost/quality-based strategy choice (the
// paper's Step-3 loop, closed).
//
// For every registered strategy the planner evaluates its cost hook over
// the same StrategyCostInputs — cardinalities from live statistics (a
// catalog snapshot's df or the static file's) plus storage signals
// derived from what the query will actually read (segment decode cost,
// tombstone density, component count, the segment share of sorted
// access) — and picks the cheapest candidate whose predicted quality
// meets the request's target. Safe strategies predict quality 1.0 by
// definition; unsafe ones register a quality hook.
//
// The decision is a pure function of (snapshot statistics, query, n,
// request): same inputs, same plan. Planning never touches a posting,
// and the decision record is plain data (reject reasons are enums;
// rendering happens only in Explain) so Search can afford a full plan
// per query.
#ifndef MOA_OPTIMIZER_STRATEGY_PLANNER_H_
#define MOA_OPTIMIZER_STRATEGY_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/status.h"
#include "exec/plan_hooks.h"
#include "exec/strategy.h"
#include "optimizer/cardinality.h"
#include "storage/catalog/catalog_state.h"

namespace moa {

/// \brief Why a candidate was not chosen.
enum class PlanReject {
  kNone = 0,            ///< chosen
  kNoCostModel,         ///< no cost hook registered (forced-only)
  kNeedsFragmentation,  ///< fragment strategy, no fragmentation installed
  kNoActiveTerms,       ///< needs >= 1 query term with df > 0
  kExcluded,            ///< excluded by the request
  kBelowQualityTarget,  ///< predicted quality under the target
  kCostlier,            ///< eligible, but a cheaper candidate won
  kForcedOther,         ///< the request forced a different strategy
};

/// Short display name of a reject reason ("costlier", "below-quality"...).
const char* PlanRejectName(PlanReject reject);

/// \brief One candidate strategy in a planning decision.
struct PlanCandidate {
  PhysicalStrategy strategy = PhysicalStrategy::kHeap;
  bool safe = true;
  bool costed = false;      ///< `predicted`/`scalar` are meaningful
  CostCounters predicted;   ///< predicted work (cost-hook output)
  double scalar = 0.0;      ///< predicted.Scalar()
  double predicted_quality = 1.0;  ///< expected overlap@n in [0, 1]
  PlanReject reject = PlanReject::kNone;  ///< kNone only for the chosen one
};

/// \brief The planner's decision: every candidate plus the choice.
struct PlanDecision {
  PhysicalStrategy strategy = PhysicalStrategy::kHeap;  ///< chosen
  bool forced = false;          ///< request named the strategy
  double quality_target = 1.0;  ///< the target the choice honored
  PlanCandidate chosen;
  /// Every registered strategy: costed ones cheapest-first, uncostable
  /// ones after (enum order within each group).
  std::vector<PlanCandidate> candidates;
};

/// \brief What the caller asks of the planner.
struct PlanRequest {
  size_t n = 10;
  /// Minimum predicted overlap@n: 1.0 admits only exact (safe)
  /// strategies; lower values let cheap unsafe strategies win.
  double quality_target = 1.0;
  /// Forced strategy: bypasses cost-based choice (the decision still
  /// lists every candidate), but must be executable here.
  std::optional<PhysicalStrategy> force;
  /// Strategies to exclude from choice (ablation benches).
  std::vector<PhysicalStrategy> exclude;
};

/// Digests a catalog snapshot's composition into the storage-signal
/// fields of StrategyCostInputs (cardinality fields are left at their
/// defaults; the planner fills them per query). Constants calibrated
/// against the e13/e14/e15 benches — see CONTRIBUTING.md for the
/// recalibration procedure.
StrategyCostInputs StorageInputsFor(const CatalogComposition& composition);

/// \brief Enumerates registered strategies, costs them through their
/// planner hooks, picks the cheapest meeting the quality target.
class StrategyPlanner {
 public:
  /// \param estimator cardinality source (outlives the planner);
  /// \param storage storage-signal inputs (cardinality fields ignored) —
  ///        default = neutral static in-memory configuration.
  explicit StrategyPlanner(const CardinalityEstimator* estimator,
                           const StrategyCostInputs& storage = {});

  /// Plans one query. Fails only when a forced strategy is not
  /// executable here, or when no candidate is eligible.
  Result<PlanDecision> Plan(const Query& query,
                            const PlanRequest& request) const;

  /// Hot-path variant of Plan() for unforced requests: the identical
  /// choice (same eligibility rules, same cheapest-scalar/enum-order
  /// tie-break), but one pass over the registry with no candidate table,
  /// no allocation and no sort. Search uses this; Explain pays for
  /// Plan()'s full table. `request.force` is ignored here.
  Result<PlanCandidate> PlanChoice(const Query& query,
                                   const PlanRequest& request) const;

  /// Forced fast path: request.force must be set. Validates
  /// executability and costs only the forced strategy — the decision's
  /// candidate list holds just the chosen entry, and no enumeration or
  /// sort happens (Search's hot path; Explain uses Plan() for the full
  /// table).
  Result<PlanDecision> PlanForced(const Query& query,
                                  const PlanRequest& request) const;

  /// The one choice every execution path plans through, under the query's
  /// `plan` trace span: Plan() when `decision_out` is set (Explain wants
  /// the full table; it lands there), PlanForced() when the request forces
  /// a strategy, PlanChoice() otherwise.
  Result<PlanCandidate> Decide(const Query& query, const PlanRequest& request,
                               PlanDecision* decision_out = nullptr) const;

 private:
  /// Picks the cheapest eligible candidate from a sorted decision and
  /// stamps reject reasons onto the eligible losers.
  static Result<PlanDecision> Choose(PlanDecision decision);

  const CardinalityEstimator* est_;
  StrategyCostInputs storage_;
};

}  // namespace moa

#endif  // MOA_OPTIMIZER_STRATEGY_PLANNER_H_
