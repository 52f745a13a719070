#include "optimizer/strategy_planner.h"

#include <algorithm>
#include <cmath>

#include "exec/registry.h"
#include "obs/query_trace.h"

namespace moa {
namespace {

// ---- storage-signal calibration ------------------------------------------
//
// Measured against the cursor benches (bench_e13 batch throughput,
// bench_e14 storage comparison, bench_e15 lifecycle): scan rate over
// mmap-compressed blocks vs the in-memory file, and random probes over a
// multi-component snapshot vs a single segment. Recalibrate from the
// per-layer metrics of `perfbench/run.py --trace 1` (see CONTRIBUTING.md).

/// Bit-packed (MOAIF03) blocks bulk-decode close to memory speed.
constexpr double kBitPackedDecodeFactor = 1.15;
/// Random-access premium per doubling of the snapshot's components. It
/// was set when a probe located the owning component by binary search and
/// opened a block cursor there. A probe now binary-searches the term's
/// cached impact order, whatever the composition, so the premium no
/// longer matches the work; it stays, like kSegmentSortedFactor, until
/// the random and sorted access factors are recalibrated together in a
/// change of their own (it moves plans and work ticks).
constexpr double kComponentProbeFactor = 0.5;
/// Sorted (impact-order) access over segment postings: a snapshot scores
/// a term's live postings into an impact order once and serves every
/// later query from it (ShardedSnapshot's cache).
constexpr double kSegmentSortedFactor = 1.1;

/// Quality comparisons tolerate FP noise from the hook arithmetic.
constexpr double kQualityEps = 1e-9;

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Digests (query, n) into the inputs a strategy's registered cost hook
/// consumes: cardinalities from `est`, fragment split when `est` carries a
/// fragmentation, storage signals copied from `storage`.
StrategyCostInputs BuildCostInputs(const CardinalityEstimator& est,
                                   const Query& query, size_t n,
                                   const StrategyCostInputs& storage) {
  StrategyCostInputs in = storage;
  in.volume = static_cast<double>(est.QueryVolume(query));
  in.candidates = std::max(1.0, est.ExpectedCandidates(query));
  in.n = std::max<double>(1.0, static_cast<double>(n));
  in.active_terms = static_cast<double>(std::max(1, est.ActiveTerms(query)));
  in.has_fragmentation = est.fragmentation() != nullptr;
  if (in.has_fragmentation) {
    in.small_volume =
        static_cast<double>(est.QueryVolume(query, FragmentId::kSmall));
    in.large_volume =
        static_cast<double>(est.QueryVolume(query, FragmentId::kLarge));
    in.large_active_terms =
        static_cast<double>(est.ActiveTerms(query, FragmentId::kLarge));
  }
  return in;
}

/// One candidate's evaluation — shared verbatim by Plan() (which collects
/// all of them), PlanChoice() (which only tracks the running minimum) and
/// PlanForced() (which evaluates the forced one alone), so the paths
/// cannot disagree on eligibility or cost.
PlanCandidate Evaluate(const StrategyRegistry::Entry& entry,
                       PhysicalStrategy s, const StrategyCostInputs& inputs,
                       int active_terms, const PlanRequest& request) {
  const PlannerHooks& hooks = entry.planner;

  PlanCandidate cand;
  cand.strategy = s;
  cand.safe = entry.safe;

  const bool excluded =
      std::find(request.exclude.begin(), request.exclude.end(), s) !=
      request.exclude.end();
  const bool missing_frag =
      hooks.needs_fragmentation && !inputs.has_fragmentation;
  const bool missing_terms = hooks.needs_active_terms && active_terms < 1;

  // Cost whatever we can, rejected candidates included: the Explain
  // report shows every alternative's prediction. Only a missing
  // fragmentation makes the fragment-split inputs meaningless.
  if (hooks.cost != nullptr && !missing_frag) {
    cand.costed = true;
    cand.predicted = hooks.cost(inputs);
    cand.scalar = cand.predicted.Scalar();
    cand.predicted_quality =
        hooks.quality != nullptr ? hooks.quality(inputs) : 1.0;
  }

  if (hooks.cost == nullptr) {
    cand.reject = PlanReject::kNoCostModel;
  } else if (missing_frag) {
    cand.reject = PlanReject::kNeedsFragmentation;
  } else if (missing_terms) {
    cand.reject = PlanReject::kNoActiveTerms;
  } else if (excluded) {
    cand.reject = PlanReject::kExcluded;
  } else if (cand.predicted_quality + kQualityEps < request.quality_target) {
    cand.reject = PlanReject::kBelowQualityTarget;
  }
  return cand;
}

Status NoEligibleCandidate() {
  return Status::FailedPrecondition(
      "no strategy meets the request (quality target too high for the "
      "eligible candidates?)");
}

/// Accepts the evaluation of forced strategy `s` (null: unregistered),
/// for Plan() and PlanForced() alike. A strategy that cannot run here
/// fails; forcing overrides cost- and quality-based rejection by design.
Status AcceptForced(PhysicalStrategy s, PlanCandidate* forced) {
  if (forced == nullptr) {
    return Status::FailedPrecondition(
        std::string("forced strategy unregistered: ") + StrategyName(s));
  }
  if (forced->reject == PlanReject::kNeedsFragmentation ||
      forced->reject == PlanReject::kNoActiveTerms) {
    return Status::FailedPrecondition(
        std::string("forced strategy unavailable: ") + StrategyName(s));
  }
  forced->reject = PlanReject::kNone;
  return Status::OK();
}

}  // namespace

const char* PlanRejectName(PlanReject reject) {
  switch (reject) {
    case PlanReject::kNone: return "chosen";
    case PlanReject::kNoCostModel: return "no-cost-model";
    case PlanReject::kNeedsFragmentation: return "needs-fragmentation";
    case PlanReject::kNoActiveTerms: return "no-active-terms";
    case PlanReject::kExcluded: return "excluded";
    case PlanReject::kBelowQualityTarget: return "below-quality-target";
    case PlanReject::kCostlier: return "costlier";
    case PlanReject::kForcedOther: return "forced-other";
  }
  return "?";
}

StrategyCostInputs StorageInputsFor(const CatalogComposition& c) {
  StrategyCostInputs in;
  const uint64_t total = c.total_slots();
  if (total == 0) return in;

  // Decode cost: weighted by where the postings actually live. Every
  // segment is bit-packed; the memtable streams raw arrays (factor 1).
  in.decode_factor =
      1.0 + (kBitPackedDecodeFactor - 1.0) * Share(c.segment_slots, total);

  // Tombstoned slots keep their postings until a merge: cursors stream
  // and skip them, so per live posting the scan pays ~dead/live extra.
  const uint64_t live = total - std::min(total, c.dead_slots);
  in.tombstone_overhead =
      live == 0 ? 0.0
                : static_cast<double>(c.dead_slots) / static_cast<double>(live);

  // Random access: priced per component, as when a probe located the
  // owning component (see kComponentProbeFactor: kept until the access
  // factors are recalibrated together).
  const size_t components = c.num_segments + (c.memtable_slots > 0 ? 1 : 0);
  in.random_access_factor =
      1.0 + kComponentProbeFactor *
                std::log2(static_cast<double>(std::max<size_t>(1, components)));

  // Sorted access: memtable postings at the native rate, segment
  // postings at the decode-and-cache rate.
  in.sorted_access_factor =
      Share(c.memtable_slots, total) +
      kSegmentSortedFactor * Share(c.segment_slots, total);
  return in;
}

StrategyPlanner::StrategyPlanner(const CardinalityEstimator* estimator,
                                 const StrategyCostInputs& storage)
    : est_(estimator), storage_(storage) {}

Result<PlanDecision> StrategyPlanner::Plan(const Query& query,
                                           const PlanRequest& request) const {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const StrategyCostInputs inputs =
      BuildCostInputs(*est_, query, request.n, storage_);
  const int active_terms = est_->ActiveTerms(query);

  PlanDecision decision;
  decision.quality_target = request.quality_target;
  decision.candidates.reserve(AllStrategies().size());

  for (PhysicalStrategy s : AllStrategies()) {
    const StrategyRegistry::Entry* entry = registry.Find(s);
    if (entry == nullptr) continue;  // not executable at all
    decision.candidates.push_back(
        Evaluate(*entry, s, inputs, active_terms, request));
  }

  // Costed candidates cheapest-first, uncostable ones after; enum order
  // breaks ties, so the decision is deterministic.
  std::sort(decision.candidates.begin(), decision.candidates.end(),
            [](const PlanCandidate& a, const PlanCandidate& b) {
              if (a.costed != b.costed) return a.costed;
              if (a.costed && a.scalar != b.scalar) return a.scalar < b.scalar;
              return static_cast<int>(a.strategy) <
                     static_cast<int>(b.strategy);
            });

  if (request.force.has_value()) {
    PlanCandidate* forced = nullptr;
    for (PlanCandidate& c : decision.candidates) {
      if (c.strategy == *request.force) forced = &c;
    }
    MOA_RETURN_NOT_OK(AcceptForced(*request.force, forced));
    decision.forced = true;
    decision.strategy = *request.force;
    decision.chosen = *forced;
    for (PlanCandidate& c : decision.candidates) {
      if (c.strategy != *request.force && c.reject == PlanReject::kNone) {
        c.reject = PlanReject::kForcedOther;
      }
    }
    return decision;
  }

  return Choose(std::move(decision));
}

Result<PlanCandidate> StrategyPlanner::PlanChoice(
    const Query& query, const PlanRequest& request) const {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const StrategyCostInputs inputs =
      BuildCostInputs(*est_, query, request.n, storage_);
  const int active_terms = est_->ActiveTerms(query);

  PlanCandidate best;
  bool have = false;
  for (PhysicalStrategy s : AllStrategies()) {
    const StrategyRegistry::Entry* entry = registry.Find(s);
    if (entry == nullptr) continue;
    const PlanCandidate cand =
        Evaluate(*entry, s, inputs, active_terms, request);
    if (cand.reject != PlanReject::kNone) continue;  // eligible == costed
    // Strict < keeps the earlier (lower-enum) strategy on scalar ties —
    // AllStrategies iterates in enum order, so this reproduces Plan()'s
    // deterministic sort exactly.
    if (!have || cand.scalar < best.scalar) {
      best = cand;
      have = true;
    }
  }
  if (!have) return NoEligibleCandidate();
  return best;
}

Result<PlanDecision> StrategyPlanner::PlanForced(
    const Query& query, const PlanRequest& request) const {
  const PhysicalStrategy s = *request.force;
  const StrategyRegistry::Entry* entry = StrategyRegistry::Global().Find(s);
  PlanCandidate forced;
  if (entry != nullptr) {
    forced = Evaluate(*entry, s,
                      BuildCostInputs(*est_, query, request.n, storage_),
                      est_->ActiveTerms(query), request);
  }
  MOA_RETURN_NOT_OK(AcceptForced(s, entry != nullptr ? &forced : nullptr));
  PlanDecision decision;
  decision.forced = true;
  decision.strategy = s;
  decision.quality_target = request.quality_target;
  decision.chosen = forced;
  decision.candidates.push_back(forced);
  return decision;
}

Result<PlanCandidate> StrategyPlanner::Decide(
    const Query& query, const PlanRequest& request,
    PlanDecision* decision_out) const {
  obs::TraceSpan span(obs::kStagePlan);
  if (decision_out == nullptr && !request.force.has_value()) {
    return PlanChoice(query, request);
  }
  Result<PlanDecision> plan = decision_out != nullptr
                                  ? Plan(query, request)
                                  : PlanForced(query, request);
  if (!plan.ok()) return plan.status();
  PlanDecision decision = std::move(plan).ValueOrDie();
  PlanCandidate chosen = decision.chosen;
  if (decision_out != nullptr) *decision_out = std::move(decision);
  return chosen;
}

Result<PlanDecision> StrategyPlanner::Choose(PlanDecision decision) {
  PlanCandidate* best = nullptr;
  for (PlanCandidate& c : decision.candidates) {
    if (c.reject != PlanReject::kNone) continue;
    best = &c;  // candidates are sorted cheapest-first
    break;
  }
  if (best == nullptr) return NoEligibleCandidate();
  decision.strategy = best->strategy;
  decision.chosen = *best;

  for (PlanCandidate& c : decision.candidates) {
    if (c.reject == PlanReject::kNone && c.strategy != best->strategy) {
      c.reject = PlanReject::kCostlier;
    }
  }
  return decision;
}

}  // namespace moa
