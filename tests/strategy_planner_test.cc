// Unit tests for the cost-based strategy planner (optimizer/
// strategy_planner.h): choice flips under monotone df growth, storage
// digests for tombstone-heavy / memtable-heavy / mixed snapshots, quality
// gating, forced/excluded handling and plan determinism — all without a
// database: the planner is a pure function of (statistics, storage
// signals, query, request).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/registry.h"
#include "exec/strategy.h"
#include "optimizer/cardinality.h"
#include "optimizer/strategy_planner.h"
#include "storage/fragmentation.h"

namespace moa {
namespace {

constexpr int64_t kNumDocs = 100000;
constexpr size_t kVocab = 16;

/// df vector where every queried term has the given frequency.
std::vector<uint32_t> UniformDf(uint32_t df) {
  return std::vector<uint32_t>(kVocab, df);
}

Query ThreeTerms() { return Query{{1, 2, 3}}; }

const PlanCandidate* FindCandidate(const PlanDecision& decision,
                                   PhysicalStrategy s) {
  for (const PlanCandidate& c : decision.candidates) {
    if (c.strategy == s) return &c;
  }
  return nullptr;
}

PlanDecision MustPlan(const StrategyPlanner& planner, const Query& query,
                      const PlanRequest& request) {
  auto r = planner.Plan(query, request);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

TEST(StrategyPlannerTest, MonotoneDfGrowthFlipsTheChoice) {
  // As the per-term df grows the cheapest safe plan moves from the
  // document-at-a-time scan family to threshold-bounded sorted/random
  // access, whose work tracks n + sqrt(candidates) instead of the volume.
  const std::vector<uint32_t> low = UniformDf(20);
  const std::vector<uint32_t> high = UniformDf(30000);
  CardinalityEstimator low_est(&low, kNumDocs);
  CardinalityEstimator high_est(&high, kNumDocs);

  PlanRequest request;  // quality target 1.0: safe strategies only
  const PlanDecision low_plan =
      MustPlan(StrategyPlanner(&low_est), ThreeTerms(), request);
  const PlanDecision high_plan =
      MustPlan(StrategyPlanner(&high_est), ThreeTerms(), request);

  EXPECT_NE(low_plan.strategy, high_plan.strategy);
  EXPECT_TRUE(IsSafeStrategy(low_plan.strategy));
  EXPECT_TRUE(IsSafeStrategy(high_plan.strategy));
  // The concrete winners under the current calibration; update alongside
  // the constants if a recalibration shifts the crossover.
  EXPECT_EQ(low_plan.strategy, PhysicalStrategy::kMaxScore);
  EXPECT_EQ(high_plan.strategy, PhysicalStrategy::kFaginTA);

  // At high volume the full scans must predict more work than the chosen
  // threshold algorithm by a wide margin.
  const PlanCandidate* heap =
      FindCandidate(high_plan, PhysicalStrategy::kHeap);
  ASSERT_NE(heap, nullptr);
  ASSERT_TRUE(heap->costed);
  EXPECT_GT(heap->scalar, 10.0 * high_plan.chosen.scalar);
}

TEST(StrategyPlannerTest, CandidateTableIsSortedAndStampsRejects) {
  const std::vector<uint32_t> df = UniformDf(1000);
  CardinalityEstimator est(&df, kNumDocs);
  const PlanDecision plan =
      MustPlan(StrategyPlanner(&est), ThreeTerms(), PlanRequest{});

  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_EQ(plan.candidates.size(), AllStrategies().size());
  // Costed candidates cheapest-first, uncostable ones (the fragment
  // strategies — no fragmentation installed here) after.
  bool seen_uncosted = false;
  double prev_scalar = -1.0;
  for (const PlanCandidate& c : plan.candidates) {
    if (!c.costed) {
      seen_uncosted = true;
      EXPECT_EQ(c.reject, PlanReject::kNeedsFragmentation)
          << StrategyName(c.strategy);
      continue;
    }
    EXPECT_FALSE(seen_uncosted) << "costed candidate after an uncosted one";
    EXPECT_GE(c.scalar, prev_scalar);
    prev_scalar = c.scalar;
  }
  EXPECT_TRUE(seen_uncosted);  // small_fragment & friends need the split

  // Exactly one candidate carries kNone — the chosen one — and it is the
  // *cheapest eligible* entry: anything listed before it was rejected for
  // a non-cost reason (here: quit_prune is cheaper but below the quality
  // target), anything eligible after it lost on cost.
  size_t chosen_at = plan.candidates.size();
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    if (plan.candidates[i].reject != PlanReject::kNone) continue;
    EXPECT_EQ(chosen_at, plan.candidates.size()) << "second kNone candidate";
    chosen_at = i;
    EXPECT_EQ(plan.candidates[i].strategy, plan.strategy);
  }
  ASSERT_LT(chosen_at, plan.candidates.size());
  for (size_t i = 0; i < chosen_at; ++i) {
    EXPECT_NE(plan.candidates[i].reject, PlanReject::kCostlier);
  }
  for (size_t i = chosen_at + 1; i < plan.candidates.size(); ++i) {
    if (plan.candidates[i].costed) {
      EXPECT_GE(plan.candidates[i].scalar, plan.chosen.scalar);
    }
  }
}

TEST(StrategyPlannerTest, TombstoneHeavySnapshotPrefersRandomAccess) {
  // df chosen so the scan wins on a clean snapshot but not on one where
  // 4 dead slots ride along with every live one: sequential cost scales
  // with (1 + tombstone_overhead) while random probes do not.
  const std::vector<uint32_t> df = UniformDf(150);
  CardinalityEstimator est(&df, kNumDocs);

  CatalogComposition dirty;
  dirty.num_segments = 1;
  dirty.segment_slots = 10000;
  dirty.dead_slots = 8000;
  const StrategyCostInputs storage = StorageInputsFor(dirty);
  EXPECT_DOUBLE_EQ(storage.tombstone_overhead, 4.0);

  const PlanDecision clean_plan =
      MustPlan(StrategyPlanner(&est), ThreeTerms(), PlanRequest{});
  const PlanDecision dirty_plan =
      MustPlan(StrategyPlanner(&est, storage), ThreeTerms(), PlanRequest{});

  EXPECT_EQ(clean_plan.strategy, PhysicalStrategy::kMaxScore);
  EXPECT_EQ(dirty_plan.strategy, PhysicalStrategy::kFaginTA);
}

TEST(StrategyPlannerTest, MemtableOnlySnapshotIsNeutral) {
  // A pure memtable serves raw arrays with native impact orders: its
  // digest must be exactly the neutral configuration, so planning over a
  // memtable-heavy snapshot reproduces the static in-memory choice.
  CatalogComposition mem;
  mem.memtable_slots = 5000;
  const StrategyCostInputs storage = StorageInputsFor(mem);
  EXPECT_DOUBLE_EQ(storage.decode_factor, 1.0);
  EXPECT_DOUBLE_EQ(storage.tombstone_overhead, 0.0);
  EXPECT_DOUBLE_EQ(storage.random_access_factor, 1.0);
  EXPECT_DOUBLE_EQ(storage.sorted_access_factor, 1.0);

  const std::vector<uint32_t> df = UniformDf(1000);
  CardinalityEstimator est(&df, kNumDocs);
  const PlanDecision neutral =
      MustPlan(StrategyPlanner(&est), ThreeTerms(), PlanRequest{});
  const PlanDecision memtable =
      MustPlan(StrategyPlanner(&est, storage), ThreeTerms(), PlanRequest{});
  EXPECT_EQ(neutral.strategy, memtable.strategy);
  EXPECT_EQ(neutral.chosen.scalar, memtable.chosen.scalar);
}

TEST(StrategyPlannerTest, MixedCompositionDigest) {
  // 8000 segment slots, 2000 memtable slots, 500 tombstones: every field
  // is a closed-form mix of the calibration constants.
  CatalogComposition mix;
  mix.num_segments = 2;
  mix.segment_slots = 8000;
  mix.memtable_slots = 2000;
  mix.dead_slots = 500;
  const StrategyCostInputs in = StorageInputsFor(mix);

  // Every segment slot is bit-packed: 8000 of 10000 slots decode.
  EXPECT_NEAR(in.decode_factor, 1.0 + 0.15 * 0.8, 1e-12);
  EXPECT_NEAR(in.tombstone_overhead, 500.0 / 9500.0, 1e-12);
  // 2 segments + the memtable = 3 components to probe.
  EXPECT_NEAR(in.random_access_factor, 1.0 + 0.5 * std::log2(3.0), 1e-12);
  // memtable share native + segment share * 1.1.
  EXPECT_NEAR(in.sorted_access_factor, 0.2 + 1.1 * 0.8, 1e-12);

  // The empty composition (no snapshot at all) is neutral too.
  const StrategyCostInputs empty = StorageInputsFor(CatalogComposition{});
  EXPECT_DOUBLE_EQ(empty.decode_factor, 1.0);
  EXPECT_DOUBLE_EQ(empty.sorted_access_factor, 1.0);
}

TEST(StrategyPlannerTest, QualityTargetGatesUnsafeStrategies) {
  // High volume: QUIT touches a fraction of the postings and predicts
  // quality well under 1.0 — eligible only when the target admits it.
  const std::vector<uint32_t> df = UniformDf(30000);
  CardinalityEstimator est(&df, kNumDocs);
  StrategyPlanner planner(&est);

  PlanRequest exact;
  exact.quality_target = 1.0;
  const PlanDecision safe_plan = MustPlan(planner, ThreeTerms(), exact);
  EXPECT_TRUE(IsSafeStrategy(safe_plan.strategy));
  const PlanCandidate* quit =
      FindCandidate(safe_plan, PhysicalStrategy::kQuitPrune);
  ASSERT_NE(quit, nullptr);
  EXPECT_EQ(quit->reject, PlanReject::kBelowQualityTarget);
  ASSERT_TRUE(quit->costed);  // rejected candidates still show their cost
  EXPECT_LT(quit->predicted_quality, 1.0);
  EXPECT_LT(quit->scalar, safe_plan.chosen.scalar);

  PlanRequest lax;
  lax.quality_target = 0.0;
  const PlanDecision lax_plan = MustPlan(planner, ThreeTerms(), lax);
  EXPECT_EQ(lax_plan.strategy, PhysicalStrategy::kQuitPrune);
  EXPECT_LT(lax_plan.chosen.predicted_quality, 1.0);

  // Whatever the target, the chosen candidate honors it.
  for (double target : {0.0, 0.5, 0.9, 1.0}) {
    PlanRequest request;
    request.quality_target = target;
    const PlanDecision plan = MustPlan(planner, ThreeTerms(), request);
    EXPECT_GE(plan.chosen.predicted_quality + 1e-9, target);
  }
}

TEST(StrategyPlannerTest, FragmentationUnlocksFragmentStrategies) {
  std::vector<uint32_t> df(kVocab, 0);
  df[1] = 40;      // rare -> small fragment
  df[2] = 40;
  df[3] = 20000;   // frequent -> large fragment
  FragmentationPolicy policy;
  policy.small_volume_fraction = 0.05;
  const Fragmentation frag = Fragmentation::Build(df, policy);
  CardinalityEstimator est(&df, kNumDocs, &frag);
  StrategyPlanner planner(&est);

  PlanRequest lax;
  lax.quality_target = 0.0;
  const PlanDecision plan = MustPlan(planner, ThreeTerms(), lax);
  const PlanCandidate* small =
      FindCandidate(plan, PhysicalStrategy::kSmallFragment);
  ASSERT_NE(small, nullptr);
  EXPECT_NE(small->reject, PlanReject::kNeedsFragmentation);
  ASSERT_TRUE(small->costed);
  EXPECT_GT(small->scalar, 0.0);
  EXPECT_LT(small->predicted_quality, 1.0);
  // Reading 80 of ~20080 postings is the cheapest candidate by far.
  EXPECT_EQ(plan.strategy, PhysicalStrategy::kSmallFragment);
  // ... but never under an exact target.
  const PlanDecision exact = MustPlan(planner, ThreeTerms(), PlanRequest{});
  EXPECT_TRUE(IsSafeStrategy(exact.strategy));
}

TEST(StrategyPlannerTest, ForcedStrategyOverridesCostAndMarksLosers) {
  const std::vector<uint32_t> df = UniformDf(1000);
  CardinalityEstimator est(&df, kNumDocs);
  StrategyPlanner planner(&est);

  PlanRequest request;
  request.force = PhysicalStrategy::kHeap;
  const PlanDecision plan = MustPlan(planner, ThreeTerms(), request);
  EXPECT_TRUE(plan.forced);
  EXPECT_EQ(plan.strategy, PhysicalStrategy::kHeap);
  EXPECT_EQ(plan.chosen.reject, PlanReject::kNone);
  // The would-be winner is listed, costed, and marked forced-other.
  const PlanDecision unforced = MustPlan(planner, ThreeTerms(), PlanRequest{});
  ASSERT_NE(unforced.strategy, PhysicalStrategy::kHeap);
  const PlanCandidate* winner = FindCandidate(plan, unforced.strategy);
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->reject, PlanReject::kForcedOther);
  EXPECT_LT(winner->scalar, plan.chosen.scalar);

  // PlanForced: same validation, single-entry candidate table.
  auto fast = planner.PlanForced(ThreeTerms(), request);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.ValueOrDie().strategy, PhysicalStrategy::kHeap);
  ASSERT_EQ(fast.ValueOrDie().candidates.size(), 1u);
  EXPECT_EQ(fast.ValueOrDie().chosen.scalar, plan.chosen.scalar);
}

TEST(StrategyPlannerTest, ForcedStrategyMustBeExecutable) {
  const std::vector<uint32_t> df = UniformDf(1000);
  CardinalityEstimator est(&df, kNumDocs);  // no fragmentation installed
  StrategyPlanner planner(&est);

  PlanRequest request;
  request.quality_target = 0.0;
  request.force = PhysicalStrategy::kSmallFragment;
  EXPECT_FALSE(planner.Plan(ThreeTerms(), request).ok());
  EXPECT_FALSE(planner.PlanForced(ThreeTerms(), request).ok());

  // Zero active terms: the Fagin family cannot run (no impact cursors to
  // merge), forcing it must fail rather than crash the executor.
  const std::vector<uint32_t> empty(kVocab, 0);
  CardinalityEstimator empty_est(&empty, kNumDocs);
  StrategyPlanner empty_planner(&empty_est);
  PlanRequest fagin;
  fagin.force = PhysicalStrategy::kFaginTA;
  EXPECT_FALSE(empty_planner.Plan(ThreeTerms(), fagin).ok());
  EXPECT_FALSE(empty_planner.PlanForced(ThreeTerms(), fagin).ok());

  // Unforced planning still succeeds: the scan strategies handle empty
  // queries, and the Fagin candidates report why they were skipped.
  const PlanDecision plan =
      MustPlan(empty_planner, ThreeTerms(), PlanRequest{});
  const PlanCandidate* ta = FindCandidate(plan, PhysicalStrategy::kFaginTA);
  ASSERT_NE(ta, nullptr);
  EXPECT_EQ(ta->reject, PlanReject::kNoActiveTerms);
}

TEST(StrategyPlannerTest, ExcludedStrategyIsSkipped) {
  const std::vector<uint32_t> df = UniformDf(30000);
  CardinalityEstimator est(&df, kNumDocs);
  StrategyPlanner planner(&est);

  const PlanDecision base = MustPlan(planner, ThreeTerms(), PlanRequest{});
  PlanRequest request;
  request.exclude.push_back(base.strategy);
  const PlanDecision plan = MustPlan(planner, ThreeTerms(), request);
  EXPECT_NE(plan.strategy, base.strategy);
  const PlanCandidate* excluded = FindCandidate(plan, base.strategy);
  ASSERT_NE(excluded, nullptr);
  EXPECT_EQ(excluded->reject, PlanReject::kExcluded);
  EXPECT_GE(plan.chosen.scalar, base.chosen.scalar);
}

TEST(StrategyPlannerTest, PlanningIsDeterministicAndChoiceAgrees) {
  // Same statistics + query + request => same plan, and the allocation-
  // free hot path (PlanChoice) picks exactly what Plan() picks — for
  // every df magnitude and quality target.
  for (uint32_t dfv : {0u, 5u, 150u, 1000u, 30000u}) {
    const std::vector<uint32_t> df = UniformDf(dfv);
    CardinalityEstimator est(&df, kNumDocs);
    StrategyPlanner planner(&est);
    for (double target : {0.0, 0.9, 1.0}) {
      PlanRequest request;
      request.quality_target = target;
      const PlanDecision a = MustPlan(planner, ThreeTerms(), request);
      const PlanDecision b = MustPlan(planner, ThreeTerms(), request);
      EXPECT_EQ(a.strategy, b.strategy) << "df=" << dfv;
      EXPECT_EQ(a.chosen.scalar, b.chosen.scalar);
      ASSERT_EQ(a.candidates.size(), b.candidates.size());
      for (size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].strategy, b.candidates[i].strategy);
        EXPECT_EQ(a.candidates[i].reject, b.candidates[i].reject);
        EXPECT_EQ(a.candidates[i].scalar, b.candidates[i].scalar);
      }
      auto choice = planner.PlanChoice(ThreeTerms(), request);
      ASSERT_TRUE(choice.ok()) << "df=" << dfv << " target=" << target;
      EXPECT_EQ(choice.ValueOrDie().strategy, a.strategy)
          << "df=" << dfv << " target=" << target;
      EXPECT_EQ(choice.ValueOrDie().scalar, a.chosen.scalar);
      EXPECT_EQ(choice.ValueOrDie().predicted_quality,
                a.chosen.predicted_quality);
    }
  }
}

}  // namespace
}  // namespace moa
