// The Step-3 cost formulas as the StrategyPlanner sees them over the
// static in-memory collection (neutral storage signals): cardinality
// estimates, finite per-strategy predictions and the orderings the planner
// relies on. The choice rules (forcing, exclusion, quality gating) are
// covered by strategy_planner_test.
#include "optimizer/strategy_planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallFragmentation;
using testutil::SmallQueries;

/// The candidate for `s` in `planner`'s full table for (q, top-10).
PlanCandidate CandidateFor(const StrategyPlanner& planner,
                           PhysicalStrategy s, const Query& q) {
  PlanRequest request;
  request.n = 10;
  auto plan = planner.Plan(q, request);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  for (const PlanCandidate& c : plan.ValueOrDie().candidates) {
    if (c.strategy == s) return c;
  }
  ADD_FAILURE() << "no candidate for " << StrategyName(s);
  return PlanCandidate{};
}

class CostFormulaTest : public ::testing::Test {
 protected:
  CostFormulaTest()
      : est_(&SmallCollectionWithImpacts().inverted_file(),
             &SmallFragmentation()),
        planner_(&est_) {}

  /// Predicted scalar cost of `s` for (q, top-10).
  double Predicted(PhysicalStrategy s, const Query& q) const {
    const PlanCandidate c = CandidateFor(planner_, s, q);
    EXPECT_TRUE(c.costed) << StrategyName(s);
    return c.scalar;
  }

  CardinalityEstimator est_;
  StrategyPlanner planner_;
};

TEST_F(CostFormulaTest, CardinalityVolumeSplitsAcrossFragments) {
  for (const Query& q : SmallQueries()) {
    EXPECT_EQ(est_.QueryVolume(q),
              est_.QueryVolume(q, FragmentId::kSmall) +
                  est_.QueryVolume(q, FragmentId::kLarge));
  }
}

TEST_F(CostFormulaTest, ExpectedCandidatesBounded) {
  const double d =
      static_cast<double>(SmallCollectionWithImpacts().inverted_file().num_docs());
  for (const Query& q : SmallQueries()) {
    const double c = est_.ExpectedCandidates(q);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, d);
    // At least as many as the largest single posting list.
    uint32_t max_df = 0;
    for (TermId t : q.terms) {
      max_df = std::max(
          max_df, SmallCollectionWithImpacts().inverted_file().DocFrequency(t));
    }
    EXPECT_GE(c + 1e-6, static_cast<double>(max_df));
  }
}

TEST_F(CostFormulaTest, ActiveTermsSplitsAcrossFragments) {
  for (const Query& q : SmallQueries()) {
    EXPECT_EQ(est_.ActiveTerms(q),
              est_.ActiveTerms(q, FragmentId::kSmall) +
                  est_.ActiveTerms(q, FragmentId::kLarge));
  }
}

TEST_F(CostFormulaTest, AllStrategiesProduceFiniteEstimates) {
  for (PhysicalStrategy s : AllStrategies()) {
    const double scalar = Predicted(s, SmallQueries()[0]);
    EXPECT_GE(scalar, 0.0) << StrategyName(s);
    EXPECT_TRUE(std::isfinite(scalar)) << StrategyName(s);
  }
}

TEST_F(CostFormulaTest, SmallFragmentPredictedCheapest) {
  EXPECT_LT(Predicted(PhysicalStrategy::kSmallFragment, SmallQueries()[0]),
            Predicted(PhysicalStrategy::kFullSort, SmallQueries()[0]));
}

TEST_F(CostFormulaTest, HeapPredictedCheaperThanFullSort) {
  for (const Query& q : SmallQueries()) {
    EXPECT_LE(Predicted(PhysicalStrategy::kHeap, q),
              Predicted(PhysicalStrategy::kFullSort, q));
  }
}

TEST_F(CostFormulaTest, SafetyClassification) {
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kFullSort));
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kFaginTA));
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kQualitySwitchFull));
  EXPECT_FALSE(IsSafeStrategy(PhysicalStrategy::kSmallFragment));
  EXPECT_FALSE(IsSafeStrategy(PhysicalStrategy::kQualitySwitchSparse));
}

TEST_F(CostFormulaTest, FragmentStrategiesUnavailableWithoutFragmentation) {
  CardinalityEstimator bare(&SmallCollectionWithImpacts().inverted_file());
  const StrategyPlanner planner(&bare);
  const Query& q = SmallQueries()[0];
  EXPECT_EQ(CandidateFor(planner, PhysicalStrategy::kSmallFragment, q).reject,
            PlanReject::kNeedsFragmentation);
  EXPECT_EQ(
      CandidateFor(planner, PhysicalStrategy::kQualitySwitchFull, q).reject,
      PlanReject::kNeedsFragmentation);
  EXPECT_TRUE(CandidateFor(planner, PhysicalStrategy::kFullSort, q).costed);
}

TEST_F(CostFormulaTest, StrategyNamesUniqueAndStable) {
  std::set<std::string> names;
  for (PhysicalStrategy s : AllStrategies()) names.insert(StrategyName(s));
  EXPECT_EQ(names.size(), AllStrategies().size());
}

}  // namespace
}  // namespace moa
