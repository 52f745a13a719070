#include "topn/maxscore.h"

#include <gtest/gtest.h>

#include "ir/exact_eval.h"
#include "ir/metrics.h"
#include "test_util.h"
#include "topn/baselines.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

class MaxScoreTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MaxScoreTest, ContinueModeReturnsExactTopSet) {
  const size_t n = GetParam();
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, n);
    auto scores = AccumulateScores(f, SmallModel(), q);
    auto r = MaxScoreTopN(SmallSource(), SmallModel(), q, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& got = r.ValueOrDie().items;
    ASSERT_EQ(got.size(), exact.size());
    const double nth = exact.empty() ? 0.0 : exact.back().score;
    for (const auto& sd : got) {
      // Tie-tolerant set safety + exact scores for returned docs.
      EXPECT_GE(scores[sd.doc] + 1e-9, nth) << "doc " << sd.doc;
      EXPECT_NEAR(scores[sd.doc], sd.score, 1e-9) << "doc " << sd.doc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, MaxScoreTest, ::testing::Values(1, 5, 10, 50));

TEST(MaxScoreTest, ContinueCreatesFewerAccumulatorsThanHeap) {
  int64_t pruned_cand = 0, full_cand = 0;
  for (const Query& q : SmallQueries()) {
    auto r = MaxScoreTopN(SmallSource(), SmallModel(), q, 5);
    ASSERT_TRUE(r.ok());
    pruned_cand += r.ValueOrDie().stats.candidates;
    full_cand += HeapTopN(SmallSource(), SmallModel(), q, 5).stats.candidates;
  }
  EXPECT_LT(pruned_cand, full_cand);
}

TEST(MaxScoreTest, ContinueScoresFewerPostingsThanExhaustive) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    int64_t volume = 0;
    for (TermId t : q.terms) volume += f.DocFrequency(t);
    auto r = MaxScoreTopN(SmallSource(), SmallModel(), q, 5);
    ASSERT_TRUE(r.ok());
    // Once pruning engages, remaining terms are probed per accumulator
    // (random reads) instead of scanned, so sequential reads can only
    // drop below the full posting volume; scoring still skips pruned
    // documents.
    EXPECT_LE(r.ValueOrDie().stats.cost.sequential_reads, volume);
    EXPECT_LE(r.ValueOrDie().stats.cost.score_evals, volume);
  }
}

TEST(MaxScoreTest, QuitModeCheaperButLossy) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  MaxScoreOptions quit;
  quit.mode = PruneMode::kQuit;
  double quit_work = 0.0, cont_work = 0.0, overlap_sum = 0.0;
  int quit_count = 0;
  for (const Query& q : SmallQueries()) {
    auto rq = MaxScoreTopN(SmallSource(), SmallModel(), q, 10, quit);
    auto rc = MaxScoreTopN(SmallSource(), SmallModel(), q, 10);
    ASSERT_TRUE(rq.ok() && rc.ok());
    quit_work += rq.ValueOrDie().stats.cost.Scalar();
    cont_work += rc.ValueOrDie().stats.cost.Scalar();
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto scores = AccumulateScores(f, SmallModel(), q);
    overlap_sum +=
        EvaluateQuality(rq.ValueOrDie().items, exact, scores).overlap_at_n;
    quit_count += rq.ValueOrDie().stats.stopped_early ? 1 : 0;
  }
  EXPECT_LE(quit_work, cont_work);
  // Quality may drop but should stay usable on this workload.
  EXPECT_GT(overlap_sum / SmallQueries().size(), 0.5);
}

TEST(MaxScoreTest, AccumulatorBudgetBounds) {
  MaxScoreOptions opts;
  opts.accumulator_budget = 64;
  for (const Query& q : SmallQueries()) {
    auto r = MaxScoreTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.ValueOrDie().stats.candidates, 64 + 0);
  }
}

TEST(MaxScoreTest, BudgetSweepTradesQualityForMemory) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  double prev_quality = -1.0;
  for (size_t budget : {16u, 128u, 0u}) {  // 0 = unlimited
    MaxScoreOptions opts;
    opts.accumulator_budget = budget;
    double quality = 0.0;
    for (const Query& q : SmallQueries()) {
      auto exact = ExactTopN(f, SmallModel(), q, 10);
      auto scores = AccumulateScores(f, SmallModel(), q);
      auto r = MaxScoreTopN(SmallSource(), SmallModel(), q, 10, opts);
      ASSERT_TRUE(r.ok());
      quality +=
          EvaluateQuality(r.ValueOrDie().items, exact, scores).score_ratio;
    }
    EXPECT_GE(quality + 1e-9, prev_quality)
        << "larger budgets must not hurt quality (budget " << budget << ")";
    prev_quality = quality;
  }
}

TEST(MaxScoreTest, RequiresImpactOrders) {
  CollectionConfig config;
  config.num_docs = 40;
  config.vocabulary = 60;
  config.seed = 3;
  auto coll = Collection::Generate(config).ValueOrDie();
  auto model = MakeBm25(&coll.mutable_inverted_file());
  Query q;
  for (TermId t = 0; t < 60; ++t) {
    if (coll.inverted_file().DocFrequency(t) > 0) {
      q.terms.push_back(t);
      break;
    }
  }
  auto r = MaxScoreTopN(InMemoryPostingSource(&coll.inverted_file()), *model,
                        q, 5);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MaxScoreTest, EmptyQueryYieldsEmpty) {
  auto r = MaxScoreTopN(SmallSource(), SmallModel(), Query{}, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().items.empty());
}

}  // namespace
}  // namespace moa
