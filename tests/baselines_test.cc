#include "topn/baselines.h"

#include <gtest/gtest.h>

#include "ir/exact_eval.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

class BaselinesTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BaselinesTest, FullSortMatchesExactTopN) {
  const size_t n = GetParam();
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, n);
    TopNResult got = FullSortTopN(SmallSource(), SmallModel(), q, n);
    ASSERT_EQ(got.items.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(got.items[i].doc, exact[i].doc) << "rank " << i;
      EXPECT_NEAR(got.items[i].score, exact[i].score, 1e-9);
    }
  }
}

TEST_P(BaselinesTest, HeapMatchesFullSort) {
  const size_t n = GetParam();
  for (const Query& q : SmallQueries()) {
    TopNResult a = FullSortTopN(SmallSource(), SmallModel(), q, n);
    TopNResult b = HeapTopN(SmallSource(), SmallModel(), q, n);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].doc, b.items[i].doc) << "rank " << i;
    }
  }
}

TEST_P(BaselinesTest, HeapDoesFewerComparesThanFullSortForSmallN) {
  const size_t n = GetParam();
  if (n > 20) GTEST_SKIP() << "advantage shrinks for large n";
  const Query& q = SmallQueries()[0];
  TopNResult full = FullSortTopN(SmallSource(), SmallModel(), q, n);
  TopNResult heap = HeapTopN(SmallSource(), SmallModel(), q, n);
  EXPECT_LT(heap.stats.cost.compares, full.stats.cost.compares);
}

INSTANTIATE_TEST_SUITE_P(Ns, BaselinesTest,
                         ::testing::Values(1, 5, 10, 50, 250));

TEST(BaselinesTest, ResultsSortedDescending) {
  TopNResult r = HeapTopN(SmallSource(), SmallModel(), SmallQueries()[0], 20);
  for (size_t i = 1; i < r.items.size(); ++i) {
    EXPECT_TRUE(!ScoredDocLess(r.items[i], r.items[i - 1]));
  }
}

TEST(BaselinesTest, NZeroYieldsEmpty) {
  EXPECT_TRUE(HeapTopN(SmallSource(), SmallModel(), SmallQueries()[0], 0).items.empty());
  EXPECT_TRUE(
      FullSortTopN(SmallSource(), SmallModel(), SmallQueries()[0], 0).items.empty());
}

TEST(BaselinesTest, StatsReportCandidatesAndCost) {
  TopNResult r = FullSortTopN(SmallSource(), SmallModel(), SmallQueries()[1], 10);
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_GT(r.stats.cost.sequential_reads, 0);
  EXPECT_GT(r.stats.cost.score_evals, 0);
}

}  // namespace
}  // namespace moa
