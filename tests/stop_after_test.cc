#include "topn/stop_after.h"

#include <gtest/gtest.h>

#include "ir/exact_eval.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

void ExpectExact(const std::vector<ScoredDoc>& got,
                 const std::vector<ScoredDoc>& exact) {
  ASSERT_EQ(got.size(), exact.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, exact[i].doc) << "rank " << i;
  }
}

struct StopAfterCase {
  StopAfterPolicy policy;
  double bias;
};

class StopAfterTest : public ::testing::TestWithParam<StopAfterCase> {};

TEST_P(StopAfterTest, AlwaysExactRegardlessOfEstimates) {
  // STOP AFTER is a *safe* technique: even with a hostile estimate bias the
  // restart protocol must deliver the exact answer.
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  StopAfterOptions opts;
  opts.policy = GetParam().policy;
  opts.estimate_bias = GetParam().bias;
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto r = StopAfterTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectExact(r.ValueOrDie().items, exact);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StopAfterTest,
    ::testing::Values(StopAfterCase{StopAfterPolicy::kConservative, 1.0},
                      StopAfterCase{StopAfterPolicy::kAggressive, 1.0},
                      StopAfterCase{StopAfterPolicy::kAggressive, 0.5},
                      StopAfterCase{StopAfterPolicy::kAggressive, 2.0},
                      StopAfterCase{StopAfterPolicy::kAggressive, 10.0}));

TEST(StopAfterTest, ConservativeNeverRestarts) {
  StopAfterOptions opts;
  opts.policy = StopAfterPolicy::kConservative;
  auto r = StopAfterTopN(SmallSource(), SmallModel(), SmallQueries()[0], 10, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats.restarts, 0);
}

TEST(StopAfterTest, AggressiveMaterializesFewerBytes) {
  StopAfterOptions cons, aggr;
  cons.policy = StopAfterPolicy::kConservative;
  aggr.policy = StopAfterPolicy::kAggressive;
  const Query& q = SmallQueries()[0];
  auto rc = StopAfterTopN(SmallSource(), SmallModel(), q, 10, cons);
  auto ra = StopAfterTopN(SmallSource(), SmallModel(), q, 10, aggr);
  ASSERT_TRUE(rc.ok() && ra.ok());
  EXPECT_LT(ra.ValueOrDie().stats.cost.bytes_touched,
            rc.ValueOrDie().stats.cost.bytes_touched);
}

TEST(StopAfterTest, OverconfidentCutoffProvokesRestarts) {
  StopAfterOptions opts;
  opts.policy = StopAfterPolicy::kAggressive;
  opts.estimate_bias = 50.0;  // absurdly high cutoff: first pass underflows
  int total_restarts = 0;
  for (const Query& q : SmallQueries()) {
    auto r = StopAfterTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    total_restarts += r.ValueOrDie().stats.restarts;
  }
  EXPECT_GT(total_restarts, 0);
}

TEST(StopAfterTest, HonestCutoffRarelyRestarts) {
  StopAfterOptions opts;
  opts.policy = StopAfterPolicy::kAggressive;
  int total_restarts = 0;
  for (const Query& q : SmallQueries()) {
    auto r = StopAfterTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    total_restarts += r.ValueOrDie().stats.restarts;
  }
  EXPECT_LE(total_restarts, 2);
}

TEST(StopAfterTest, RejectsNonPositiveSafety) {
  StopAfterOptions opts;
  opts.safety = 0.0;
  auto r = StopAfterTopN(SmallSource(), SmallModel(), SmallQueries()[0], 10, opts);
  EXPECT_FALSE(r.ok());
}

TEST(StopAfterTest, NLargerThanCandidates) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  StopAfterOptions opts;
  opts.policy = StopAfterPolicy::kAggressive;
  const Query& q = SmallQueries()[0];
  auto exact = ExactRanking(f, SmallModel(), q);
  auto r = StopAfterTopN(SmallSource(), SmallModel(), q, exact.size() + 100, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().items.size(), exact.size());
}

}  // namespace
}  // namespace moa
