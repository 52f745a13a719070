#include "topn/probabilistic.h"

#include <gtest/gtest.h>

#include "ir/exact_eval.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-4);
}

TEST(InverseNormalCdfTest, MonotoneAndSymmetric) {
  double prev = -1e18;
  for (double p = 0.01; p < 1.0; p += 0.01) {
    double z = InverseNormalCdf(p);
    EXPECT_GT(z, prev);
    prev = z;
    EXPECT_NEAR(z, -InverseNormalCdf(1.0 - p), 1e-6);
  }
}

class ProbabilisticTest : public ::testing::TestWithParam<double> {};

TEST_P(ProbabilisticTest, ExactAtAnyConfidence) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  ProbabilisticOptions opts;
  opts.confidence = GetParam();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto r = ProbabilisticTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& got = r.ValueOrDie().items;
    ASSERT_EQ(got.size(), exact.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, exact[i].doc) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Confidences, ProbabilisticTest,
                         ::testing::Values(0.5, 0.8, 0.95, 0.99));

TEST(ProbabilisticTest, HighConfidenceRestartsLessThanLow) {
  auto restarts_at = [&](double confidence) {
    ProbabilisticOptions opts;
    opts.confidence = confidence;
    int restarts = 0;
    for (const Query& q : SmallQueries()) {
      auto r = ProbabilisticTopN(SmallSource(), SmallModel(), q, 20, opts);
      EXPECT_TRUE(r.ok());
      restarts += r.ValueOrDie().stats.restarts;
    }
    return restarts;
  };
  EXPECT_LE(restarts_at(0.99), restarts_at(0.05) + 1);
}

TEST(ProbabilisticTest, RejectsInvalidConfidence) {
  ProbabilisticOptions opts;
  opts.confidence = 1.5;
  EXPECT_FALSE(
      ProbabilisticTopN(SmallSource(), SmallModel(), SmallQueries()[0], 5, opts).ok());
  opts.confidence = 0.0;
  EXPECT_FALSE(
      ProbabilisticTopN(SmallSource(), SmallModel(), SmallQueries()[0], 5, opts).ok());
}

TEST(ProbabilisticTest, StopsEarlyOnMostQueries) {
  ProbabilisticOptions opts;
  int early = 0;
  for (const Query& q : SmallQueries()) {
    auto r = ProbabilisticTopN(SmallSource(), SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    early += r.ValueOrDie().stats.stopped_early ? 1 : 0;
  }
  EXPECT_GT(early, static_cast<int>(SmallQueries().size()) / 2);
}

}  // namespace
}  // namespace moa
