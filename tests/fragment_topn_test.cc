#include "topn/fragment_topn.h"

#include <gtest/gtest.h>

#include <limits>

#include "ir/exact_eval.h"
#include "ir/metrics.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallFragmentation;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

TEST(SmallFragmentTest, TouchesOnlySmallFragmentPostings) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Fragmentation& frag = SmallFragmentation();
  for (const Query& q : SmallQueries()) {
    int64_t small_volume = 0;
    for (TermId t : q.terms) {
      if (frag.in_small(t)) small_volume += f.DocFrequency(t);
    }
    TopNResult r = SmallFragmentTopN(SmallSource(), frag, SmallModel(), q, 10);
    EXPECT_EQ(r.stats.cost.sequential_reads, small_volume);
  }
}

TEST(SmallFragmentTest, UnsafeQualityCanDrop) {
  // Across the workload the small-fragment answers must not be uniformly
  // perfect (otherwise the paper's quality-drop claim has no substrate).
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Fragmentation& frag = SmallFragmentation();
  double worst = 1.0;
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto scores = AccumulateScores(f, SmallModel(), q);
    TopNResult r = SmallFragmentTopN(SmallSource(), frag, SmallModel(), q, 10);
    QualityReport rep = EvaluateQuality(r.items, exact, scores);
    worst = std::min(worst, rep.overlap_at_n);
  }
  EXPECT_LT(worst, 1.0);
}

TEST(QualitySwitchTest, FullScanZeroThresholdIsExact) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions opts;  // threshold 0, full scan: safe
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto r = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& got = r.ValueOrDie().items;
    ASSERT_EQ(got.size(), exact.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, exact[i].doc) << "rank " << i;
      EXPECT_NEAR(got[i].score, exact[i].score, 1e-9);
    }
  }
}

TEST(QualitySwitchTest, SkipModeEqualsSmallFragment) {
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions opts;
  opts.mode = LargeFragmentMode::kSkip;
  for (const Query& q : SmallQueries()) {
    auto r = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    TopNResult small = SmallFragmentTopN(SmallSource(), frag, SmallModel(), q, 10);
    ASSERT_EQ(r.ValueOrDie().items.size(), small.items.size());
    for (size_t i = 0; i < small.items.size(); ++i) {
      EXPECT_EQ(r.ValueOrDie().items[i].doc, small.items[i].doc);
    }
    EXPECT_FALSE(r.ValueOrDie().stats.used_large_fragment);
  }
}

TEST(QualitySwitchTest, HugeThresholdSuppressesLargeFragmentWhenSmallSuffices) {
  // With an (absurdly) high threshold the check only fires when the small
  // fragment could not even fill the top n (n-th score 0): a correct
  // quality check must still switch then.
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions opts;
  opts.switch_threshold = 1e12;
  for (const Query& q : SmallQueries()) {
    auto r = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, opts);
    ASSERT_TRUE(r.ok());
    TopNResult small_only = SmallFragmentTopN(SmallSource(), frag, SmallModel(), q, 10);
    if (small_only.items.size() >= 10) {
      EXPECT_FALSE(r.ValueOrDie().stats.used_large_fragment);
    } else {
      EXPECT_TRUE(r.ValueOrDie().stats.used_large_fragment);
    }
  }
}

TEST(QualitySwitchTest, SparseProbeImprovesOverUnsafeSmallFragment) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions opts;
  opts.mode = LargeFragmentMode::kSparseProbe;
  opts.candidate_pool = 100;
  double sum_sparse = 0.0, sum_small = 0.0;
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, 10);
    auto scores = AccumulateScores(f, SmallModel(), q);
    auto sparse = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, opts);
    ASSERT_TRUE(sparse.ok());
    TopNResult small = SmallFragmentTopN(SmallSource(), frag, SmallModel(), q, 10);
    sum_sparse +=
        EvaluateQuality(sparse.ValueOrDie().items, exact, scores).score_ratio;
    sum_small += EvaluateQuality(small.items, exact, scores).score_ratio;
  }
  EXPECT_GE(sum_sparse, sum_small);
}

TEST(QualitySwitchTest, SparseProbeCheaperThanFullScan) {
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions full, sparse;
  full.mode = LargeFragmentMode::kFullScan;
  sparse.mode = LargeFragmentMode::kSparseProbe;
  // The probe advantage scales with posting-list length; on this small test
  // collection the pool/block sizes must stay proportionally small too.
  sparse.candidate_pool = 20;
  sparse.champions = 20;
  sparse.sparse_block = 16;
  SparseIndexCache cache;
  sparse.sparse_cache = &cache;
  double full_cost = 0.0, sparse_cost = 0.0;
  for (const Query& q : SmallQueries()) {
    auto rf = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, full);
    auto rs = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, sparse);
    ASSERT_TRUE(rf.ok() && rs.ok());
    full_cost += rf.ValueOrDie().stats.cost.Scalar();
    sparse_cost += rs.ValueOrDie().stats.cost.Scalar();
  }
  EXPECT_LT(sparse_cost, full_cost);
}

TEST(QualitySwitchTest, SparseCacheIsReused) {
  const Fragmentation& frag = SmallFragmentation();
  QualitySwitchOptions opts;
  opts.mode = LargeFragmentMode::kSparseProbe;
  SparseIndexCache cache;
  opts.sparse_cache = &cache;
  auto r1 = QualitySwitchTopN(SmallSource(), frag, SmallModel(), SmallQueries()[0], 10, opts);
  ASSERT_TRUE(r1.ok());
  const size_t after_first = cache.size();
  auto r2 = QualitySwitchTopN(SmallSource(), frag, SmallModel(), SmallQueries()[0], 10, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.size(), after_first);
}

TEST(QualitySwitchTest, RejectsNegativeOrNaNThreshold) {
  // A NaN passes a `< 0` check, and then `potential > NaN * nth` never
  // holds: the large fragment would silently never be read.
  for (const double threshold :
       {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    for (const LargeFragmentMode mode :
         {LargeFragmentMode::kFullScan, LargeFragmentMode::kSparseProbe}) {
      QualitySwitchOptions opts;
      opts.switch_threshold = threshold;
      opts.mode = mode;
      auto r = QualitySwitchTopN(SmallSource(), SmallFragmentation(),
                                 SmallModel(), SmallQueries()[0], 10, opts);
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << threshold;
    }
  }
}

TEST(QualitySwitchTest, AllSmallQueryStopsEarlyWithoutLargePass) {
  // A query consisting only of small-fragment (rare) terms never needs the
  // large fragment.
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Fragmentation& frag = SmallFragmentation();
  Query q;
  for (TermId t = static_cast<TermId>(f.num_terms()); t-- > 0;) {
    if (f.DocFrequency(t) > 0 && frag.in_small(t)) {
      q.terms.push_back(t);
      if (q.terms.size() == 3) break;
    }
  }
  ASSERT_EQ(q.terms.size(), 3u);
  QualitySwitchOptions opts;
  auto r = QualitySwitchTopN(SmallSource(), frag, SmallModel(), q, 10, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.ValueOrDie().stats.used_large_fragment);
  // And it is exact, because the query never touches the large fragment.
  auto exact = ExactTopN(f, SmallModel(), q, 10);
  ASSERT_EQ(r.ValueOrDie().items.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(r.ValueOrDie().items[i].doc, exact[i].doc);
  }
}

}  // namespace
}  // namespace moa
