#include "topn/fagin.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "ir/exact_eval.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallSource;
using testutil::SmallQueries;

/// Safety for TA/FA: exact ranking; tolerate permutation of score ties.
void ExpectExactRanking(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& exact) {
  ASSERT_EQ(got.size(), exact.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, exact[i].score, 1e-9) << "rank " << i;
  }
}

/// Safety for NRA: every returned doc's true score reaches the exact n-th
/// score (set correctness up to ties).
void ExpectTopSet(const std::vector<ScoredDoc>& got,
                  const std::vector<ScoredDoc>& exact,
                  const std::vector<double>& truth_scores) {
  ASSERT_EQ(got.size(), exact.size());
  if (exact.empty()) return;
  const double nth = exact.back().score;
  for (const auto& sd : got) {
    EXPECT_GE(truth_scores[sd.doc] + 1e-9, nth) << "doc " << sd.doc;
  }
}

class FaginTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FaginTest, TaIsExact) {
  const size_t n = GetParam();
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, n);
    auto r = FaginTA(SmallSource(), SmallModel(), q, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectExactRanking(r.ValueOrDie().items, exact);
  }
}

TEST_P(FaginTest, FaIsExact) {
  const size_t n = GetParam();
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, n);
    auto r = FaginFA(SmallSource(), SmallModel(), q, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectExactRanking(r.ValueOrDie().items, exact);
  }
}

TEST_P(FaginTest, NraReturnsExactTopSet) {
  const size_t n = GetParam();
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  for (const Query& q : SmallQueries()) {
    auto exact = ExactTopN(f, SmallModel(), q, n);
    auto scores = AccumulateScores(f, SmallModel(), q);
    auto r = FaginNRA(SmallSource(), SmallModel(), q, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectTopSet(r.ValueOrDie().items, exact, scores);
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, FaginTest, ::testing::Values(1, 5, 10, 50));

TEST(FaginTest, TaStopsEarlyOnSelectiveQueries) {
  int early = 0, total = 0;
  for (const Query& q : SmallQueries()) {
    auto r = FaginTA(SmallSource(), SmallModel(), q, 5);
    ASSERT_TRUE(r.ok());
    early += r.ValueOrDie().stats.stopped_early ? 1 : 0;
    ++total;
  }
  EXPECT_GT(early, total / 2) << "TA should usually stop before exhaustion";
}

TEST(FaginTest, TaReadsFewerPostingsThanExhaustive) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  const Query& q = SmallQueries()[0];
  int64_t volume = 0;
  for (TermId t : q.terms) volume += f.DocFrequency(t);
  auto r = FaginTA(SmallSource(), SmallModel(), q, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.ValueOrDie().stats.sorted_accesses, volume);
}

TEST(FaginTest, SortedAccessesGrowWithN) {
  const Query& q = SmallQueries()[1];
  int64_t prev = 0;
  for (size_t n : {1, 10, 100}) {
    auto r = FaginTA(SmallSource(), SmallModel(), q, n);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.ValueOrDie().stats.sorted_accesses, prev);
    prev = r.ValueOrDie().stats.sorted_accesses;
  }
}

TEST(FaginTest, NraDoesNoRandomAccess) {
  auto r = FaginNRA(SmallSource(), SmallModel(), SmallQueries()[2], 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats.random_accesses, 0);
  EXPECT_EQ(r.ValueOrDie().stats.cost.random_reads, 0);
}

TEST(FaginTest, TaDoesRandomAccess) {
  auto r = FaginTA(SmallSource(), SmallModel(), SmallQueries()[2], 10);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.ValueOrDie().stats.random_accesses, 0);
}

TEST(FaginTest, RequiresImpactOrders) {
  // A fresh collection without impact orders must be rejected.
  CollectionConfig config;
  config.num_docs = 50;
  config.vocabulary = 100;
  config.seed = 77;
  auto coll = Collection::Generate(config);
  ASSERT_TRUE(coll.ok());
  auto model = MakeBm25(&coll.ValueOrDie().mutable_inverted_file());
  Query q;
  for (TermId t = 0; t < 100; ++t) {
    if (coll.ValueOrDie().inverted_file().DocFrequency(t) > 0) {
      q.terms.push_back(t);
      if (q.terms.size() == 2) break;
    }
  }
  auto r = FaginTA(InMemoryPostingSource(&coll.ValueOrDie().inverted_file()),
                   *model, q, 5);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FaginTest, EmptyQueryGivesEmptyResult) {
  Query empty;
  using FaginFn = Result<TopNResult> (*)(const PostingSource&,
                                         const ScoringModel&, const Query&,
                                         size_t, const FaginOptions&);
  for (FaginFn fn : {&FaginFA, &FaginTA, &FaginNRA}) {
    auto r = (*fn)(SmallSource(), SmallModel(), empty, 10, FaginOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.ValueOrDie().items.empty());
  }
}

TEST(FaginTest, SingleTermQueryIsExactAndCheap) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  Query q;
  q.terms = {SmallQueries()[0].terms[0]};
  auto exact = ExactTopN(f, SmallModel(), q, 5);
  auto r = FaginTA(SmallSource(), SmallModel(), q, 5);
  ASSERT_TRUE(r.ok());
  ExpectExactRanking(r.ValueOrDie().items, exact);
  // One list: TA needs at most n + 1 sorted accesses.
  EXPECT_LE(r.ValueOrDie().stats.sorted_accesses,
            static_cast<int64_t>(exact.size()) + 1);
}

}  // namespace
}  // namespace moa
