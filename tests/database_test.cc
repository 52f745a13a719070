#include "engine/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>

namespace moa {
namespace {

DatabaseConfig TestConfig() {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 2500;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 31337;
  config.fragmentation.small_volume_fraction = 0.05;
  return config;
}

class MmDatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie().release();
    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 6;
    qconfig.terms_per_query = 3;
    qconfig.distribution = QueryTermDistribution::kMixed;
    queries_ = new std::vector<Query>(
        GenerateQueries(db_->collection(), qconfig).ValueOrDie());
  }

  static MmDatabase* db_;
  static std::vector<Query>* queries_;
};

MmDatabase* MmDatabaseTest::db_ = nullptr;
std::vector<Query>* MmDatabaseTest::queries_ = nullptr;

TEST_F(MmDatabaseTest, OpenBuildsAllComponents) {
  EXPECT_EQ(db_->file().num_docs(), 1500u);
  EXPECT_GT(db_->fragmentation().term_count(FragmentId::kSmall), 0u);
  EXPECT_EQ(db_->model().name(), "bm25");
}

TEST_F(MmDatabaseTest, OpenRejectsBadConfig) {
  DatabaseConfig bad = TestConfig();
  bad.collection.num_docs = 0;
  EXPECT_FALSE(MmDatabase::Open(bad).ok());
  DatabaseConfig no_shards = TestConfig();
  no_shards.num_shards = 0;
  EXPECT_EQ(MmDatabase::Open(no_shards).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MmDatabaseTest, SearchSafeMatchesGroundTruthSet) {
  for (const Query& q : *queries_) {
    auto r = db_->Search(QueryRequest{q, 10, {}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto truth = db_->GroundTruth(q, 10);
    auto scores = db_->GroundTruthScores(q);
    ASSERT_EQ(r.ValueOrDie().top.items.size(), truth.size());
    const double nth = truth.empty() ? 0.0 : truth.back().score;
    for (const auto& sd : r.ValueOrDie().top.items) {
      EXPECT_GE(scores[sd.doc] + 1e-9, nth);
    }
    EXPECT_TRUE(IsSafeStrategy(r.ValueOrDie().strategy));
  }
}

TEST_F(MmDatabaseTest, EveryStrategyExecutes) {
  const Query& q = (*queries_)[0];
  for (PhysicalStrategy s : AllStrategies()) {
    auto r = db_->Execute(s, q, 5);
    ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
    EXPECT_LE(r.ValueOrDie().items.size(), 5u) << StrategyName(s);
  }
}

TEST_F(MmDatabaseTest, SafeStrategiesAgreeOnTopSet) {
  const Query& q = (*queries_)[1];
  auto truth = db_->GroundTruth(q, 10);
  auto scores = db_->GroundTruthScores(q);
  const double nth = truth.empty() ? 0.0 : truth.back().score;
  for (PhysicalStrategy s : AllStrategies()) {
    if (!IsSafeStrategy(s)) continue;
    auto r = db_->Execute(s, q, 10);
    ASSERT_TRUE(r.ok()) << StrategyName(s);
    ASSERT_EQ(r.ValueOrDie().items.size(), truth.size()) << StrategyName(s);
    for (const auto& sd : r.ValueOrDie().items) {
      EXPECT_GE(scores[sd.doc] + 1e-9, nth)
          << StrategyName(s) << " returned doc " << sd.doc;
    }
  }
}

TEST_F(MmDatabaseTest, ForcedStrategyIsUsed) {
  QueryRequest request{(*queries_)[2], 5, {}};
  request.options.strategy = PhysicalStrategy::kHeap;
  auto r = db_->Search(request);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().strategy, PhysicalStrategy::kHeap);
}

TEST_F(MmDatabaseTest, UnsafeSearchAllowsFragmentStrategy) {
  QueryRequest request{(*queries_)[3], 5, {}};
  request.options.quality_target = 0.0;
  auto r = db_->Search(request);
  ASSERT_TRUE(r.ok());
  // Whatever was chosen must have been the cheapest alternative.
  EXPECT_GT(r.ValueOrDie().estimate.scalar, 0.0);
}

TEST_F(MmDatabaseTest, ExplainListsEveryCandidateWithCostAndReject) {
  QueryRequest request;
  request.query = (*queries_)[0];
  auto report = db_->ExplainSearch(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ExplainReport& r = report.ValueOrDie();

  // Structured decision: every registered strategy appears exactly once,
  // the chosen one carries reject kNone, and in static mode (full file +
  // fragmentation installed) every candidate is costed.
  EXPECT_FALSE(r.decision.forced);
  EXPECT_EQ(r.decision.chosen.reject, PlanReject::kNone);
  EXPECT_EQ(r.decision.chosen.strategy, r.decision.strategy);
  ASSERT_EQ(r.decision.candidates.size(), AllStrategies().size());
  size_t none_count = 0;
  double prev_scalar = -1.0;
  for (const PlanCandidate& c : r.decision.candidates) {
    if (c.reject == PlanReject::kNone) ++none_count;
    ASSERT_TRUE(c.costed) << StrategyName(c.strategy);
    EXPECT_GT(c.scalar, 0.0) << StrategyName(c.strategy);
    EXPECT_GE(c.scalar, prev_scalar) << "not cheapest-first";
    prev_scalar = c.scalar;
  }
  EXPECT_EQ(none_count, 1u);
  EXPECT_FALSE(r.storage.empty());

  // The rendered text still carries the classic markers.
  const std::string text = r.ToString();
  EXPECT_NE(text.find("chosen:"), std::string::npos);
  EXPECT_NE(text.find("alternatives"), std::string::npos);
  EXPECT_NE(text.find("storage:"), std::string::npos);
}

TEST_F(MmDatabaseTest, PlannerChoiceIsReportedInExplain) {
  // Regression for the removed hard-coded default: an unforced request
  // must be *planned* (not defaulted), and Explain must report the same
  // choice with the losing candidates' predictions visible.
  QueryRequest request;
  request.query = (*queries_)[1];
  auto search = db_->Search(request);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  EXPECT_TRUE(search.ValueOrDie().planned);
  EXPECT_TRUE(IsSafeStrategy(search.ValueOrDie().strategy));
  EXPECT_DOUBLE_EQ(search.ValueOrDie().predicted_quality, 1.0);

  auto report = db_->ExplainSearch(request);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.ValueOrDie().decision.strategy,
            search.ValueOrDie().strategy);
  EXPECT_FALSE(report.ValueOrDie().decision.forced);

  // A forced request reports forced=true and marks an eligible loser.
  request.options.strategy = PhysicalStrategy::kFullSort;
  auto forced = db_->ExplainSearch(request);
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(forced.ValueOrDie().decision.forced);
  EXPECT_EQ(forced.ValueOrDie().decision.strategy,
            PhysicalStrategy::kFullSort);
  bool saw_forced_other = false;
  for (const PlanCandidate& c : forced.ValueOrDie().decision.candidates) {
    saw_forced_other |= c.reject == PlanReject::kForcedOther;
  }
  EXPECT_TRUE(saw_forced_other);
}

TEST_F(MmDatabaseTest, ExplainReportsFormatAndSkippedBlocksOverSegment) {
  // Acceptance: over a block-structured catalog segment, a pruned query's
  // explain must name the segment format and show a nonzero skipped-block
  // count (block-max pruning at work).
  const std::string dir =
      std::string(::testing::TempDir()) + "/db_explain_blocks";
  std::filesystem::remove_all(dir);
  DatabaseConfig config = TestConfig();
  config.catalog_dir = dir;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.Flush().ok());  // seeds the catalog, then one segment

  QueryRequest request;
  request.n = 5;
  request.options.strategy = PhysicalStrategy::kMaxScore;
  int64_t max_skipped = 0;
  for (const Query& q : *queries_) {
    request.query = q;
    auto report = db.ExplainSearch(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const ExplainReport& r = report.ValueOrDie();
    EXPECT_NE(r.storage.find("MOAIF03"), std::string::npos) << r.storage;
    ASSERT_TRUE(r.has_blocks) << r.ToString();
    EXPECT_GT(r.observed.blocks_decoded, 0);
    max_skipped = std::max(max_skipped, r.observed.blocks_skipped);
    // The text rendering keeps the historical block line.
    EXPECT_NE(r.ToString().find("blocks: decoded "), std::string::npos);
  }
  EXPECT_GT(max_skipped, 0) << "no query skipped any block";
}

TEST_F(MmDatabaseTest, RejectsMalformedQueryOptions) {
  // Static serving and a one-shard catalog here; more shards in
  // sharded_catalog_test.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<QueryOptions> bad(5);
  bad[0].quality_target = nan;
  bad[1].quality_target = -0.25;
  bad[2].quality_target = 1.5;
  bad[3].deadline_millis = nan;
  bad[4].deadline_millis = -1.0;

  auto dynamic = MmDatabase::Open(TestConfig());
  ASSERT_TRUE(dynamic.ok());
  ASSERT_TRUE(dynamic.ValueOrDie()->DeleteDocument(0).ok());
  ASSERT_NE(dynamic.ValueOrDie()->catalog(), nullptr);

  for (const MmDatabase* db : {db_, dynamic.ValueOrDie().get()}) {
    for (size_t i = 0; i < bad.size(); ++i) {
      SCOPED_TRACE(std::string(db->is_dynamic() ? "catalog" : "static") +
                   " case " + std::to_string(i));
      const QueryRequest request{(*queries_)[0], 10, bad[i]};
      EXPECT_EQ(db->Search(request).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(db->SearchBatch({request, request}, 2).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(db->ExplainSearch(request).status().code(),
                StatusCode::kInvalidArgument);
    }
    // Term ids at and far past the vocabulary: executors index per-term
    // arrays unchecked, so the facade refuses them before any runs.
    for (const TermId t : {static_cast<TermId>(db->file().num_terms()),
                           TermId{100000000}}) {
      SCOPED_TRACE(std::string(db->is_dynamic() ? "catalog" : "static") +
                   " term " + std::to_string(t));
      Query query = (*queries_)[0];
      query.terms.push_back(t);
      const QueryRequest request{query, 10, {}};
      EXPECT_EQ(db->Search(request).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(db->SearchBatch({request, request}, 2).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(db->ExplainSearch(request).status().code(),
                StatusCode::kInvalidArgument);
      for (PhysicalStrategy s : AllStrategies()) {
        EXPECT_EQ(db->Execute(s, query, 10).status().code(),
                  StatusCode::kInvalidArgument)
            << StrategyName(s);
      }
    }
  }

  // A NaN target would pass every quality test and admit unsafe
  // strategies; the ends of the range stay valid.
  QueryRequest edge{(*queries_)[0], 10, {}};
  edge.options.quality_target = 0.0;
  EXPECT_TRUE(db_->Search(edge).ok());
  edge.options.quality_target = 1.0;
  auto exact = db_->Search(edge);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(IsSafeStrategy(exact.ValueOrDie().strategy));
}

TEST_F(MmDatabaseTest, AddDocumentsReturnsEveryId) {
  auto opened = MmDatabase::Open(TestConfig());
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();
  const std::vector<DocTerms> docs = {{{1, 1}}, {{2, 3}, {5, 1}}, {{7, 2}}};
  auto ids = db.AddDocuments(docs);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  // The seed keeps ids 0..1499; one catalog appends consecutively.
  EXPECT_EQ(ids.ValueOrDie(), (std::vector<DocId>{1500, 1501, 1502}));
}

TEST_F(MmDatabaseTest, SearchReportsWallTimeAndStats) {
  auto r = db_->Search(QueryRequest{(*queries_)[4], 10, {}});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.ValueOrDie().wall_millis, 0.0);
  EXPECT_GT(r.ValueOrDie().top.stats.cost.Scalar(), 0.0);
}

}  // namespace
}  // namespace moa
