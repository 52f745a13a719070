// Acceptance test for the compressed segment storage: retrieval over a
// catalog served from one memory-mapped, bit-packed segment must be
// *bit-identical* to retrieval over the in-memory index, for every
// registered strategy, sequentially and under SearchBatch concurrency
// (4 workers decoding blocks out of one shared mapping, so this doubles
// as a TSan target).
//
// Two databases opened from the same config hold identical collections.
// One serves it statically from memory; the other flushes it into its
// catalog and merges it into a single segment under the same doc ids, so
// its sorted access reads the snapshot's cached impact orders. A third
// check round-trips the file *through* that segment (ToInvertedFile) and
// runs every strategy over the decoded copy via the registry directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/registry.h"
#include "ir/query_gen.h"
#include "storage/segment/segment_reader.h"

namespace moa {
namespace {

DatabaseConfig TestConfig() {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 2500;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 74755;
  config.fragmentation.small_volume_fraction = 0.05;
  return config;
}

class SegmentParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto in_memory = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    in_memory_ = std::move(in_memory).ValueOrDie().release();

    DatabaseConfig config = TestConfig();
    config.catalog_dir =
        std::string(::testing::TempDir()) + "/segment_parity_catalog";
    std::filesystem::remove_all(config.catalog_dir);
    auto mapped = MmDatabase::Open(config);
    ASSERT_TRUE(mapped.ok());
    mapped_ = std::move(mapped).ValueOrDie().release();
    // The first mutation seeds the catalog with the collection under the
    // same ids; flush and merge leave one segment and no memtable.
    ASSERT_TRUE(mapped_->Flush().ok());
    auto merged = mapped_->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();

    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 24;
    qconfig.terms_per_query = 4;
    qconfig.distribution = QueryTermDistribution::kMixed;
    qconfig.seed = 4242;
    queries_ = new std::vector<Query>(
        GenerateQueries(in_memory_->collection(), qconfig).ValueOrDie());
  }

  /// The single segment the catalog serves.
  static std::shared_ptr<const CatalogSegment> Segment() {
    return mapped_->catalog()->Snapshot()->segments().front();
  }

  static MmDatabase* in_memory_;
  static MmDatabase* mapped_;
  static std::vector<Query>* queries_;
};

MmDatabase* SegmentParityTest::in_memory_ = nullptr;
MmDatabase* SegmentParityTest::mapped_ = nullptr;
std::vector<Query>* SegmentParityTest::queries_ = nullptr;

void ExpectIdenticalTopN(const TopNResult& a, const TopNResult& b,
                         const char* label) {
  ASSERT_EQ(a.items.size(), b.items.size()) << label;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].doc, b.items[i].doc) << label << " rank " << i;
    // Bit-identical, not approximately equal: the cursor path must run
    // the exact same float operations in the same order.
    EXPECT_EQ(a.items[i].score, b.items[i].score) << label << " rank " << i;
  }
}

/// One top-10 request per query, all forcing `strategy`.
std::vector<QueryRequest> Forced(const std::vector<Query>& queries,
                                 PhysicalStrategy strategy) {
  std::vector<QueryRequest> requests;
  for (const Query& q : queries) {
    requests.push_back({q, 10, {}});
    requests.back().options.strategy = strategy;
  }
  return requests;
}

TEST_F(SegmentParityTest, CatalogServesOneMergedSegment) {
  ASSERT_NE(mapped_->catalog(), nullptr);
  const auto state = mapped_->catalog()->Snapshot();
  ASSERT_EQ(state->segments().size(), 1u);
  EXPECT_EQ(state->memtable().num_docs(), 0u);
  EXPECT_EQ(state->doc_space(), in_memory_->file().num_docs());
  EXPECT_TRUE(state->segments().front()->reader->CheckIntegrity().ok());
  EXPECT_FALSE(in_memory_->is_dynamic());
}

TEST_F(SegmentParityTest, EveryStrategyMatchesBitForBitOverMmap) {
  for (PhysicalStrategy s : AllStrategies()) {
    for (const QueryRequest& request : Forced(*queries_, s)) {
      auto expected = in_memory_->Search(request);
      auto actual = mapped_->Search(request);
      ASSERT_TRUE(expected.ok()) << StrategyName(s);
      ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                               << actual.status().ToString();
      EXPECT_EQ(expected.ValueOrDie().strategy, actual.ValueOrDie().strategy);
      ExpectIdenticalTopN(expected.ValueOrDie().top, actual.ValueOrDie().top,
                          StrategyName(s));
    }
  }
}

TEST_F(SegmentParityTest, SearchBatchOverMmapMatchesSequentialInMemory) {
  // search_batch_test's contract, now with the batch side reading
  // compressed blocks out of the mapping from 4 worker threads.
  for (PhysicalStrategy s : AllStrategies()) {
    const std::vector<QueryRequest> requests = Forced(*queries_, s);
    std::vector<SearchResult> sequential;
    for (const QueryRequest& request : requests) {
      auto r = in_memory_->Search(request);
      ASSERT_TRUE(r.ok()) << StrategyName(s);
      sequential.push_back(std::move(r).ValueOrDie());
    }
    auto batch = mapped_->SearchBatch(requests, 4);
    ASSERT_TRUE(batch.ok()) << StrategyName(s) << ": "
                            << batch.status().ToString();
    ASSERT_EQ(batch.ValueOrDie().results.size(), queries_->size());
    for (size_t i = 0; i < queries_->size(); ++i) {
      ExpectIdenticalTopN(sequential[i].top,
                          batch.ValueOrDie().results[i].top, StrategyName(s));
    }
  }
}

TEST_F(SegmentParityTest, PlannerChosenSearchMatchesOverMmap) {
  // Storage-aware planning may legitimately pick different strategies
  // over the mapped segment than over the in-memory file (the segment's
  // decode and access-path signals shift the cost ranking — that is the
  // point of the planner). The parity contract: whatever safe strategy
  // the planner picks over the mapping must be bit-identical to the same
  // strategy over the in-memory file.
  for (const Query& q : *queries_) {
    auto actual = mapped_->Search(QueryRequest{q, 10, {}});
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(actual.ValueOrDie().planned);
    EXPECT_TRUE(IsSafeStrategy(actual.ValueOrDie().strategy))
        << StrategyName(actual.ValueOrDie().strategy);
    auto expected = in_memory_->Execute(actual.ValueOrDie().strategy, q, 10);
    ASSERT_TRUE(expected.ok());
    ExpectIdenticalTopN(expected.ValueOrDie(), actual.ValueOrDie().top,
                        "planner");
  }
}

TEST_F(SegmentParityTest, DecodedSegmentDrivesEveryStrategyViaRegistry) {
  // Full round trip through the compressed format: decode the segment
  // back into an InvertedFile, rebuild model + impacts + fragmentation on
  // the decoded copy, and run every strategy through the registry. The
  // decoded index must be indistinguishable from the original.
  auto decoded = Segment()->reader->ToInvertedFile();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  InvertedFile file = std::move(decoded).ValueOrDie();
  auto model = MakeBm25(&file);
  file.BuildImpactOrders(
      [&](TermId t, const Posting& p) { return model->Weight(t, p); });
  const InMemoryPostingSource source(&file);
  Fragmentation fragmentation =
      Fragmentation::Build(file, TestConfig().fragmentation);
  SparseIndexCache cache;

  ExecContext context;
  context.postings = &source;
  context.model = model.get();
  context.fragmentation = &fragmentation;
  context.sparse_cache = &cache;

  for (PhysicalStrategy s : AllStrategies()) {
    for (const Query& q : *queries_) {
      auto expected = in_memory_->Execute(s, q, 10);
      auto actual =
          StrategyRegistry::Global().Execute(s, context, q, 10, ExecOptions{});
      ASSERT_TRUE(expected.ok()) << StrategyName(s);
      ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                               << actual.status().ToString();
      ExpectIdenticalTopN(expected.ValueOrDie(), actual.ValueOrDie(),
                          StrategyName(s));
    }
  }
}

}  // namespace
}  // namespace moa
