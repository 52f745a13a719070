// BackgroundMaintenance tests: trigger policy (flush by memtable size,
// size-tiered merge by segment count), concurrent mutation vs background
// job interleaving (the TSan target for the torn-manifest regression),
// write backpressure in both block and soft-fail modes, rate limiting,
// sharded attachment with snapshot-cache invalidation, and clean
// detach-on-destruction.
#include "storage/catalog/background_jobs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog/sharded_catalog.h"

namespace moa {
namespace {

constexpr size_t kVocab = 32;

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/bg_" + name +
                          "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  std::filesystem::remove_all(dir);
  return dir;
}

IndexCatalog::Options InDir(const std::string& dir) {
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.dir = dir;
  return options;
}

DocTerms Doc(uint32_t seed) {
  return {{1 + seed % (kVocab - 1), 1 + seed % 5}};
}

TEST(BackgroundJobsTest, FlushTriggersOnMemtableSize) {
  const std::string dir = FreshDir("flush_trigger");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  auto& c = *catalog.ValueOrDie();

  MaintenancePolicy policy;
  policy.flush_trigger_docs = 8;
  policy.merge_trigger_segments = 0;  // merges off
  BackgroundMaintenance maintenance(&c, policy);

  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.AddDocument(Doc(i)).ok());
  }
  maintenance.WaitIdle();
  EXPECT_TRUE(maintenance.TakeLastError().ok());

  auto state = c.Snapshot();
  // Everything above the trigger has been flushed to segments; at most
  // trigger-1 docs may still sit in the memtable.
  EXPECT_GE(state->segments().size(), 1u);
  EXPECT_LT(state->memtable().num_docs(), policy.flush_trigger_docs);
  EXPECT_EQ(state->stats().num_live_docs, 20u);
}

TEST(BackgroundJobsTest, MergeKeepsSegmentCountBounded) {
  const std::string dir = FreshDir("merge_trigger");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();

  MaintenancePolicy policy;
  policy.flush_trigger_docs = 2;
  policy.merge_trigger_segments = 4;
  policy.merge_fanin = 3;
  BackgroundMaintenance maintenance(&c, policy);

  for (uint32_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(c.AddDocument(Doc(i)).ok());
  }
  maintenance.WaitIdle();
  EXPECT_TRUE(maintenance.TakeLastError().ok());

  auto state = c.Snapshot();
  // The merge loop compacts whenever the count reaches the trigger, so a
  // settled catalog sits below it.
  EXPECT_LT(state->segments().size(), policy.merge_trigger_segments);
  EXPECT_EQ(state->stats().num_live_docs, 60u);
}

// The satellite-3 regression: background flush/merge racing foreground
// mutations must never tear state (run under TSan via the ctest `tsan`
// label; the assertions also catch logical races in any mode).
TEST(BackgroundJobsTest, ConcurrentMutationsAndJobsStayConsistent) {
  const std::string dir = FreshDir("race");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();

  MaintenancePolicy policy;
  policy.flush_trigger_docs = 4;
  policy.merge_trigger_segments = 3;
  policy.merge_fanin = 2;
  BackgroundMaintenance maintenance(&c, policy);

  constexpr int kThreads = 4;
  constexpr int kDocsPerThread = 40;
  std::atomic<uint32_t> deletes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDocsPerThread; ++i) {
        auto id = c.AddDocument(Doc(static_cast<uint32_t>(t * 100 + i)));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        if (i % 5 == 0) {
          // Deleting our own freshly-acknowledged id: may race a merge
          // that compacted it away — both outcomes are legal, torn state
          // is not.
          const Status s = c.DeleteDocument(id.ValueOrDie());
          if (s.ok()) deletes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  maintenance.WaitIdle();
  EXPECT_TRUE(maintenance.TakeLastError().ok());

  // Deletes racing merges may target an id the merge already remapped;
  // those fail cleanly (NotFound / InvalidArgument) and the doc stays
  // live. Only successful deletes reduce the live count.
  auto state = c.Snapshot();
  EXPECT_EQ(state->stats().num_live_docs,
            static_cast<uint64_t>(kThreads * kDocsPerThread) - deletes.load());

  // And the whole thing recovers from disk to the same live count.
  auto reopened = IndexCatalog::Open(InDir(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->stats().num_live_docs,
            state->stats().num_live_docs);
}

TEST(BackgroundJobsTest, BackpressureBlocksUntilFlushCatchesUp) {
  const std::string dir = FreshDir("backpressure_block");
  IndexCatalog::Options options = InDir(dir);
  options.backpressure_memtable_docs = 8;
  auto catalog = IndexCatalog::Create(options);
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();

  MaintenancePolicy policy;
  policy.flush_trigger_docs = 4;
  policy.merge_trigger_segments = 0;
  BackgroundMaintenance maintenance(&c, policy);

  // Far more documents than the budget: writers must block-and-resume
  // rather than fail — every add is eventually acknowledged.
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(c.AddDocument(Doc(i)).ok());
  }
  maintenance.WaitIdle();
  EXPECT_EQ(c.Snapshot()->stats().num_live_docs, 50u);
}

TEST(BackgroundJobsTest, BackpressureSoftFailReturnsResourceExhausted) {
  const std::string dir = FreshDir("backpressure_soft");
  IndexCatalog::Options options = InDir(dir);
  options.backpressure_memtable_docs = 4;
  options.backpressure_soft_fail = true;
  auto catalog = IndexCatalog::Create(options);
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();

  // A maintenance loop that never actually runs jobs (trigger far above
  // the budget) keeps the debt in place so the soft failure is
  // deterministic.
  MaintenancePolicy policy;
  policy.flush_trigger_docs = 1000;
  policy.merge_trigger_segments = 0;
  BackgroundMaintenance maintenance(&c, policy);

  uint32_t accepted = 0;
  Status last;
  for (uint32_t i = 0; i < 10; ++i) {
    auto id = c.AddDocument(Doc(i));
    if (id.ok()) {
      ++accepted;
    } else {
      last = id.status();
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  // Deletes are exempt (they shrink the live set).
  EXPECT_TRUE(c.DeleteDocument(0).ok());
}

TEST(BackgroundJobsTest, BackpressureInactiveWithoutMaintenance) {
  // Without an observer the budget must not gate writers — nothing would
  // ever drain the debt.
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.backpressure_memtable_docs = 2;
  options.backpressure_soft_fail = true;
  auto catalog = IndexCatalog::Create(options);
  ASSERT_TRUE(catalog.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(catalog.ValueOrDie()->AddDocument(Doc(i)).ok());
  }
}

TEST(BackgroundJobsTest, DestructorDetachesCleanly) {
  const std::string dir = FreshDir("detach");
  auto catalog = IndexCatalog::Create(InDir(dir));
  ASSERT_TRUE(catalog.ok());
  auto& c = *catalog.ValueOrDie();
  {
    MaintenancePolicy policy;
    policy.flush_trigger_docs = 2;
    BackgroundMaintenance maintenance(&c, policy);
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(c.AddDocument(Doc(i)).ok());
    }
    // Destructor: detach observer, drain the in-flight job.
  }
  // After detach, writes flow without any observer (and without
  // backpressure), and no job fires.
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.AddDocument(Doc(100 + i)).ok());
  }
  EXPECT_EQ(c.Snapshot()->stats().num_live_docs, 20u);
}

TEST(BackgroundJobsTest, ShardedCatalogMaintenanceInvalidatesSnapshots) {
  const std::string dir = FreshDir("sharded");
  ShardedCatalog::Options soptions;
  soptions.num_shards = 2;
  soptions.shard = InDir(dir);
  auto sharded = ShardedCatalog::Create(soptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto& sc = *sharded.ValueOrDie();

  MaintenancePolicy policy;
  policy.flush_trigger_docs = 4;
  policy.merge_trigger_segments = 3;
  policy.merge_fanin = 2;
  std::vector<std::unique_ptr<BackgroundMaintenance>> loops;
  for (size_t s = 0; s < sc.num_shards(); ++s) {
    loops.push_back(std::make_unique<BackgroundMaintenance>(
        &sc.shard(s), policy, [&sc] { sc.InvalidateSnapshotCache(); }));
  }

  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(sc.AddDocument(Doc(i)).ok());
  }
  for (auto& loop : loops) loop->WaitIdle();
  for (auto& loop : loops) EXPECT_TRUE(loop->TakeLastError().ok());

  // The snapshot taken *after* background maintenance reflects the
  // maintained shards — the invalidation hook dropped the stale cache.
  auto snapshot = sc.Snapshot();
  EXPECT_EQ(snapshot->stats().num_live_docs, 40u);
  uint64_t memtable_docs = 0;
  for (size_t s = 0; s < sc.num_shards(); ++s) {
    memtable_docs += snapshot->shard_state(s).memtable().num_docs();
  }
  EXPECT_LT(memtable_docs, 2 * policy.flush_trigger_docs);
  loops.clear();
}

}  // namespace
}  // namespace moa
