#include "obs/query_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "ir/query_gen.h"

namespace moa {
namespace obs {
namespace {

void ExpectCountersEqual(const CostCounters& a, const CostCounters& b,
                         const char* what) {
  EXPECT_EQ(a.sequential_reads, b.sequential_reads) << what;
  EXPECT_EQ(a.random_reads, b.random_reads) << what;
  EXPECT_EQ(a.score_evals, b.score_evals) << what;
  EXPECT_EQ(a.compares, b.compares) << what;
  EXPECT_EQ(a.bytes_touched, b.bytes_touched) << what;
  EXPECT_EQ(a.blocks_decoded, b.blocks_decoded) << what;
  EXPECT_EQ(a.blocks_skipped, b.blocks_skipped) << what;
}

TEST(QueryTraceTest, SpansAttachToCurrentTraceAndNest) {
  ASSERT_EQ(QueryTrace::Current(), nullptr);
  QueryTrace outer;
  ASSERT_EQ(QueryTrace::Current(), &outer);
  {
    TraceSpan span(kStageAccumulate);
    CostTicker::TickSeq();
    CostTicker::TickScore();
  }
  {
    QueryTrace inner;
    EXPECT_EQ(QueryTrace::Current(), &inner);
    {
      TraceSpan span(kStageHeapMerge);
      CostTicker::TickCompare();
    }
    const QueryTraceData inner_data = inner.Finish();
    ASSERT_EQ(inner_data.spans.size(), 1u);
    EXPECT_STREQ(inner_data.spans[0].stage, kStageHeapMerge);
    EXPECT_EQ(inner_data.spans[0].cost.compares, 1);
  }
  EXPECT_EQ(QueryTrace::Current(), &outer);
  const QueryTraceData data = outer.Finish();
  // The inner trace's span went to the inner trace, not the outer one.
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_STREQ(data.spans[0].stage, kStageAccumulate);
  EXPECT_EQ(data.spans[0].cost.sequential_reads, 1);
  EXPECT_EQ(data.spans[0].cost.score_evals, 1);
  // The whole-query delta covers the inner trace's ticks too.
  EXPECT_EQ(data.cost.compares, 1);
  EXPECT_FALSE(data.ToString().empty());
}

TEST(QueryTraceTest, SpanWithoutActiveTraceIsNoOp) {
  ASSERT_EQ(QueryTrace::Current(), nullptr);
  TraceSpan span(kStageCursorOpen);  // must not crash or record anywhere
  CostTicker::TickSeq();
}

// The bit-exactness contract, end to end: a forced heap query on static
// storage produces a trace whose stage spans tile the query — the spans'
// CostCounters sum to the whole-query delta, and that delta equals the
// result's own CostScope counters field for field.
TEST(QueryTraceTest, DatabaseTraceRoundTrip) {
  DatabaseConfig config;
  config.collection.num_docs = 2000;
  config.collection.vocabulary = 4000;
  config.collection.mean_doc_length = 60;
  config.collection.seed = 99;
  config.trace_every = 1;  // trace every query, not the sampled default
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 4;
  qconfig.terms_per_query = 3;
  qconfig.seed = 5;
  const auto queries = GenerateQueries(db.collection(), qconfig).ValueOrDie();

  // Static serving first, then the one-shard catalog the first mutation
  // seeds (memory-only: no block decodes outside the executor's spans).
  for (const bool dynamic : {false, true}) {
    SCOPED_TRACE(dynamic ? "one-shard catalog" : "static");
    if (dynamic) ASSERT_TRUE(db.DeleteDocument(0).ok());
    for (const Query& query : queries) {
      QueryRequest request;
      request.query = query;
      request.options.strategy = PhysicalStrategy::kHeap;
      auto result = db.Search(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const SearchResult& r = result.ValueOrDie();
      ASSERT_TRUE(r.traced);

      const QueryTraceData& trace = r.trace;
      EXPECT_EQ(trace.strategy, StrategyName(PhysicalStrategy::kHeap));
      EXPECT_FALSE(trace.planned);
      ASSERT_GE(trace.spans.size(), 2u);

      bool saw_plan = false, saw_accumulate = false, saw_heap_merge = false;
      bool saw_gather = false;
      CostCounters span_sum;
      double span_wall = 0.0;
      for (const TraceSpanData& span : trace.spans) {
        span_sum += span.cost;
        span_wall += span.wall_millis;
        saw_plan |= std::string(span.stage) == kStagePlan;
        saw_accumulate |= std::string(span.stage) == kStageAccumulate;
        saw_heap_merge |= std::string(span.stage) == kStageHeapMerge;
        saw_gather |= std::string(span.stage) == kStageShardGather;
        EXPECT_GE(span.wall_millis, 0.0);
      }
      EXPECT_TRUE(saw_plan);
      EXPECT_TRUE(saw_accumulate);
      EXPECT_TRUE(saw_heap_merge);
      EXPECT_EQ(saw_gather, dynamic);
      // Stage spans tile every ticking region: their sum is the query delta.
      ExpectCountersEqual(span_sum, trace.cost, "spans vs whole query");
      // And the trace only *read* the ticker: its whole-query delta is
      // bit-identical to the CostScope counters the executor itself took.
      ExpectCountersEqual(trace.cost, r.top.stats.cost, "trace vs CostScope");
      EXPECT_LE(span_wall, trace.wall_millis + 1.0);
      EXPECT_GT(trace.cost.score_evals, 0);
    }
  }

  // Completed traces land in the engine ring, oldest first.
  const std::vector<QueryTraceData> recent = db.RecentTraces();
  ASSERT_GE(recent.size(), queries.size());
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].sequence, recent[i - 1].sequence + 1);
  }
}

// Planned (unforced) queries carry the planner's prediction next to the
// observed counters — the calibration feed.
TEST(QueryTraceTest, PlannedQueryCarriesPrediction) {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 3000;
  config.collection.seed = 11;
  config.trace_every = 1;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 1;
  qconfig.terms_per_query = 4;
  qconfig.seed = 3;
  const Query query = GenerateQueries(db.collection(), qconfig).ValueOrDie()[0];

  auto result = db.Search(QueryRequest{query});
  ASSERT_TRUE(result.ok());
  const SearchResult& r = result.ValueOrDie();
  ASSERT_TRUE(r.traced);
  EXPECT_TRUE(r.trace.planned);
  EXPECT_GT(r.trace.predicted_scalar, 0.0);
  EXPECT_GT(r.trace.observed_scalar(), 0.0);
}

// trace_every = N keeps exactly one in N sequential queries traced
// (whatever phase this thread's sampling counter starts at), and 0
// disables span collection entirely — while SearchResult's plan estimate
// and CostCounters stay populated for every query.
TEST(QueryTraceTest, TraceSamplingHonorsPeriod) {
  DatabaseConfig config;
  config.collection.num_docs = 800;
  config.collection.vocabulary = 2000;
  config.collection.seed = 7;
  config.trace_every = 4;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 1;
  qconfig.terms_per_query = 2;
  qconfig.seed = 21;
  const Query query = GenerateQueries(db.collection(), qconfig).ValueOrDie()[0];

  int traced = 0;
  for (int i = 0; i < 8; ++i) {
    auto result = db.Search(QueryRequest{query});
    ASSERT_TRUE(result.ok());
    const SearchResult& r = result.ValueOrDie();
    traced += r.traced ? 1 : 0;
    EXPECT_EQ(r.traced, !r.trace.spans.empty());
    EXPECT_GT(r.top.stats.cost.Scalar(), 0.0);  // counters never sampled
  }
  EXPECT_EQ(traced, 2);  // 8 queries at period 4, any phase
  EXPECT_EQ(db.RecentTraces().size(), 2u);

  config.trace_every = 0;
  auto opened_off = MmDatabase::Open(config);
  ASSERT_TRUE(opened_off.ok());
  MmDatabase& db_off = *opened_off.ValueOrDie();
  for (int i = 0; i < 4; ++i) {
    auto result = db_off.Search(QueryRequest{query});
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.ValueOrDie().traced);
  }
  EXPECT_TRUE(db_off.RecentTraces().empty());
}

TEST(TraceRingTest, CapacityAndOrdering) {
  TraceRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (int i = 0; i < 5; ++i) {
    QueryTraceData trace;
    trace.strategy = "t" + std::to_string(i);
    ring.Push(std::move(trace));
  }
  EXPECT_EQ(ring.size(), 3u);
  const std::vector<QueryTraceData> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sequences are stamped 1..5; the ring keeps the last three, oldest
  // first.
  EXPECT_EQ(snap[0].sequence, 3u);
  EXPECT_EQ(snap[1].sequence, 4u);
  EXPECT_EQ(snap[2].sequence, 5u);
  EXPECT_EQ(snap[0].strategy, "t2");
  EXPECT_EQ(snap[2].strategy, "t4");
}

}  // namespace
}  // namespace obs
}  // namespace moa
