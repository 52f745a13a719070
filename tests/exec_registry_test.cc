// The exec-layer acceptance test: every entry of AllStrategies() has a
// registered executor whose result matches the legacy topn free function
// it wraps — exact item-for-item match for safe strategies, top-N doc-set
// equality (recall 1.0) for unsafe ones, whose reported scores may be
// partial by design.
#include "exec/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/strategy.h"
#include "storage/sparse_index_cache.h"
#include "tests/test_util.h"
#include "topn/baselines.h"
#include "topn/fagin.h"
#include "topn/fragment_topn.h"
#include "topn/maxscore.h"
#include "topn/probabilistic.h"
#include "topn/stop_after.h"

namespace moa {
namespace {

constexpr size_t kN = 10;

/// The legacy per-strategy dispatch (the engine switch this PR deleted),
/// kept here as the reference the registry must reproduce.
Result<TopNResult> LegacyExecute(PhysicalStrategy s, const Query& q,
                                 SparseIndexCache* sparse_cache) {
  const PostingSource& f = testutil::SmallSource();
  const ScoringModel& m = testutil::SmallModel();
  const Fragmentation& frag = testutil::SmallFragmentation();
  switch (s) {
    case PhysicalStrategy::kFullSort:
      return FullSortTopN(f, m, q, kN);
    case PhysicalStrategy::kHeap:
      return HeapTopN(f, m, q, kN);
    case PhysicalStrategy::kFaginFA:
      return FaginFA(f, m, q, kN);
    case PhysicalStrategy::kFaginTA:
      return FaginTA(f, m, q, kN);
    case PhysicalStrategy::kFaginNRA:
      return FaginNRA(f, m, q, kN);
    case PhysicalStrategy::kStopAfterConservative: {
      StopAfterOptions opts;
      opts.policy = StopAfterPolicy::kConservative;
      return StopAfterTopN(f, m, q, kN, opts);
    }
    case PhysicalStrategy::kStopAfterAggressive: {
      StopAfterOptions opts;
      opts.policy = StopAfterPolicy::kAggressive;
      return StopAfterTopN(f, m, q, kN, opts);
    }
    case PhysicalStrategy::kProbabilistic:
      return ProbabilisticTopN(f, m, q, kN, ProbabilisticOptions{});
    case PhysicalStrategy::kSmallFragment:
      return SmallFragmentTopN(f, frag, m, q, kN);
    case PhysicalStrategy::kQualitySwitchFull: {
      QualitySwitchOptions opts;
      opts.mode = LargeFragmentMode::kFullScan;
      return QualitySwitchTopN(f, frag, m, q, kN, opts);
    }
    case PhysicalStrategy::kQualitySwitchSparse: {
      QualitySwitchOptions opts;
      opts.mode = LargeFragmentMode::kSparseProbe;
      opts.sparse_cache = sparse_cache;
      return QualitySwitchTopN(f, frag, m, q, kN, opts);
    }
    case PhysicalStrategy::kMaxScore: {
      MaxScoreOptions opts;
      opts.mode = PruneMode::kContinue;
      return MaxScoreTopN(f, m, q, kN, opts);
    }
    case PhysicalStrategy::kQuitPrune: {
      MaxScoreOptions opts;
      opts.mode = PruneMode::kQuit;
      return MaxScoreTopN(f, m, q, kN, opts);
    }
  }
  return Status::Internal("legacy reference missing for strategy");
}

ExecContext TestContext(SparseIndexCache* cache) {
  ExecContext ctx;
  ctx.postings = &testutil::SmallSource();
  ctx.model = &testutil::SmallModel();
  ctx.fragmentation = &testutil::SmallFragmentation();
  ctx.sparse_cache = cache;
  return ctx;
}

std::set<DocId> DocSet(const TopNResult& r) {
  std::set<DocId> out;
  for (const ScoredDoc& sd : r.items) out.insert(sd.doc);
  return out;
}

class RegistryParityTest
    : public ::testing::TestWithParam<PhysicalStrategy> {};

TEST_P(RegistryParityTest, ExecutorMatchesLegacyFreeFunction) {
  const PhysicalStrategy s = GetParam();
  const StrategyRegistry& registry = StrategyRegistry::Global();
  ASSERT_TRUE(registry.Has(s)) << "no executor registered";

  SparseIndexCache legacy_cache;
  SparseIndexCache registry_cache;
  const ExecContext ctx = TestContext(&registry_cache);

  for (const Query& q : testutil::SmallQueries()) {
    Result<TopNResult> legacy = LegacyExecute(s, q, &legacy_cache);
    Result<TopNResult> via_registry = registry.Execute(s, ctx, q, kN);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();
    const TopNResult& a = legacy.ValueOrDie();
    const TopNResult& b = via_registry.ValueOrDie();

    if (IsSafeStrategy(s)) {
      // Safe strategies are deterministic and exact: item-for-item match.
      ASSERT_EQ(a.items.size(), b.items.size());
      for (size_t i = 0; i < a.items.size(); ++i) {
        EXPECT_EQ(a.items[i].doc, b.items[i].doc) << "rank " << i;
        EXPECT_DOUBLE_EQ(a.items[i].score, b.items[i].score) << "rank " << i;
      }
    } else {
      // Unsafe strategies are still deterministic under fixed seeds: the
      // returned top-N sets must coincide (their reported scores may be
      // partial by design, so only the set is compared).
      EXPECT_EQ(DocSet(a), DocSet(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, RegistryParityTest, ::testing::ValuesIn(AllStrategies()),
    [](const ::testing::TestParamInfo<PhysicalStrategy>& info) {
      return std::string(StrategyName(info.param));
    });

TEST(StrategyRegistryTest, EveryStrategyIsRegisteredWithMetadata) {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  for (PhysicalStrategy s : AllStrategies()) {
    const StrategyRegistry::Entry* entry = registry.Find(s);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->name.empty());
    EXPECT_EQ(entry->safe, IsSafeStrategy(s));
    EXPECT_TRUE(static_cast<bool>(entry->factory));
  }
  EXPECT_EQ(registry.Registered().size(), AllStrategies().size());
}

TEST(StrategyRegistryTest, StrategyFromNameRoundTrips) {
  for (PhysicalStrategy s : AllStrategies()) {
    const std::optional<PhysicalStrategy> back =
        StrategyFromName(StrategyName(s));
    ASSERT_TRUE(back.has_value()) << StrategyName(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(StrategyFromName("no_such_strategy").has_value());
  EXPECT_FALSE(StrategyFromName("").has_value());
}

TEST(StrategyRegistryTest, RejectsDuplicateRegistration) {
  StrategyRegistry local;
  auto factory = [](const ExecOptions&) {
    return std::unique_ptr<StrategyExecutor>();
  };
  EXPECT_TRUE(
      local.Register(PhysicalStrategy::kHeap, "heap", true, factory).ok());
  EXPECT_FALSE(
      local.Register(PhysicalStrategy::kHeap, "heap2", true, factory).ok());
  EXPECT_FALSE(
      local.Register(PhysicalStrategy::kFullSort, "heap", true, factory)
          .ok());
}

TEST(StrategyRegistryTest, MismatchedStrategyOptionsAreRejected) {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const Query q = testutil::SmallQueries()[0];
  SparseIndexCache cache;
  const ExecContext ctx = TestContext(&cache);

  // Typed options aimed at the wrong family: InvalidArgument, not a
  // silent ignore.
  ExecOptions fagin_opts;
  fagin_opts.strategy_options = FaginOptions{};
  EXPECT_FALSE(
      registry.Execute(PhysicalStrategy::kHeap, ctx, q, kN, fagin_opts).ok());
  EXPECT_FALSE(
      registry.Execute(PhysicalStrategy::kMaxScore, ctx, q, kN, fagin_opts)
          .ok());
  EXPECT_TRUE(
      registry.Execute(PhysicalStrategy::kFaginTA, ctx, q, kN, fagin_opts)
          .ok());

  ExecOptions switch_opts;
  switch_opts.strategy_options = QualitySwitchOptions{};
  EXPECT_FALSE(registry
                   .Execute(PhysicalStrategy::kStopAfterConservative, ctx, q,
                            kN, switch_opts)
                   .ok());
  EXPECT_TRUE(registry
                  .Execute(PhysicalStrategy::kQualitySwitchFull, ctx, q, kN,
                           switch_opts)
                  .ok());
  // Strategies without typed options reject every family.
  EXPECT_FALSE(
      registry.Execute(PhysicalStrategy::kSmallFragment, ctx, q, kN,
                       switch_opts)
          .ok());
}

TEST(StrategyRegistryTest, OptionRejectionNamesTheAcceptedVariant) {
  // The message must tell the caller what the strategy *does* accept —
  // the fix is to send that type (or none), not to guess.
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const Query q = testutil::SmallQueries()[0];
  const ExecContext ctx = TestContext(nullptr);

  ExecOptions fagin_opts;
  fagin_opts.strategy_options = FaginOptions{};
  auto r = registry.Execute(PhysicalStrategy::kMaxScore, ctx, q, kN,
                           fagin_opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("strategy 'maxscore'"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("accepts MaxScoreOptions"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("got FaginOptions"), std::string::npos)
      << r.status().ToString();

  // Strategies without typed options say so explicitly.
  ExecOptions switch_opts;
  switch_opts.strategy_options = QualitySwitchOptions{};
  auto heap = registry.Execute(PhysicalStrategy::kHeap, ctx, q, kN,
                               switch_opts);
  ASSERT_FALSE(heap.ok());
  EXPECT_NE(heap.status().message().find(
                "accepts no typed strategy options (common knobs only)"),
            std::string::npos)
      << heap.status().ToString();
  EXPECT_NE(heap.status().message().find("got QualitySwitchOptions"),
            std::string::npos)
      << heap.status().ToString();
}

TEST(StrategyRegistryTest, CommonKnobsAreAcceptedEverywhere) {
  // switch_threshold is a common hint: strategies it does not apply to
  // ignore it by design instead of erroring (Search forwards it to any
  // planner-chosen strategy).
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const Query q = testutil::SmallQueries()[0];
  SparseIndexCache cache;
  const ExecContext ctx = TestContext(&cache);
  ExecOptions opts;
  opts.switch_threshold = 0.5;
  for (PhysicalStrategy s : AllStrategies()) {
    EXPECT_TRUE(registry.Execute(s, ctx, q, kN, opts).ok())
        << StrategyName(s);
  }
}

TEST(StrategyRegistryTest, MissingContextPiecesAreRejected) {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  Query q = testutil::SmallQueries()[0];

  ExecContext empty;
  EXPECT_FALSE(
      registry.Execute(PhysicalStrategy::kHeap, empty, q, kN).ok());

  // Fragment strategies demand a fragmentation.
  ExecContext no_frag;
  no_frag.postings = &testutil::SmallSource();
  no_frag.model = &testutil::SmallModel();
  EXPECT_FALSE(
      registry.Execute(PhysicalStrategy::kSmallFragment, no_frag, q, kN)
          .ok());
  EXPECT_TRUE(registry.Execute(PhysicalStrategy::kHeap, no_frag, q, kN).ok());
}

}  // namespace
}  // namespace moa
