#include "topn/fagin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/cost_ticker.h"
#include "common/rng.h"
#include "engine/shard_coordinator.h"
#include "ir/exact_eval.h"
#include "storage/catalog/sharded_catalog.h"
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

// ---------------------------------------------------------------------------
// Lazy completion: TA against the eager TA it replaces
// ---------------------------------------------------------------------------

/// Eager TA, the reference: every newly seen document is probed in every
/// other list, in accessor order, and scored in accessor order. Lazy TA
/// must return its answer, scores, sorted accesses, candidates and stop
/// bit for bit, with no more random accesses.
TopNResult EagerTA(const PostingSource& source, const ScoringModel& model,
                   const Query& query, size_t n) {
  std::vector<std::unique_ptr<ImpactCursor>> lists;
  for (TermId t : query.terms) {
    if (source.DocFrequency(t) > 0) {
      lists.push_back(source.OpenImpactCursor(t, model));
    }
  }
  TopNResult result;
  std::vector<ScoredDoc>& best = result.items;  // best first, at most n
  std::unordered_set<DocId> resolved;
  bool done = lists.empty() || n == 0;
  while (!done) {
    bool advanced = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (lists[i]->at_end()) continue;
      advanced = true;
      const DocId doc = lists[i]->doc();
      const double w = lists[i]->weight();
      lists[i]->next();
      ++result.stats.sorted_accesses;
      if (!resolved.insert(doc).second) continue;
      ++result.stats.candidates;
      double score = 0.0;
      for (size_t j = 0; j < lists.size(); ++j) {
        if (j == i) {
          score += w;
          continue;
        }
        ++result.stats.random_accesses;
        score += lists[j]->FindWeight(doc).value_or(0.0);
      }
      const ScoredDoc sd{doc, score};
      best.insert(std::lower_bound(best.begin(), best.end(), sd, ScoredDocLess),
                  sd);
      if (best.size() > n) best.pop_back();
    }
    double tau = 0.0;
    for (const auto& list : lists) tau += list->at_end() ? 0.0 : list->weight();
    if (best.size() >= n && best.back().score >= tau) {
      result.stats.stopped_early = advanced;
      done = true;
    } else if (!advanced) {
      done = true;
    }
  }
  return result;
}

/// Items equal bit for bit: the same documents, in the same order, with
/// the same scores.
void ExpectSameItems(const std::vector<ScoredDoc>& got,
                     const std::vector<ScoredDoc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].doc, want[k].doc) << "rank " << k;
    EXPECT_EQ(got[k].score, want[k].score) << "rank " << k;
  }
}

void ExpectSameAsEager(const TopNResult& lazy, const TopNResult& eager) {
  ExpectSameItems(lazy.items, eager.items);
  EXPECT_EQ(lazy.stats.sorted_accesses, eager.stats.sorted_accesses);
  EXPECT_EQ(lazy.stats.candidates, eager.stats.candidates);
  EXPECT_EQ(lazy.stats.stopped_early, eager.stats.stopped_early);
  EXPECT_LE(lazy.stats.random_accesses, eager.stats.random_accesses);
}

/// Fixed seeds by default; MOA_FUZZ_ITERS runs more for a long local run.
int Iterations() {
  if (const char* env = std::getenv("MOA_FUZZ_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 2;
}

constexpr size_t kLazyNs[] = {1, 5, 10, 50};

/// The weightings TA runs under over an in-memory file. BM25 with b = 0
/// weighs by tf alone, so its lists are long runs of equal weights: ties
/// between a bound and the n-th score are common there.
struct Weighting {
  const char* name;
  std::unique_ptr<ScoringModel> (*make)(const InvertedFile*);
};
const Weighting kWeightings[] = {
    {"tfidf", [](const InvertedFile* f) { return MakeTfIdf(f); }},
    {"bm25", [](const InvertedFile* f) { return MakeBm25(f); }},
    {"lm", [](const InvertedFile* f) { return MakeLanguageModel(f); }},
    {"bm25_b0", [](const InvertedFile* f) { return MakeBm25(f, 1.2, 0.0); }},
};

TEST(FaginLazyTest, LazyTaEqualsEagerTaInMemory) {
  Rng rng(0xFA61A);
  int64_t lazy_random = 0, eager_random = 0;
  for (int iter = 0; iter < Iterations(); ++iter) {
    CollectionConfig config;
    config.num_docs = 500 + static_cast<uint32_t>(rng.Uniform(1000));
    config.vocabulary = 300 + static_cast<uint32_t>(rng.Uniform(700));
    config.mean_doc_length = 20 + static_cast<uint32_t>(rng.Uniform(60));
    config.seed = rng.Next();
    auto generated = Collection::Generate(config);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    for (const Weighting& weighting : kWeightings) {
      SCOPED_TRACE(std::string(weighting.name) + ", iteration " +
                   std::to_string(iter));
      Collection coll = generated.ValueOrDie();  // impact orders per model
      InvertedFile& file = coll.mutable_inverted_file();
      const std::unique_ptr<ScoringModel> model = weighting.make(&file);
      file.BuildImpactOrders(
          [&](TermId t, const Posting& p) { return model->Weight(t, p); });
      const InMemoryPostingSource source(&file);
      QueryWorkloadConfig qconfig;
      qconfig.num_queries = 8;
      qconfig.terms_per_query = 2 + static_cast<uint32_t>(rng.Uniform(4));
      qconfig.distribution = QueryTermDistribution::kMixed;
      qconfig.seed = rng.Next();
      auto queries = GenerateQueries(coll, qconfig);
      ASSERT_TRUE(queries.ok()) << queries.status().ToString();
      for (const Query& q : queries.ValueOrDie()) {
        for (const size_t n : kLazyNs) {
          auto lazy = FaginTA(source, *model, q, n);
          ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
          const TopNResult eager = EagerTA(source, *model, q, n);
          ExpectSameAsEager(lazy.ValueOrDie(), eager);
          lazy_random += lazy.ValueOrDie().stats.random_accesses;
          eager_random += eager.stats.random_accesses;
        }
      }
    }
  }
  EXPECT_LT(lazy_random, eager_random) << "the bound never pruned a probe";
}

TEST(FaginLazyTest, LazyTaEqualsEagerTaOnTwoShardsWithTombstones) {
  // Two shards, each with two flushed segments and a memtable, about a
  // sixth of the documents deleted. Per shard, lazy TA on the shard's
  // view equals eager TA there; the coordinator, forced to fagin_ta,
  // returns the merged eager answers, with the summed sorted accesses and
  // candidates when it visits every shard.
  constexpr TermId kTerms = 150;
  const std::pair<ScoringModelKind, const char*> kinds[] = {
      {ScoringModelKind::kTfIdf, "tfidf"},
      {ScoringModelKind::kBm25, "bm25"},
      {ScoringModelKind::kLanguageModel, "lm"},
  };
  Rng rng(0x5A4D);
  int64_t lazy_random = 0, eager_random = 0;
  for (int iter = 0; iter < Iterations(); ++iter) {
    for (const auto& [kind, name] : kinds) {
      SCOPED_TRACE(std::string(name) + ", iteration " + std::to_string(iter));
      const std::string dir = std::string(::testing::TempDir()) +
                              "/fagin_lazy_" + name + "_" +
                              std::to_string(iter);
      std::filesystem::remove_all(dir);
      ShardedCatalog::Options options;
      options.num_shards = 2;
      options.shard.num_terms = kTerms;
      options.shard.dir = dir;
      options.shard.scoring = kind;
      options.shard.segment_block_size = 16;
      options.shard.wal_enabled = false;
      auto created = ShardedCatalog::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      ShardedCatalog& catalog = *created.ValueOrDie();

      // Skewed term draws: low term ids are frequent, high ones rare.
      const auto draw_term = [&] {
        return static_cast<TermId>(rng.Uniform(1 + rng.Uniform(kTerms)));
      };
      std::vector<DocId> ids;
      for (int batch = 0; batch < 3; ++batch) {
        std::vector<DocTerms> docs;
        for (int d = 0; d < 160; ++d) {
          std::map<TermId, uint32_t> terms;
          const size_t want = 3 + rng.Uniform(12);
          while (terms.size() < want) {
            terms[draw_term()] = 1 + static_cast<uint32_t>(rng.Uniform(6));
          }
          docs.emplace_back(terms.begin(), terms.end());
        }
        auto added = catalog.AddDocuments(docs);
        ASSERT_TRUE(added.ok()) << added.status().ToString();
        ids.insert(ids.end(), added.ValueOrDie().begin(),
                   added.ValueOrDie().end());
        if (batch < 2) ASSERT_TRUE(catalog.FlushAll().ok());
      }
      for (const DocId id : ids) {
        if (rng.Uniform(6) == 0) ASSERT_TRUE(catalog.DeleteDocument(id).ok());
      }
      const auto snap = catalog.Snapshot();

      for (int qi = 0; qi < 8; ++qi) {
        Query q;
        const size_t want = 2 + rng.Uniform(4);
        while (q.terms.size() < want) {
          const TermId t = draw_term();
          if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end()) {
            q.terms.push_back(t);
          }
        }
        for (const size_t n : kLazyNs) {
          std::vector<ScoredDoc> merged;
          TopNStats summed;
          for (size_t s = 0; s < snap->num_shards(); ++s) {
            auto lazy =
                FaginTA(snap->shard_source(s), snap->shard_model(s), q, n);
            ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
            const TopNResult eager =
                EagerTA(snap->shard_source(s), snap->shard_model(s), q, n);
            ExpectSameAsEager(lazy.ValueOrDie(), eager);
            lazy_random += lazy.ValueOrDie().stats.random_accesses;
            eager_random += eager.stats.random_accesses;
            summed.sorted_accesses += eager.stats.sorted_accesses;
            summed.random_accesses += eager.stats.random_accesses;
            summed.candidates += eager.stats.candidates;
            for (const ScoredDoc& sd : eager.items) {
              merged.push_back(ScoredDoc{
                  ShardedCatalog::GlobalOf(sd.doc, s, snap->num_shards()),
                  sd.score});
            }
          }
          std::sort(merged.begin(), merged.end(), ScoredDocLess);
          if (merged.size() > n) merged.resize(n);
          for (const bool bound_pruning : {true, false}) {
            ShardCoordinator::Options copts;
            copts.bound_pruning = bound_pruning;
            auto got = ShardCoordinator::Execute(
                snap, PhysicalStrategy::kFaginTA, q, n, ExecOptions{}, copts);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ExpectSameItems(got.ValueOrDie().items, merged);
            if (!bound_pruning) {
              const TopNStats& stats = got.ValueOrDie().stats;
              EXPECT_EQ(stats.sorted_accesses, summed.sorted_accesses);
              EXPECT_EQ(stats.candidates, summed.candidates);
              EXPECT_LE(stats.random_accesses, summed.random_accesses);
            }
          }
        }
      }
      std::filesystem::remove_all(dir);
    }
  }
  EXPECT_LT(lazy_random, eager_random) << "the bound never pruned a probe";
}

/// Hand-made lists of (doc, weight), each in impact order (weight desc,
/// doc asc); the model TA is given is not consulted.
class FakeSource final : public PostingSource {
 public:
  using List = std::vector<std::pair<DocId, double>>;
  explicit FakeSource(std::vector<List> lists) : lists_(std::move(lists)) {}

  size_t num_terms() const override { return lists_.size(); }
  size_t num_docs() const override { return 16; }
  uint32_t DocFrequency(TermId t) const override {
    return static_cast<uint32_t>(lists_[t].size());
  }
  bool HasImpacts(TermId) const override { return true; }
  double MaxImpact(TermId t) const override {
    return lists_[t].empty() ? 0.0 : lists_[t].front().second;
  }
  /// TA reads impact cursors only.
  std::unique_ptr<PostingCursor> OpenCursor(TermId) const override {
    return nullptr;
  }
  std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel&) const override {
    return std::make_unique<Cursor>(&lists_[t]);
  }

 private:
  class Cursor final : public ImpactCursor {
   public:
    explicit Cursor(const List* list) : list_(list) {}
    DocId doc() const override {
      return pos_ < list_->size() ? (*list_)[pos_].first : kEndDoc;
    }
    uint32_t tf() const override { return 1; }
    double weight() const override {
      return pos_ < list_->size() ? (*list_)[pos_].second : 0.0;
    }
    void next() override {
      if (pos_ < list_->size()) ++pos_;
    }
    size_t size() const override { return list_->size(); }
    std::optional<double> FindWeight(DocId doc) const override {
      CostTicker::TickRandom();
      for (const auto& [d, w] : *list_) {
        if (d == doc) return w;
      }
      return std::nullopt;
    }

   private:
    const List* list_;
    size_t pos_ = 0;
  };

  std::vector<List> lists_;
};

Query TwoTermQuery() {
  Query q;
  q.terms = {0, 1};
  return q;
}

TEST(FaginLazyTest, BoundBelowTheNthScoreSkipsTheProbe) {
  // n = 1. Doc 1 (10 + 0.1) fills the heap. Doc 4 then surfaces in list 1
  // at 5 while list 0's threshold is 1: its bound, 1 + 5, is below 10.1,
  // so its probe of list 0 is skipped. Eager TA makes that probe.
  const FakeSource source({{{1, 10.0}, {2, 1.0}, {3, 0.5}},
                           {{4, 5.0}, {5, 0.9}, {1, 0.1}}});
  auto lazy = FaginTA(source, SmallModel(), TwoTermQuery(), 1);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  const TopNResult eager = EagerTA(source, SmallModel(), TwoTermQuery(), 1);
  ExpectSameAsEager(lazy.ValueOrDie(), eager);
  ASSERT_EQ(lazy.ValueOrDie().items.size(), 1u);
  EXPECT_EQ(lazy.ValueOrDie().items[0].doc, 1u);
  EXPECT_EQ(lazy.ValueOrDie().stats.random_accesses, 1);
  EXPECT_EQ(eager.stats.random_accesses, 2);
  EXPECT_LT(lazy.ValueOrDie().stats.random_accesses,
            eager.stats.random_accesses);
}

TEST(FaginLazyTest, BoundEqualToTheNthScoreStillProbes) {
  // n = 1. Doc 5 (2, absent from list 1) fills the heap at 2. Doc 3
  // surfaces in list 1 at 1 while list 0's threshold is 1: its bound,
  // 1 + 1, equals the n-th score, so it is probed, ties at 2 and wins on
  // its lower id. Pruning on equality would return doc 5.
  const FakeSource source({{{5, 2.0}, {3, 1.0}}, {{3, 1.0}, {9, 0.5}}});
  auto lazy = FaginTA(source, SmallModel(), TwoTermQuery(), 1);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  const TopNResult eager = EagerTA(source, SmallModel(), TwoTermQuery(), 1);
  ExpectSameAsEager(lazy.ValueOrDie(), eager);
  ASSERT_EQ(lazy.ValueOrDie().items.size(), 1u);
  EXPECT_EQ(lazy.ValueOrDie().items[0].doc, 3u);
  EXPECT_EQ(lazy.ValueOrDie().items[0].score, 2.0);
  EXPECT_EQ(lazy.ValueOrDie().stats.random_accesses, 2);
}

}  // namespace
}  // namespace moa
