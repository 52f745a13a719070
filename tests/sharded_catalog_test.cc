// ShardedCatalog + ShardCoordinator acceptance suite.
//
// Covers the sharded storage contract from the bottom up: the global/local
// id interleaving, least-loaded routing (identity ids from a pristine
// catalog), consistent multi-shard snapshots aggregating global
// statistics, the snapshot-owned per-(shard, term) bound and impact-order
// caches (the order's size, one scoring pass shared by the bound and the
// order, that pass against a per-posting reference under every model over
// tombstoned segments and memtable, concurrent lazy extension, the
// explained query's impact_postings), the coordinator's bound-ordered
// visiting with strict-below-n-th shard skipping (exact skipped-work
// accounting in CostCounters), durability through per-shard MANIFESTs
// (one shard in the root directory), the lock split (a writer blocked by
// backpressure stalls no snapshot; a refused same-shard upsert deletes
// nothing), and — at the
// engine level — that an MmDatabase serving N shards answers
// bit-identically to a single catalog given the same lifecycle (safe
// strategies; fagin_nra is set-level above one shard because its partial
// lower bounds are partition-dependent).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "ir/exact_eval.h"
#include "storage/catalog/background_jobs.h"
#include "storage/catalog/sharded_catalog.h"

namespace moa {
namespace {

constexpr uint32_t kVocab = 300;
constexpr size_t kTopN = 10;

DocTerms SynthDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 6 + rng.Uniform(8);
  while (terms.size() < want) {
    terms.emplace(static_cast<TermId>(rng.Uniform(kVocab)),
                  1 + static_cast<uint32_t>(rng.Uniform(4)));
  }
  return DocTerms(terms.begin(), terms.end());
}

TEST(ShardedCatalogTest, IdMappingRoundTrips) {
  for (const size_t shards : {1u, 2u, 3u, 4u, 7u}) {
    for (DocId global = 0; global < 100; ++global) {
      const size_t s = ShardedCatalog::ShardOf(global, shards);
      const DocId local = ShardedCatalog::LocalOf(global, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(ShardedCatalog::GlobalOf(local, s, shards), global);
    }
    // Distinct (shard, local) pairs map to distinct globals.
    for (size_t s = 0; s < shards; ++s) {
      for (DocId local = 0; local < 8; ++local) {
        const DocId g = ShardedCatalog::GlobalOf(local, s, shards);
        EXPECT_EQ(ShardedCatalog::ShardOf(g, shards), s);
        EXPECT_EQ(ShardedCatalog::LocalOf(g, shards), local);
      }
    }
  }
}

TEST(ShardedCatalogTest, PristineRoutingAssignsIdentityIds) {
  ShardedCatalog::Options options;
  options.num_shards = 3;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedCatalog& catalog = *created.ValueOrDie();

  // Least-loaded routing from empty degenerates to round-robin: a seed
  // batch gets the identity ids 0..k-1, exactly like a single catalog.
  Rng rng(41);
  std::vector<DocTerms> batch;
  for (int i = 0; i < 7; ++i) batch.push_back(SynthDoc(rng));
  auto ids = catalog.AddDocuments(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.ValueOrDie().size(), 7u);
  for (DocId k = 0; k < 7; ++k) EXPECT_EQ(ids.ValueOrDie()[k], k);

  // Doc spaces are 3/2/2 — the next two adds fill shards 1 then 2
  // (smallest doc space, ties to the lowest index), i.e. globals 7, 8.
  auto next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 7u);
  next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 8u);

  // Deletes tombstone but keep the slot: routing is by doc *space*, so
  // the id sequence keeps interleaving regardless of tombstones.
  ASSERT_TRUE(catalog.DeleteDocument(0).ok());
  next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 9u);
}

TEST(ShardedCatalogTest, SnapshotAggregatesGlobalStats) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  // Doc 0 -> shard 0, doc 1 -> shard 1: term 5 spans both shards.
  ASSERT_TRUE(catalog.AddDocument({{5, 2}, {9, 1}}).ok());
  ASSERT_TRUE(catalog.AddDocument({{5, 1}, {11, 3}}).ok());
  auto snap = catalog.Snapshot();
  EXPECT_EQ(snap->num_shards(), 2u);
  EXPECT_EQ(snap->stats().num_live_docs, 2u);
  EXPECT_EQ(snap->stats().df[5], 2u);
  EXPECT_EQ(snap->stats().df[9], 1u);
  EXPECT_EQ(snap->stats().df[11], 1u);
  EXPECT_EQ(snap->stats().cf[5], 3);
  EXPECT_EQ(snap->stats().total_live_tokens, 2 + 1 + 1 + 3);
  EXPECT_EQ(snap->doc_space(), 2u);

  // Global-id document access routes to the owning shard.
  EXPECT_EQ(snap->DocLength(0), 3u);
  EXPECT_EQ(snap->DocLength(1), 4u);
  EXPECT_FALSE(snap->IsDeleted(0));
  // Random access goes through the owning shard's impact cursor, in
  // shard-local ids: global 1 is shard 1's local 0, global 0 shard 0's.
  const auto term11 = [&](size_t s) {
    return snap->shard_source(s).OpenImpactCursor(11, snap->shard_model(s));
  };
  const DocId local1 = ShardedCatalog::LocalOf(1, 2);
  EXPECT_EQ(term11(1)->FindWeight(local1),
            std::optional<double>(
                snap->shard_model(1).Weight(11, Posting{local1, 3})));
  EXPECT_FALSE(
      term11(0)->FindWeight(ShardedCatalog::LocalOf(0, 2)).has_value());
  EXPECT_EQ(snap->LiveDocIds(), (std::vector<DocId>{0, 1}));

  // Versions are strictly monotone across mutations; the per-shard read
  // view reports the *global* df even where the shard's list is shorter.
  const uint64_t v0 = snap->version();
  ASSERT_TRUE(catalog.DeleteDocument(1).ok());
  auto snap2 = catalog.Snapshot();
  EXPECT_GT(snap2->version(), v0);
  EXPECT_EQ(snap2->stats().num_live_docs, 1u);
  EXPECT_EQ(snap2->stats().df[11], 0u);
  EXPECT_TRUE(snap2->IsDeleted(1));
  EXPECT_EQ(snap2->shard_source(0).DocFrequency(5), 1u);
  EXPECT_EQ(snap2->shard_source(1).DocFrequency(5), 1u);

  // The first snapshot is unaffected (snapshot-per-query isolation).
  EXPECT_EQ(snap->stats().num_live_docs, 2u);
}

TEST(ShardedCatalogTest, UpdateDocumentMovesDocToFreshTailId) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();
  Rng rng(43);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(catalog.AddDocument(SynthDoc(rng)).ok());
  }

  const DocTerms replacement{{7, 5}};
  auto updated = catalog.UpdateDocument(1, replacement);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const DocId fresh = updated.ValueOrDie();
  EXPECT_EQ(fresh, 4u);  // balanced spaces -> shard 0, local 2 -> global 4
  auto snap = catalog.Snapshot();
  EXPECT_TRUE(snap->IsDeleted(1));
  EXPECT_EQ(snap->TermsOf(fresh), replacement);
  EXPECT_EQ(snap->stats().num_live_docs, 4u);

  // Upserting a dead id fails without re-adding.
  EXPECT_FALSE(catalog.UpdateDocument(1, replacement).ok());
  EXPECT_EQ(catalog.Snapshot()->stats().num_live_docs, 4u);
}

// Four shards, one query term concentrated in shard 0 (high weight) with a
// weak echo in shard 1: sequential bound-ordered visiting must answer from
// shard 0 alone and account the three pruned shards — including the one
// posting shard 1 would have streamed.
TEST(ShardedCatalogTest, CoordinatorSkipsShardsBelowTheNthBound) {
  ShardedCatalog::Options options;
  options.num_shards = 4;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  constexpr TermId kTerm = 7;
  // Round-robin placement from empty: docs 0..3 land on shards 0..3.
  ASSERT_TRUE(catalog.AddDocument({{kTerm, 4}}).ok());              // shard 0
  ASSERT_TRUE(
      catalog.AddDocument({{kTerm, 1}, {1, 1}, {2, 1}, {3, 1}}).ok());  // 1
  ASSERT_TRUE(catalog.AddDocument({{1, 2}, {2, 1}}).ok());          // shard 2
  ASSERT_TRUE(catalog.AddDocument({{2, 2}, {3, 1}}).ok());          // shard 3
  auto snap = catalog.Snapshot();

  // Bound cache: zero where the shard has no live posting, and the
  // higher-tf/shorter doc dominates. Query bounds are per-term sums.
  const double b0 = snap->ShardTermBound(0, kTerm);
  const double b1 = snap->ShardTermBound(1, kTerm);
  EXPECT_GT(b0, b1);
  EXPECT_GT(b1, 0.0);
  EXPECT_EQ(snap->ShardTermBound(2, kTerm), 0.0);
  EXPECT_EQ(snap->ShardTermBound(3, kTerm), 0.0);
  const Query two_terms{{kTerm, 1}};
  EXPECT_DOUBLE_EQ(snap->ShardQueryBound(1, two_terms),
                   snap->ShardTermBound(1, kTerm) +
                       snap->ShardTermBound(1, 1));

  const Query q{{kTerm}};
  ShardCoordinator::Options copts;
  copts.parallelism = 1;  // sequential visiting maximizes skips
  auto result =
      ShardCoordinator::Execute(snap, PhysicalStrategy::kHeap, q, 1,
                                ExecOptions{}, copts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopNResult& top = result.ValueOrDie();
  ASSERT_EQ(top.items.size(), 1u);
  EXPECT_EQ(top.items[0].doc, 0u);
  EXPECT_GT(top.items[0].score, 0.0);
  // Shard 0's single exact score *is* its bound; every other bound is
  // strictly below it, so the remaining three shards are pruned and the
  // one posting shard 1 held for the term is the skipped work.
  EXPECT_EQ(top.stats.cost.shards_visited, 1);
  EXPECT_EQ(top.stats.cost.shards_skipped, 3);
  EXPECT_EQ(top.stats.cost.shard_postings_skipped, 1);
  EXPECT_TRUE(top.stats.stopped_early);

  // A full-width wave visits everything at once: no skip opportunity.
  copts.parallelism = 4;
  result = ShardCoordinator::Execute(snap, PhysicalStrategy::kHeap, q, 1,
                                     ExecOptions{}, copts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().stats.cost.shards_visited, 4);
  EXPECT_EQ(result.ValueOrDie().stats.cost.shards_skipped, 0);
  EXPECT_EQ(result.ValueOrDie().items[0].doc, 0u);
}

TEST(ShardedCatalogTest, ImpactCursorSizeIsTheShardsPostingCount) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  // Round-robin from empty: the term lands in shard 0 three times and in
  // shard 1 twice, so its global df (5) overstates both shards' lists.
  constexpr TermId kTerm = 5;
  for (uint32_t tf = 1; tf <= 5; ++tf) {
    ASSERT_TRUE(catalog.AddDocument({{kTerm, tf}, {9, 1}}).ok());
  }
  auto snap = catalog.Snapshot();
  ASSERT_EQ(snap->stats().df[kTerm], 5u);
  for (size_t s = 0; s < 2; ++s) {
    auto cursor =
        snap->shard_source(s).OpenImpactCursor(kTerm, snap->shard_model(s));
    const size_t size = cursor->size();
    size_t emitted = 0;
    for (; !cursor->at_end(); cursor->next()) ++emitted;
    EXPECT_EQ(emitted, s == 0 ? 3u : 2u) << "shard " << s;
    EXPECT_EQ(size, emitted) << "shard " << s;
  }
}

TEST(ShardedCatalogTest, TermBoundAndSortedAccessShareOneScoringPass) {
  // The coordinator takes every query term's bound before planning; on a
  // fresh snapshot that bound scores the term's impact order, and sorted
  // access then reads the cached order instead of scoring the postings a
  // second time.
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();
  constexpr TermId kTerm = 7;
  Rng rng(0x5EED);
  for (uint32_t d = 0; d < 300; ++d) {
    std::map<TermId, uint32_t> terms;
    for (const auto& [t, tf] : SynthDoc(rng)) terms[t] = tf;
    terms[kTerm] = 1 + static_cast<uint32_t>(rng.Uniform(6));
    ASSERT_TRUE(
        catalog.AddDocument(DocTerms(terms.begin(), terms.end())).ok());
  }
  ASSERT_TRUE(catalog.DeleteDocument(4).ok());

  auto snap = catalog.Snapshot();
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const PostingSource& source = snap->shard_source(s);
    const ScoringModel& model = snap->shard_model(s);
    const CostScope bound_scope;
    const double bound = snap->ShardTermBound(s, kTerm);
    const int64_t scored = bound_scope.Snapshot().impact_postings;

    // The bound's definition: the greatest weight of a live posting.
    double expected = 0.0;
    size_t live = 0;
    for (auto c = source.OpenCursor(kTerm); !c->at_end(); c->next(), ++live) {
      expected = std::max(expected, model.Weight(kTerm, {c->doc(), c->tf()}));
    }
    EXPECT_EQ(bound, expected);
    EXPECT_EQ(scored, static_cast<int64_t>(live));

    const CostScope order_scope;
    const auto order = snap->ShardImpactOrder(s, kTerm);
    auto cursor = source.OpenImpactCursor(kTerm, model);
    EXPECT_EQ(order_scope.Snapshot().impact_postings, 0);
    EXPECT_EQ(order->max_weight(), expected);
    EXPECT_EQ(cursor->weight(), expected);
    EXPECT_EQ(cursor->size(), live);
  }
}

TEST(ShardedCatalogTest, ConcurrentReadersShareOneLazyImpactOrder) {
  // Eight readers drain one cached (snapshot, term) order at once, each to
  // its own depth across the lazily sorted chunk boundaries (64, 256,
  // 1024): extensions race with readers of the sorted prefix and with
  // random access, and every reader must still see exactly the in-memory
  // materialized order and find every posting's weight.
  ShardedCatalog::Options options;
  options.num_shards = 1;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  constexpr TermId kTerm = 7;
  constexpr uint32_t kDocs = 1500;
  Rng rng(0x1A2B);
  std::vector<DocTerms> docs;
  for (uint32_t d = 0; d < kDocs; ++d) {
    std::map<TermId, uint32_t> terms;
    for (const auto& [t, tf] : SynthDoc(rng)) terms[t] = tf;
    terms[kTerm] = 1 + static_cast<uint32_t>(rng.Uniform(6));
    docs.emplace_back(terms.begin(), terms.end());
  }
  ASSERT_TRUE(catalog.AddDocuments(docs).ok());

  InvertedFileBuilder builder(kVocab);
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.AddDocument(d, docs[d]).ok());
  }
  InvertedFile file = builder.Build();
  const std::unique_ptr<ScoringModel> model = MakeBm25(&file);
  file.BuildImpactOrders(
      [&](TermId t, const Posting& p) { return model->Weight(t, p); });
  const PostingList& reference = file.list(kTerm);
  ASSERT_EQ(reference.size(), kDocs);

  auto snap = catalog.Snapshot();
  // Cached before the readers start; nothing of it is sorted yet.
  const std::shared_ptr<const ImpactOrder> order =
      snap->ShardImpactOrder(0, kTerm);
  ASSERT_EQ(order->size(), kDocs);

  const size_t depths[8] = {1, 63, 64, 65, 255, 257, 1024, kDocs};
  std::vector<std::vector<ImpactOrder::Entry>> seen(8);
  // Every reader also probes every reference doc by random access, half
  // before and half after its walk, while the others extend the sorted
  // prefix; found[i][d] is the weight reader i got for doc d.
  std::vector<std::vector<std::optional<double>>> found(
      8, std::vector<std::optional<double>>(kDocs));
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (size_t i = 0; i < 8; ++i) {
    readers.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      auto cursor =
          snap->shard_source(0).OpenImpactCursor(kTerm, snap->shard_model(0));
      const auto probe = [&](DocId begin, DocId end) {
        for (DocId d = begin; d < end; ++d) {
          found[i][d] = cursor->FindWeight(d);
        }
      };
      probe(0, kDocs / 2);
      for (size_t k = 0; k < depths[i] && !cursor->at_end();
           ++k, cursor->next()) {
        seen[i].push_back({cursor->weight(), cursor->doc(), cursor->tf()});
      }
      probe(kDocs / 2, kDocs);
    });
  }
  go = true;
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(snap->ShardImpactOrder(0, kTerm), order);
  for (size_t i = 0; i < 8; ++i) {
    for (DocId d = 0; d < kDocs; ++d) {
      const std::optional<uint32_t> tf = reference.FindTf(d);
      std::optional<double> expected;
      if (tf.has_value()) expected = model->Weight(kTerm, Posting{d, *tf});
      ASSERT_EQ(found[i][d], expected) << "reader " << i << " doc " << d;
    }
    ASSERT_EQ(seen[i].size(), depths[i]) << "reader " << i;
    for (size_t k = 0; k < seen[i].size(); ++k) {
      ASSERT_EQ(seen[i][k].doc, reference.ByImpact(k).doc)
          << "reader " << i << " rank " << k;
      EXPECT_EQ(seen[i][k].tf, reference.ByImpact(k).tf);
      EXPECT_EQ(seen[i][k].weight, reference.ImpactWeight(k));
    }
  }
}

TEST(ShardedCatalogTest, ScoringPassMatchesPerPostingReferenceForEveryModel) {
  // The scoring pass weighs a shard's live postings component by
  // component — segment blocks, then the memtable — with the term's
  // TermWeight. Under every model, at one shard and at two, its impact
  // order must equal a per-posting reference bit for bit: the merged
  // cursor's postings weighed with ScoringModel::Weight, sorted by weight
  // descending, then doc ascending. Each shard holds two flushed segments
  // (block size 4) and a memtable, with tombstones in all three. Term 0
  // occurs in every document, so its blocks span local ids 4k..4k+3 of
  // each segment, and the deletes hit the first posting of block 1, the
  // last of block 2 and the whole of block 3.
  constexpr TermId kTerms = 24;
  constexpr DocId kSegmentDocs = 24;  // per shard and segment
  constexpr DocId kMemtableDocs = 10;  // per shard
  const std::pair<ScoringModelKind, const char*> kinds[] = {
      {ScoringModelKind::kTfIdf, "tfidf"},
      {ScoringModelKind::kBm25, "bm25"},
      {ScoringModelKind::kLanguageModel, "lm"},
  };
  for (const auto& [kind, name] : kinds) {
    for (const size_t shards : {1u, 2u}) {
      SCOPED_TRACE(std::string(name) + ", " + std::to_string(shards) +
                   " shard(s)");
      const std::string dir = std::string(::testing::TempDir()) +
                              "/sharded_every_model_" + name + "_" +
                              std::to_string(shards);
      std::filesystem::remove_all(dir);
      ShardedCatalog::Options options;
      options.num_shards = shards;
      options.shard.num_terms = kTerms;
      options.shard.dir = dir;
      options.shard.scoring = kind;
      options.shard.segment_block_size = 4;
      options.shard.wal_enabled = false;
      auto created = ShardedCatalog::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      ShardedCatalog& catalog = *created.ValueOrDie();

      // Balanced batches from a pristine catalog route round-robin, so
      // every shard's local ids run 0..23 in the first segment, 24..47 in
      // the second and 48..57 in the memtable.
      Rng rng(0xC0DE + shards);
      const auto add_batch = [&](DocId per_shard) {
        std::vector<DocTerms> batch;
        for (DocId i = 0; i < per_shard * shards; ++i) {
          std::map<TermId, uint32_t> terms{
              {0, 1 + static_cast<uint32_t>(rng.Uniform(5))}};
          const size_t extra = 2 + rng.Uniform(5);
          for (size_t k = 0; k < extra; ++k) {
            terms[1 + static_cast<TermId>(rng.Uniform(kTerms - 1))] =
                1 + static_cast<uint32_t>(rng.Uniform(7));
          }
          batch.emplace_back(terms.begin(), terms.end());
        }
        ASSERT_TRUE(catalog.AddDocuments(batch).ok());
      };
      add_batch(kSegmentDocs);
      ASSERT_TRUE(catalog.FlushAll().ok());
      add_batch(kSegmentDocs);
      ASSERT_TRUE(catalog.FlushAll().ok());
      add_batch(kMemtableDocs);

      std::vector<DocId> dead_locals;
      for (const DocId base : {DocId{0}, kSegmentDocs}) {
        for (const DocId local : {4, 11, 12, 13, 14, 15}) {
          dead_locals.push_back(base + local);
        }
      }
      for (const DocId local : {0, 4, 5, 9}) {
        dead_locals.push_back(2 * kSegmentDocs + local);
      }
      for (size_t s = 0; s < shards; ++s) {
        for (const DocId local : dead_locals) {
          ASSERT_TRUE(catalog
                          .DeleteDocument(
                              ShardedCatalog::GlobalOf(local, s, shards))
                          .ok());
        }
      }

      const auto snap = catalog.Snapshot();
      for (size_t s = 0; s < shards; ++s) {
        const CatalogState& state = snap->shard_state(s);
        ASSERT_EQ(state.segments().size(), 2u);
        for (const auto& segment : state.segments()) {
          ASSERT_GT(segment->num_deleted, 0u);
        }
        const auto view = catalog.shard(s).OpenReadView();
        for (TermId t = 0; t < kTerms; ++t) {
          SCOPED_TRACE("shard " + std::to_string(s) + " term " +
                       std::to_string(t));
          // The reference under `model`: every live posting the merged
          // cursor yields, weighed one at a time, in impact order.
          const auto reference = [&](const ScoringModel& model) {
            std::vector<ImpactOrder::Entry> entries;
            for (auto c = state.OpenMergedCursor(t, 0.0); !c->at_end();
                 c->next()) {
              const Posting p{c->doc(), c->tf()};
              entries.push_back({model.Weight(t, p), p.doc, p.tf});
            }
            std::sort(entries.begin(), entries.end(),
                      [](const ImpactOrder::Entry& a,
                         const ImpactOrder::Entry& b) {
                        if (a.weight != b.weight) return a.weight > b.weight;
                        return a.doc < b.doc;
                      });
            return entries;
          };
          const auto expect_order = [&](ImpactCursor& cursor,
                                        const std::vector<ImpactOrder::Entry>&
                                            expected) {
            EXPECT_EQ(cursor.size(), expected.size());
            for (const ImpactOrder::Entry& e : expected) {
              ASSERT_FALSE(cursor.at_end());
              EXPECT_EQ(cursor.doc(), e.doc);
              EXPECT_EQ(cursor.tf(), e.tf);
              EXPECT_EQ(cursor.weight(), e.weight) << "doc " << e.doc;
              EXPECT_EQ(cursor.FindWeight(e.doc),
                        std::optional<double>(e.weight));
              cursor.next();
            }
            EXPECT_TRUE(cursor.at_end());
            for (const DocId local : dead_locals) {
              EXPECT_FALSE(cursor.FindWeight(local).has_value())
                  << "dead doc " << local;
            }
          };

          // The snapshot's cached order, scored by the bound.
          const ScoringModel& model = snap->shard_model(s);
          const std::vector<ImpactOrder::Entry> expected = reference(model);
          const CostScope scope;
          const double bound = snap->ShardTermBound(s, t);
          EXPECT_EQ(scope.Snapshot().impact_postings,
                    static_cast<int64_t>(expected.size()));
          EXPECT_EQ(bound, expected.empty() ? 0.0 : expected.front().weight);
          expect_order(
              *snap->shard_source(s).OpenImpactCursor(t, model), expected);

          // The shard's own read view, a one-shard snapshot of its state:
          // its bound and order, under the shard's own statistics.
          const std::vector<ImpactOrder::Entry> own =
              reference(*view->model());
          EXPECT_EQ(view->MaxImpact(t), own.empty() ? 0.0 : own.front().weight);
          expect_order(*view->OpenImpactCursor(t, *view->model()), own);
        }
      }
    }
  }
}

TEST(ShardedCatalogTest, DurableShardsRecoverAcrossReopen) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_catalog_durable";
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.num_shards = 3;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;

  Rng rng(44);
  std::vector<DocId> live_before;
  CatalogStats stats_before(kVocab);
  {
    auto created = ShardedCatalog::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedCatalog& catalog = *created.ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(catalog.AddDocument(SynthDoc(rng)).ok());
    }
    ASSERT_TRUE(catalog.DeleteDocument(4).ok());
    ASSERT_TRUE(catalog.FlushAll().ok());
    for (size_t s = 0; s < 3; ++s) {
      const std::string shard_dir = ShardedCatalog::ShardDir(options, s);
      EXPECT_NE(shard_dir, dir);
      EXPECT_TRUE(std::filesystem::exists(shard_dir + "/MANIFEST"));
    }
    auto merged = catalog.Merge(/*shard=*/1);
    ASSERT_TRUE(merged.ok());
    const auto snap = catalog.Snapshot();
    live_before = snap->LiveDocIds();
    stats_before = snap->stats();
  }

  // Create refuses a directory that already holds shard manifests.
  EXPECT_TRUE(ShardedCatalog::Exists(options));
  EXPECT_FALSE(ShardedCatalog::Create(options).ok());

  auto reopened = ShardedCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto snap = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(snap->LiveDocIds(), live_before);
  EXPECT_EQ(snap->stats().num_live_docs, stats_before.num_live_docs);
  EXPECT_EQ(snap->stats().df, stats_before.df);
  EXPECT_EQ(snap->stats().cf, stats_before.cf);
  EXPECT_EQ(snap->stats().total_live_tokens, stats_before.total_live_tokens);
}

// One shard is a plain IndexCatalog in the root directory, so a catalog
// written by either class opens with the other.
TEST(ShardedCatalogTest, OneShardLivesInTheRootDirectory) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_catalog_one_shard";
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;
  ASSERT_EQ(options.num_shards, 1u);
  EXPECT_EQ(ShardedCatalog::ShardDir(options, 0), dir);
  EXPECT_FALSE(ShardedCatalog::Exists(options));
  {
    auto created = ShardedCatalog::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.ValueOrDie()->AddDocument({{3, 1}}).ok());
    ASSERT_TRUE(created.ValueOrDie()->FlushAll().ok());
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));
  EXPECT_TRUE(ShardedCatalog::Exists(options));
  {
    auto plain = IndexCatalog::Open(options.shard);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(plain.ValueOrDie()->Snapshot()->stats().num_live_docs, 1u);
    ASSERT_TRUE(plain.ValueOrDie()->AddDocument({{4, 2}}).ok());
  }
  auto reopened = ShardedCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->Snapshot()->LiveDocIds(),
            (std::vector<DocId>{0, 1}));
}

// Backpressure set-up shared by the two tests below: every shard's
// memtable budget is 4 documents, and the attached maintenance loops
// never run a job (flush trigger far above the budget), so the debt stays.
struct OverBudgetCatalog {
  std::unique_ptr<ShardedCatalog> catalog;
  std::vector<std::unique_ptr<BackgroundMaintenance>> loops;
};

OverBudgetCatalog FillToBudget(const std::string& name, size_t num_shards,
                               bool soft_fail) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "_" + std::to_string(num_shards);
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.num_shards = num_shards;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;
  options.shard.backpressure_memtable_docs = 4;
  options.shard.backpressure_soft_fail = soft_fail;
  OverBudgetCatalog out;
  auto created = ShardedCatalog::Create(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return out;
  out.catalog = std::move(created).ValueOrDie();
  MaintenancePolicy policy;
  policy.flush_trigger_docs = 1000;
  policy.merge_trigger_segments = 0;
  const ShardedCatalog* catalog = out.catalog.get();
  for (size_t s = 0; s < num_shards; ++s) {
    out.loops.push_back(std::make_unique<BackgroundMaintenance>(
        &out.catalog->shard(s), policy,
        [catalog] { catalog->InvalidateSnapshotCache(); }));
  }
  Rng rng(46);
  for (size_t i = 0; i < 4 * num_shards; ++i) {
    EXPECT_TRUE(out.catalog->AddDocument(SynthDoc(rng)).ok());
  }
  return out;
}

// A same-shard upsert is one commit: when backpressure refuses its add,
// the old document stays live.
TEST(ShardedCatalogTest, RefusedUpsertKeepsTheDocument) {
  for (const size_t shards : {1u, 2u}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    OverBudgetCatalog full = FillToBudget("sharded_refused_upsert", shards,
                                          /*soft_fail=*/true);
    ASSERT_NE(full.catalog, nullptr);
    ShardedCatalog& catalog = *full.catalog;
    ASSERT_EQ(catalog.AddDocument({{7, 5}}).status().code(),
              StatusCode::kResourceExhausted);

    // Balanced doc spaces route the fresh id to shard 0 (ties to the
    // lowest index), which owns doc 0: a same-shard upsert.
    const DocTerms before = catalog.Snapshot()->TermsOf(0);
    auto updated = catalog.UpdateDocument(0, {{7, 5}});
    EXPECT_EQ(updated.status().code(), StatusCode::kResourceExhausted);
    const auto snap = catalog.Snapshot();
    EXPECT_FALSE(snap->IsDeleted(0));
    EXPECT_EQ(snap->TermsOf(0), before);
    EXPECT_EQ(snap->stats().num_live_docs, 4 * shards);
  }
}

// A writer blocked by backpressure holds only the mutation lock: readers
// keep taking snapshots. Destroying the maintenance loops releases it.
TEST(ShardedCatalogTest, SnapshotDoesNotWaitForABlockedWriter) {
  for (const size_t shards : {1u, 2u}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    OverBudgetCatalog full = FillToBudget("sharded_blocked_writer", shards,
                                          /*soft_fail=*/false);
    ASSERT_NE(full.catalog, nullptr);
    ShardedCatalog& catalog = *full.catalog;

    std::thread writer([&catalog] {
      EXPECT_TRUE(catalog.AddDocument({{7, 5}}).ok());
    });
    // Let the writer reach the backpressure wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::future<std::shared_ptr<const ShardedSnapshot>> snapshot =
        std::async(std::launch::async,
                   [&catalog] { return catalog.Snapshot(); });
    EXPECT_EQ(snapshot.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);

    full.loops.clear();  // detaching the observers wakes the writer
    writer.join();
    EXPECT_EQ(snapshot.get()->stats().num_live_docs, 4 * shards);
    EXPECT_EQ(catalog.Snapshot()->stats().num_live_docs, 4 * shards + 1);
  }
}

// A batch spread over shards and a cross-shard upsert each commit shard by
// shard, holding the snapshot lock across their commits: a reader racing
// them sees each whole or not at all, so the live count stays even.
TEST(ShardedCatalogTest, MultiShardWritesAreNeverSeenHalfApplied) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedCatalog& catalog = *created.ValueOrDie();

  const auto write = [&catalog] {
    Rng rng(47);
    for (int round = 0; round < 200; ++round) {
      // From balanced or one-apart doc spaces, two documents land on
      // both shards.
      auto ids = catalog.AddDocuments({SynthDoc(rng), SynthDoc(rng)});
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      ASSERT_NE(ShardedCatalog::ShardOf(ids.ValueOrDie()[0], 2),
                ShardedCatalog::ShardOf(ids.ValueOrDie()[1], 2));
      // The upsert's fresh id goes to the shard with the smaller doc
      // space; move the batch's document from the other one.
      const auto snap = catalog.Snapshot();
      const size_t target =
          snap->shard_state(1).doc_space() < snap->shard_state(0).doc_space()
              ? 1
              : 0;
      const DocId victim =
          ShardedCatalog::ShardOf(ids.ValueOrDie()[0], 2) == target
              ? ids.ValueOrDie()[1]
              : ids.ValueOrDie()[0];
      auto moved = catalog.UpdateDocument(victim, SynthDoc(rng));
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
      ASSERT_EQ(ShardedCatalog::ShardOf(moved.ValueOrDie(), 2), target);
    }
  };
  std::atomic<bool> done{false};
  std::thread writer([&write, &done] {
    write();
    done.store(true);
  });
  while (!done.load()) {
    EXPECT_EQ(catalog.Snapshot()->stats().num_live_docs % 2, 0u);
  }
  writer.join();
  EXPECT_EQ(catalog.Snapshot()->stats().num_live_docs, 400u);
}

// ---------------------------------------------------------------------------
// Engine-level parity: the same lifecycle against a reference catalog and
// against databases of num_shards in {1, 2, 4}. The reference is the one
// shard of a num_shards = 1 database, queried through the registry and
// ExactTopN over its IndexCatalog read view — the plain single-catalog
// path, independent of the coordinator every database answers through.
// The lifecycle keeps the id spaces aligned (a balanced seed gets
// identity ids; adds stay interleaved and deletes do not move doc spaces;
// flush is id-stable; no merges), so safe strategies must agree
// doc-for-doc and bit-for-bit on scores — except that ranks tying the
// returned n-th score may legally swap equal-scored docs (the distributed
// max-score threshold prunes ties).

DatabaseConfig ShardedConfig(const std::string& dir, size_t num_shards) {
  DatabaseConfig config;
  config.collection.num_docs = 120;
  config.collection.vocabulary = kVocab;
  config.collection.mean_doc_length = 50;
  config.collection.seed = 880022;
  config.catalog_dir = dir;
  config.num_shards = num_shards;
  return config;
}

/// Applies the shared id-space-aligned lifecycle to one database.
void RunAlignedLifecycle(MmDatabase& db) {
  Rng rng(0xA11C);
  std::vector<DocId> added;
  for (int i = 0; i < 12; ++i) {
    auto id = db.AddDocument(SynthDoc(rng));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    added.push_back(id.ValueOrDie());
  }
  ASSERT_TRUE(db.DeleteDocument(3).ok());
  ASSERT_TRUE(db.DeleteDocument(77).ok());
  ASSERT_TRUE(db.DeleteDocument(added[5]).ok());
  auto updated = db.UpdateDocument(10, SynthDoc(rng));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_TRUE(db.Flush().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.AddDocument(SynthDoc(rng)).ok());
  }
  ASSERT_TRUE(db.DeleteDocument(50).ok());
}

void ExpectShardedParity(const TopNResult& ref, const TopNResult& got,
                         size_t n, const char* label) {
  ASSERT_EQ(ref.items.size(), got.items.size()) << label;
  for (size_t i = 0; i < ref.items.size(); ++i) {
    EXPECT_EQ(got.items[i].score, ref.items[i].score)
        << label << " rank " << i;
  }
  const bool full = got.items.size() == n;
  for (size_t i = 0; i < ref.items.size(); ++i) {
    if (full && ref.items[i].score == ref.items.back().score) continue;
    EXPECT_EQ(got.items[i].doc, ref.items[i].doc) << label << " rank " << i;
  }
}

TEST(ShardedCatalogTest, EngineShardedSearchMatchesUnsharded) {
  const std::string base =
      std::string(::testing::TempDir()) + "/sharded_engine_parity";
  std::filesystem::remove_all(base + "_reference");
  auto opened = MmDatabase::Open(ShardedConfig(base + "_reference", 1));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MmDatabase& reference_db = *opened.ValueOrDie();
  RunAlignedLifecycle(*opened.ValueOrDie());
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_NE(reference_db.catalog(), nullptr);
  const std::shared_ptr<const ShardReadView> view =
      reference_db.catalog()->OpenReadView();
  const Fragmentation fragmentation = Fragmentation::Build(
      view->state().stats().df, reference_db.config().fragmentation);
  ExecContext reference;
  reference.postings = view.get();
  reference.model = view->model();
  reference.fragmentation = &fragmentation;
  reference.sparse_cache = &view->state().sparse_cache();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 10;
  qconfig.terms_per_query = 3;
  qconfig.distribution = QueryTermDistribution::kMixed;
  qconfig.seed = 6161;
  const std::vector<Query> queries =
      GenerateQueries(reference_db.collection(), qconfig).ValueOrDie();

  for (const size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    const std::string dir = base + "_" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    auto sharded_open = MmDatabase::Open(ShardedConfig(dir, shards));
    ASSERT_TRUE(sharded_open.ok()) << sharded_open.status().ToString();
    MmDatabase& db = *sharded_open.ValueOrDie();
    RunAlignedLifecycle(db);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_NE(db.sharded_catalog(), nullptr);
    EXPECT_EQ(db.sharded_catalog()->num_shards(), shards);
    EXPECT_EQ(db.catalog() != nullptr, shards == 1);

    // The aligned lifecycle keeps the live id sets equal.
    ASSERT_EQ(db.sharded_catalog()->Snapshot()->LiveDocIds(),
              view->state().LiveDocIds());

    for (const Query& q : queries) {
      // Exact ground truth is id-aligned, so it must match exactly.
      const auto truth = ExactTopN(*view, *view->model(), q, kTopN);
      const std::vector<double> scores =
          AccumulateScores(*view, *view->model(), q);
      const auto sharded_truth = db.GroundTruth(q, kTopN);
      ASSERT_EQ(truth.size(), sharded_truth.size());
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(truth[i], sharded_truth[i]) << "ground truth rank " << i;
      }
      EXPECT_EQ(db.GroundTruthScores(q), scores);

      for (PhysicalStrategy s : AllStrategies()) {
        if (!IsSafeStrategy(s)) continue;  // per-shard pruning diverges
        auto expected =
            StrategyRegistry::Global().Execute(s, reference, q, kTopN);
        auto actual = db.Execute(s, q, kTopN);
        ASSERT_TRUE(expected.ok()) << StrategyName(s);
        ASSERT_TRUE(actual.ok())
            << StrategyName(s) << ": " << actual.status().ToString();
        if (shards == 1) {
          // One shard costs exactly what the single catalog costs.
          EXPECT_EQ(actual.ValueOrDie().stats.cost.Scalar(),
                    expected.ValueOrDie().stats.cost.Scalar())
              << StrategyName(s);
        }
        if (s == PhysicalStrategy::kFaginNRA && shards > 1) {
          // Set-level: merged partial lower bounds are partition-
          // dependent, but membership in the exact top-N is not.
          ASSERT_EQ(actual.ValueOrDie().items.size(), truth.size())
              << StrategyName(s);
          for (const ScoredDoc& sd : actual.ValueOrDie().items) {
            ASSERT_LT(sd.doc, scores.size());
            EXPECT_GE(scores[sd.doc] + 1e-9, truth.back().score)
                << StrategyName(s) << " doc " << sd.doc;
          }
          continue;
        }
        ExpectShardedParity(expected.ValueOrDie(), actual.ValueOrDie(),
                            kTopN, StrategyName(s));
      }

      // Planner-driven Search stays safe and exact. Each shard plans for
      // itself, and different safe strategies accumulate float sums in
      // different orders, so the check is against exact ground truth with
      // an epsilon rather than bitwise against any one strategy.
      QueryRequest request;
      request.query = q;
      request.n = kTopN;
      auto planned = db.Search(request);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_TRUE(planned.ValueOrDie().planned);
      EXPECT_TRUE(IsSafeStrategy(planned.ValueOrDie().strategy));
      const std::vector<ScoredDoc>& planned_items =
          planned.ValueOrDie().top.items;
      ASSERT_EQ(planned_items.size(), truth.size());
      for (const ScoredDoc& sd : planned_items) {
        ASSERT_LT(sd.doc, scores.size());
        EXPECT_GE(scores[sd.doc] + 1e-9, truth.back().score)
            << "planned doc " << sd.doc << " outside the exact top-N";
        EXPECT_NEAR(sd.score, scores[sd.doc], 1e-9)
            << "planned doc " << sd.doc;
      }
    }

    // SearchBatch fans out over the same coordinator (nested parallelism
    // degrades gracefully); forced runs must equal sequential Execute.
    std::vector<QueryRequest> requests;
    for (const Query& q : queries) {
      requests.push_back({q, kTopN, {}});
      requests.back().options.strategy = PhysicalStrategy::kMaxScore;
    }
    auto batch = db.SearchBatch(requests, 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.ValueOrDie().results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto sequential = db.Execute(PhysicalStrategy::kMaxScore, queries[i],
                                   kTopN);
      ASSERT_TRUE(sequential.ok());
      ExpectShardedParity(sequential.ValueOrDie(),
                          batch.ValueOrDie().results[i].top, kTopN,
                          "search batch");
    }

    // Explain names the storage — one shard describes its own catalog —
    // and the shard visit/skip split at every shard count.
    auto report = db.ExplainSearch(QueryRequest{queries[0], kTopN, {}});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string text = report.ValueOrDie().ToString();
    const char* storage =
        shards == 1 ? "storage: catalog v" : "storage: sharded(";
    EXPECT_NE(text.find(storage), std::string::npos) << text;
    EXPECT_NE(text.find("shards: visited"), std::string::npos) << text;
  }
}

TEST(ShardedCatalogTest, EngineReopensShardedCatalogFromDisk) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_engine_reopen";
  std::filesystem::remove_all(dir);
  const DatabaseConfig config = ShardedConfig(dir, 2);
  uint64_t live_before = 0;
  {
    auto db = MmDatabase::Open(config);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.ValueOrDie()->AddDocument({{1, 2}, {2, 1}}).ok());
    ASSERT_TRUE(db.ValueOrDie()->DeleteDocument(9).ok());
    ASSERT_TRUE(db.ValueOrDie()->Flush().ok());
    live_before =
        db.ValueOrDie()->sharded_catalog()->Snapshot()->stats().num_live_docs;
    ASSERT_EQ(live_before, 120u);  // 120 seeded + 1 added - 1 deleted
  }
  auto reopened = MmDatabase::Open(config);
  ASSERT_TRUE(reopened.ok());
  // First mutation recovers the durable shards instead of re-seeding.
  auto id = reopened.ValueOrDie()->AddDocument({{3, 1}});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto snap = reopened.ValueOrDie()->sharded_catalog()->Snapshot();
  EXPECT_EQ(snap->stats().num_live_docs, live_before + 1);
  EXPECT_TRUE(snap->IsDeleted(9));
}

TEST(ShardedCatalogTest, EngineRejectsMalformedQueryOptions) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_engine_malformed";
  std::filesystem::remove_all(dir);
  auto opened = MmDatabase::Open(ShardedConfig(dir, 2));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.DeleteDocument(0).ok());  // turn sharded-dynamic
  ASSERT_NE(db.sharded_catalog(), nullptr);

  const Query q{{1, 2, 3}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<QueryOptions> bad(5);
  bad[0].quality_target = nan;
  bad[1].quality_target = -0.25;
  bad[2].quality_target = 1.5;
  bad[3].deadline_millis = nan;
  bad[4].deadline_millis = -1.0;
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const QueryRequest request{q, kTopN, bad[i]};
    EXPECT_EQ(db.Search(request).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.SearchBatch({request, request}, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.ExplainSearch(request).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Term ids at and far past the vocabulary, through every entry point.
  for (const TermId t : {static_cast<TermId>(db.file().num_terms()),
                         TermId{100000000}}) {
    SCOPED_TRACE("term " + std::to_string(t));
    const Query oov{{1, 2, t}};
    const QueryRequest request{oov, kTopN, {}};
    EXPECT_EQ(db.Search(request).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.SearchBatch({request, request}, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.ExplainSearch(request).status().code(),
              StatusCode::kInvalidArgument);
    for (PhysicalStrategy s : AllStrategies()) {
      EXPECT_EQ(db.Execute(s, oov, kTopN).status().code(),
                StatusCode::kInvalidArgument)
          << StrategyName(s);
    }
  }
  // The bounds themselves are well-formed.
  QueryRequest edge{q, kTopN, {}};
  edge.options.quality_target = 0.0;
  EXPECT_TRUE(db.Search(edge).ok());
}

// Sorted access scores a term's live postings into an impact order once
// per snapshot. ExplainReport shows the explained query's own share of
// that work; whether the order was built or cached never moves the work
// ticks.
TEST(ShardedCatalogTest, ExplainCountsImpactPostingsScoredForTheQuery) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_impact_postings";
  std::filesystem::remove_all(dir);
  auto opened = MmDatabase::Open(ShardedConfig(dir, 1));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.Flush().ok());  // seeds the catalog as one segment

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 1;
  qconfig.terms_per_query = 3;
  qconfig.distribution = QueryTermDistribution::kMixed;
  qconfig.seed = 4711;
  QueryRequest request{
      GenerateQueries(db.collection(), qconfig).ValueOrDie()[0], kTopN, {}};
  request.options.strategy = PhysicalStrategy::kFaginTA;

  // The first query on the fresh snapshot builds the orders, the second
  // reads them from the snapshot's cache.
  auto built = db.ExplainSearch(request);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_GT(built.ValueOrDie().observed.impact_postings, 0);
  EXPECT_NE(built.ValueOrDie().ToString().find("impact orders: scored "),
            std::string::npos);
  auto cached = db.ExplainSearch(request);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached.ValueOrDie().observed.impact_postings, 0);
  ASSERT_TRUE(built.ValueOrDie().has_blocks);
  ASSERT_TRUE(cached.ValueOrDie().has_blocks);
  EXPECT_EQ(built.ValueOrDie().trace.observed_scalar(),
            cached.ValueOrDie().trace.observed_scalar());

  // A write starts a fresh snapshot: the same pair through Search, whose
  // results carry the whole CostCounters.
  ASSERT_TRUE(db.AddDocument({{1, 1}, {2, 1}}).ok());
  auto cold = db.Search(request);
  auto warm = db.Search(request);
  ASSERT_TRUE(cold.ok() && warm.ok());
  const CostCounters& cold_cost = cold.ValueOrDie().top.stats.cost;
  const CostCounters& warm_cost = warm.ValueOrDie().top.stats.cost;
  EXPECT_GT(cold_cost.impact_postings, 0);
  EXPECT_EQ(warm_cost.impact_postings, 0);
  EXPECT_EQ(cold_cost.Scalar(), warm_cost.Scalar());
  EXPECT_EQ(cold.ValueOrDie().top.items, warm.ValueOrDie().top.items);
  std::filesystem::remove_all(dir);
}

// ExplainSearch reports the run Search makes: one snapshot, each shard
// running its own plan. With shard 0 flushed to a segment and shard 1
// still in its memtable the shards see different storage, so some
// queries plan different strategies per shard; for those, forcing the
// headline strategy on every shard does other work than Search, and the
// explain must still observe exactly Search's counters.
TEST(ShardedCatalogTest, ExplainObservesTheRunSearchMakes) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_explain_run";
  std::filesystem::remove_all(dir);
  auto opened = MmDatabase::Open(ShardedConfig(dir, 2));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.DeleteDocument(0).ok());  // seeds both shards' memtables
  // The facade flushes every shard, so flush shard 0 alone through the
  // database's catalog (a mutable object behind a const accessor).
  ASSERT_TRUE(const_cast<ShardedCatalog*>(db.sharded_catalog())
                  ->Flush(0)
                  .ok());
  const auto snap = db.sharded_catalog()->Snapshot();
  ASSERT_EQ(snap->shard_composition(0).num_segments, 1u);
  ASSERT_EQ(snap->shard_composition(1).num_segments, 0u);

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 200;
  qconfig.terms_per_query = 3;
  qconfig.distribution = QueryTermDistribution::kMixed;
  qconfig.seed = 1919;
  size_t split_plans = 0;
  for (const Query& q :
       GenerateQueries(db.collection(), qconfig).ValueOrDie()) {
    const QueryRequest request{q, kTopN, {}};
    auto search = db.Search(request);  // also caches the impact orders
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto forced = db.Execute(search.ValueOrDie().strategy, q, kTopN);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    if (forced.ValueOrDie().stats.cost.Scalar() ==
        search.ValueOrDie().top.stats.cost.Scalar()) {
      continue;  // every shard plans the headline strategy
    }
    ++split_plans;
    auto report = db.ExplainSearch(request);
    auto again = db.Search(request);
    ASSERT_TRUE(report.ok() && again.ok());
    ASSERT_EQ(db.sharded_catalog()->Snapshot(), snap);
    const ExplainReport& r = report.ValueOrDie();
    const CostCounters& cost = again.ValueOrDie().top.stats.cost;
    ASSERT_TRUE(r.has_blocks) << r.ToString();
    EXPECT_EQ(r.decision.strategy, again.ValueOrDie().strategy);
    EXPECT_EQ(r.observed, cost)
        << r.observed.ToString() << " vs Search's " << cost.ToString();
  }
  EXPECT_GT(split_plans, 0u) << "no query planned differently per shard";
  std::filesystem::remove_all(dir);
}

// Least-loaded routing makes a batch's ids non-consecutive, so the engine
// must return every one: after a flush and merge compact shard 1 below
// shard 0, a 3-document batch lands on shard 1 twice and then on shard 0,
// so its ids are 117, 119 and 120 — and 118, the id a caller could infer
// from the first one for the second document, names a live seed document.
TEST(ShardedCatalogTest, EngineAddDocumentsReturnsEveryIdInInputOrder) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_engine_add_ids";
  std::filesystem::remove_all(dir);
  auto opened = MmDatabase::Open(ShardedConfig(dir, 2));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.DeleteDocument(1).ok());  // both on shard 1
  ASSERT_TRUE(db.DeleteDocument(3).ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.Merge().ok());

  Rng rng(45);
  const std::vector<DocTerms> docs = {SynthDoc(rng), SynthDoc(rng),
                                      SynthDoc(rng)};
  auto ids = db.AddDocuments(docs);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.ValueOrDie(), (std::vector<DocId>{117, 119, 120}));
  const auto snap = db.sharded_catalog()->Snapshot();
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(snap->TermsOf(ids.ValueOrDie()[i]), docs[i]) << "doc " << i;
  }
  EXPECT_FALSE(snap->IsDeleted(118));
  EXPECT_NE(snap->TermsOf(118), docs[1]);
}

}  // namespace
}  // namespace moa
