// Layered sorted access (storage/segment/posting_cursor.h): the dominance
// layers a segment keeps per term, and the ImpactOrder that emits across
// storage components from those layers.
//
// - DominanceLayers: over random (tf, length) sets with many duplicate
//   points, no posting of a layer dominates another of the same layer,
//   every posting of layer j + 1 is dominated by one of layer j, and every
//   posting appears once.
// - ImpactOrder against a full sort of the live postings, under tf-idf,
//   BM25, the language model and BM25 with b = 0 (a TermWeight made by
//   hand, which weighs by tf alone, so equal weights span many layers; the
//   language model ties too, e.g. (1, 100) against (2, 200)). Components:
//   two layered segments and a memtable, with tombstones on layer-0
//   postings and on whole layers. Random access must return the bits
//   sorted access emits, and nothing for a tombstoned or absent document.
// - A cursor keeps alive everything it reads: it outlives its read view,
//   the snapshot and the catalog (run under ASan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "common/rng.h"
#include "ir/scoring.h"
#include "storage/catalog/index_catalog.h"
#include "storage/segment/posting_cursor.h"

namespace moa {
namespace {

struct Point {
  DocId doc;
  uint32_t tf;
  uint32_t length;
};

/// True if `a` dominates `b`: tf at least as high, length at most as
/// long, and a different (tf, length) point.
bool Dominates(const Point& a, const Point& b) {
  return a.tf >= b.tf && a.length <= b.length &&
         (a.tf != b.tf || a.length != b.length);
}

/// `n` doc-ordered points with ids 0, 2, 4, ... (so odd ids are absent),
/// tfs in [1, max_tf] and lengths from a few multiples of 50, which makes
/// many points equal and many weights tie.
std::vector<Point> RandomPoints(Rng& rng, size_t n, uint32_t max_tf) {
  std::vector<Point> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = Point{static_cast<DocId>(2 * i),
                      1 + static_cast<uint32_t>(rng.Uniform(max_tf)),
                      50 * (1 + static_cast<uint32_t>(rng.Uniform(8)))};
  }
  return points;
}

std::unique_ptr<DominanceLayers> LayersOf(const std::vector<Point>& points) {
  std::vector<Posting> postings;
  std::vector<uint32_t> lengths;
  for (const Point& p : points) {
    postings.push_back({p.doc, p.tf});
    lengths.push_back(p.length);
  }
  return std::make_unique<DominanceLayers>(std::move(postings), lengths);
}

TEST(DominanceLayersTest, LayersAreAntichainsEachDominatedByThePrevious) {
  Rng rng(0x1A7E5);
  for (int round = 0; round < 200; ++round) {
    const size_t n = 1 + rng.Uniform(round < 100 ? 40 : 400);
    const std::vector<Point> points =
        RandomPoints(rng, n, 1 + static_cast<uint32_t>(rng.Uniform(12)));
    const CostScope scope;
    const std::unique_ptr<DominanceLayers> layers = LayersOf(points);
    EXPECT_EQ(scope.Snapshot().layer_postings, static_cast<int64_t>(n));
    ASSERT_EQ(layers->size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(layers->postings()[i].doc, points[i].doc);
      ASSERT_EQ(layers->postings()[i].tf, points[i].tf);
    }

    // Every posting once, in some layer.
    std::vector<int> seen(n, 0);
    std::vector<std::vector<Point>> by_layer(layers->num_layers());
    for (size_t j = 0; j < layers->num_layers(); ++j) {
      ASSERT_LT(layers->layer_begin(j), layers->layer_end(j)) << "layer " << j;
      for (const uint32_t* it = layers->layer_begin(j);
           it != layers->layer_end(j); ++it) {
        ASSERT_LT(*it, n);
        ++seen[*it];
        by_layer[j].push_back(points[*it]);
      }
    }
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], 1) << "posting " << i;

    for (size_t j = 0; j < by_layer.size(); ++j) {
      for (const Point& a : by_layer[j]) {
        for (const Point& b : by_layer[j]) {
          ASSERT_FALSE(Dominates(a, b))
              << "round " << round << " layer " << j << ": (" << a.tf << ", "
              << a.length << ") dominates (" << b.tf << ", " << b.length
              << ")";
        }
        if (j == 0) continue;
        ASSERT_TRUE(std::any_of(
            by_layer[j - 1].begin(), by_layer[j - 1].end(),
            [&](const Point& above) { return Dominates(above, a); }))
            << "round " << round << " layer " << j << ": (" << a.tf << ", "
            << a.length << ") is dominated by nothing in layer " << j - 1;
      }
    }
  }
}

TEST(DominanceLayersTest, EqualPointsShareALayer) {
  // Three copies of (2, 100), dominated by (3, 100); (1, 50) is on the
  // frontier beside (3, 100).
  const std::vector<Point> points = {
      {0, 2, 100}, {1, 3, 100}, {2, 2, 100}, {3, 1, 50}, {4, 2, 100}};
  const std::unique_ptr<DominanceLayers> layers = LayersOf(points);
  ASSERT_EQ(layers->num_layers(), 2u);
  const auto layer = [&](size_t j) {
    return std::vector<uint32_t>(layers->layer_begin(j), layers->layer_end(j));
  };
  EXPECT_EQ(layer(0), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(layer(1), (std::vector<uint32_t>{0, 2, 4}));
}

/// The term weights the emission is checked under. BM25 with b = 0 weighs
/// by tf alone.
std::vector<std::pair<std::string, TermWeight>> Weights() {
  using F = TermWeight::Formula;
  return {
      {"tfidf", TermWeight{.formula = F::kTfIdf, .idf = 1.7}},
      {"bm25",
       TermWeight{
           .formula = F::kBm25, .idf = 2.3, .k1 = 1.2, .b = 0.75, .avgdl = 180}},
      {"bm25_b0",
       TermWeight{
           .formula = F::kBm25, .idf = 2.3, .k1 = 1.2, .b = 0.0, .avgdl = 180}},
      {"lm", TermWeight{.formula = F::kLanguageModel,
                        .p_coll = 0.002,
                        .lambda = 0.15}},
  };
}

/// One component of the synthetic order: its postings (local ids), its
/// lengths by local id, its tombstones, and its layers when it is a
/// segment.
struct SyntheticComponent {
  uint64_t base = 0;
  std::vector<Point> points;
  std::vector<uint32_t> lengths;  // by local id
  std::vector<uint8_t> dead;      // by local id
  std::unique_ptr<DominanceLayers> layers;
  std::vector<Posting> postings;  // the memtable's list
};

/// Two segments and a memtable. The first segment loses one posting of
/// layer 0 and the whole of layers 1 and 3; the second loses every layer-0
/// posting; the memtable loses two postings.
std::vector<SyntheticComponent> MakeComponents(Rng& rng) {
  std::vector<SyntheticComponent> comps(3);
  uint64_t base = 0;
  for (size_t i = 0; i < comps.size(); ++i) {
    SyntheticComponent& c = comps[i];
    c.base = base;
    c.points = RandomPoints(rng, i < 2 ? 300 : 20, 6);
    const DocId space = c.points.back().doc + 2;
    base += space;
    c.lengths.assign(space, 0);
    c.dead.assign(space, 0);
    for (const Point& p : c.points) c.lengths[p.doc] = p.length;
    if (i == 2) {
      for (const Point& p : c.points) c.postings.push_back({p.doc, p.tf});
      c.dead[c.points[3].doc] = 1;
      c.dead[c.points[11].doc] = 1;
      continue;
    }
    c.layers = LayersOf(c.points);
    const auto kill_layer = [&](size_t j) {
      for (const uint32_t* it = c.layers->layer_begin(j);
           it != c.layers->layer_end(j); ++it) {
        c.dead[c.points[*it].doc] = 1;
      }
    };
    if (i == 0) {
      c.dead[c.points[*c.layers->layer_begin(0)].doc] = 1;
      kill_layer(1);
      kill_layer(3);
    } else {
      kill_layer(0);
    }
  }
  return comps;
}

std::shared_ptr<const ImpactOrder> OrderOf(
    const std::vector<SyntheticComponent>& comps, const TermWeight& weight) {
  std::vector<ImpactOrder::Component> components;
  size_t live = 0;
  for (const SyntheticComponent& sc : comps) {
    ImpactOrder::Component c;
    c.base = sc.base;
    c.layers = sc.layers.get();
    c.postings = sc.layers == nullptr ? &sc.postings : &sc.layers->postings();
    c.dead = &sc.dead;
    c.doc_length = [&sc](DocId d) { return sc.lengths[d]; };
    components.push_back(std::move(c));
    for (const Point& p : sc.points) live += sc.dead[p.doc] == 0 ? 1 : 0;
  }
  return std::make_shared<const ImpactOrder>(weight, std::move(components),
                                             live, nullptr);
}

TEST(ImpactOrderTest, EmissionEqualsAFullSortForEveryModel) {
  for (const auto& [name, weight] : Weights()) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(name + ", seed " + std::to_string(seed));
      Rng rng(seed);
      const std::vector<SyntheticComponent> comps = MakeComponents(rng);

      // The reference: every live posting weighed alone, sorted by weight
      // descending, then global id ascending.
      std::vector<ImpactOrder::Entry> expected;
      size_t postings = 0;
      for (const SyntheticComponent& c : comps) {
        postings += c.points.size();
        for (const Point& p : c.points) {
          if (c.dead[p.doc] != 0) continue;
          expected.push_back({weight(p.tf, p.length),
                              static_cast<DocId>(c.base + p.doc), p.tf});
        }
      }
      std::sort(expected.begin(), expected.end(),
                [](const ImpactOrder::Entry& a, const ImpactOrder::Entry& b) {
                  if (a.weight != b.weight) return a.weight > b.weight;
                  return a.doc < b.doc;
                });

      const std::shared_ptr<const ImpactOrder> order = OrderOf(comps, weight);
      const CostScope bound_scope;
      EXPECT_EQ(order->max_weight(), expected.front().weight);
      // The bound scores a few layers per segment and the memtable's
      // postings, not the whole list. Not with b = 0: every posting of
      // the greatest tf ties, across as many layers as it has lengths.
      if (weight.b != 0.0 || weight.formula != TermWeight::Formula::kBm25) {
        EXPECT_LT(4 * bound_scope.Snapshot().impact_postings,
                  static_cast<int64_t>(postings));
      }

      const CostScope drain_scope;
      auto cursor = ImpactOrder::OpenCursor(order);
      EXPECT_EQ(cursor->size(), expected.size());
      for (size_t k = 0; k < expected.size(); ++k, cursor->next()) {
        ASSERT_FALSE(cursor->at_end()) << "rank " << k;
        ASSERT_EQ(cursor->doc(), expected[k].doc) << "rank " << k;
        ASSERT_EQ(cursor->tf(), expected[k].tf) << "rank " << k;
        ASSERT_EQ(cursor->weight(), expected[k].weight) << "rank " << k;
      }
      EXPECT_TRUE(cursor->at_end());
      // Every posting is scored at most once, tombstoned ones included.
      EXPECT_LE(bound_scope.Snapshot().impact_postings,
                static_cast<int64_t>(postings));

      // Random access: the emitted bits for live postings, nothing for a
      // tombstoned document or an id no component holds.
      std::map<DocId, double> live;
      for (const ImpactOrder::Entry& e : expected) live[e.doc] = e.weight;
      const CostScope probe_scope;
      int64_t probes = 0;
      for (const SyntheticComponent& c : comps) {
        for (DocId local = 0; local < c.dead.size(); ++local, ++probes) {
          const auto doc = static_cast<DocId>(c.base + local);
          const auto it = live.find(doc);
          EXPECT_EQ(cursor->FindWeight(doc),
                    it == live.end() ? std::nullopt
                                     : std::optional<double>(it->second))
              << "doc " << doc;
        }
      }
      EXPECT_EQ(probe_scope.Snapshot().random_reads, probes);
      EXPECT_EQ(probe_scope.Snapshot().impact_postings, 0);
    }
  }
}

TEST(ImpactOrderTest, AnOrderOfOnlyTombstonesIsEmpty) {
  const std::vector<Point> points = {{0, 3, 100}, {2, 1, 50}, {4, 1, 200}};
  const std::unique_ptr<DominanceLayers> layers = LayersOf(points);
  const std::vector<uint8_t> dead = {1, 0, 1, 0, 1};
  const std::vector<uint32_t> lengths = {100, 0, 50, 0, 200};
  ImpactOrder::Component c;
  c.layers = layers.get();
  c.postings = &layers->postings();
  c.dead = &dead;
  c.doc_length = [&lengths](DocId d) { return lengths[d]; };
  const auto order = std::make_shared<const ImpactOrder>(
      Weights()[1].second, std::vector<ImpactOrder::Component>{c}, 0, nullptr);
  EXPECT_EQ(order->max_weight(), 0.0);
  auto cursor = ImpactOrder::OpenCursor(order);
  EXPECT_TRUE(cursor->at_end());
  EXPECT_EQ(cursor->FindWeight(0), std::nullopt);
}

TEST(ImpactOrderTest, CursorOutlivesItsViewSnapshotAndCatalog) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/impact_order_outlives";
  std::filesystem::remove_all(dir);
  constexpr TermId kTerm = 1;
  std::unique_ptr<ImpactCursor> cursor;
  std::vector<ImpactOrder::Entry> expected;
  std::map<DocId, double> weights;
  {
    IndexCatalog::Options options;
    options.num_terms = 4;
    options.dir = dir;
    options.segment_block_size = 8;
    auto created = IndexCatalog::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<IndexCatalog> catalog = std::move(created).ValueOrDie();
    Rng rng(77);
    for (int d = 0; d < 120; ++d) {
      const auto tf = 1 + static_cast<uint32_t>(rng.Uniform(5));
      ASSERT_TRUE(catalog->AddDocument({{0, 1 + tf % 3}, {kTerm, tf}}).ok());
      if (d == 79) ASSERT_TRUE(catalog->Flush().ok());
    }
    ASSERT_TRUE(catalog->DeleteDocument(3).ok());
    ASSERT_TRUE(catalog->DeleteDocument(100).ok());

    std::shared_ptr<const ShardReadView> view = catalog->OpenReadView();
    const ScoringModel& model = *view->model();
    for (auto c = view->OpenCursor(kTerm); !c->at_end(); c->next()) {
      const double w = model.Weight(kTerm, {c->doc(), c->tf()});
      expected.push_back({w, c->doc(), c->tf()});
      weights[c->doc()] = w;
    }
    std::sort(expected.begin(), expected.end(),
              [](const ImpactOrder::Entry& a, const ImpactOrder::Entry& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.doc < b.doc;
              });
    cursor = view->OpenImpactCursor(kTerm, model);
    // The view, its snapshot, the catalog and its files all go first.
  }
  std::filesystem::remove_all(dir);
  ASSERT_EQ(cursor->size(), expected.size());
  for (const ImpactOrder::Entry& e : expected) {
    ASSERT_FALSE(cursor->at_end());
    EXPECT_EQ(cursor->doc(), e.doc);
    EXPECT_EQ(cursor->weight(), e.weight);
    cursor->next();
  }
  EXPECT_TRUE(cursor->at_end());
  for (DocId d = 0; d < 125; ++d) {
    const auto it = weights.find(d);
    EXPECT_EQ(cursor->FindWeight(d), it == weights.end()
                                         ? std::nullopt
                                         : std::optional<double>(it->second))
        << "doc " << d;
  }
}

}  // namespace
}  // namespace moa
