#include "ir/scoring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollection;

class ScoringModelsTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<ScoringModel> MakeModel() {
    auto& file = const_cast<Collection&>(SmallCollection())
                     .mutable_inverted_file();
    const std::string which = GetParam();
    if (which == "tfidf") return MakeTfIdf(&file);
    if (which == "bm25") return MakeBm25(&file);
    return MakeLanguageModel(&file);
  }
};

TEST_P(ScoringModelsTest, WeightsAreNonNegative) {
  auto model = MakeModel();
  const InvertedFile& f = SmallCollection().inverted_file();
  for (TermId t = 0; t < std::min<size_t>(f.num_terms(), 200); ++t) {
    const PostingList& list = f.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      EXPECT_GE(model->Weight(t, list[i]), 0.0)
          << "term " << t << " posting " << i;
    }
  }
}

TEST_P(ScoringModelsTest, HigherTfGivesHigherWeight) {
  auto model = MakeModel();
  const InvertedFile& f = SmallCollection().inverted_file();
  // Find a term and compare synthetic postings on the same document.
  for (TermId t = 0; t < f.num_terms(); ++t) {
    if (f.DocFrequency(t) == 0) continue;
    const DocId d = f.list(t)[0].doc;
    const double w1 = model->Weight(t, Posting{d, 1});
    const double w3 = model->Weight(t, Posting{d, 3});
    EXPECT_GT(w3, w1);
    break;
  }
}

TEST_P(ScoringModelsTest, RarerTermsWeighMoreAtEqualTf) {
  auto model = MakeModel();
  const InvertedFile& f = SmallCollection().inverted_file();
  // term 0 is the most frequent; find a rare term and one shared doc length.
  TermId rare = 0;
  for (TermId t = f.num_terms(); t-- > 0;) {
    if (f.DocFrequency(t) >= 1 && f.DocFrequency(t) <= 3) {
      rare = t;
      break;
    }
  }
  ASSERT_GT(f.DocFrequency(rare), 0u);
  const DocId d = f.list(rare)[0].doc;  // same doc => same length norm
  const double w_frequent = model->Weight(0, Posting{d, 2});
  const double w_rare = model->Weight(rare, Posting{d, 2});
  EXPECT_GT(w_rare, w_frequent);
}

TEST_P(ScoringModelsTest, NameIsStable) {
  auto model = MakeModel();
  EXPECT_EQ(model->name(), std::string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ScoringModelsTest,
                         ::testing::Values("tfidf", "bm25", "lm"));

TEST(ScoredDocTest, OrderingIsDescScoreThenAscDoc) {
  EXPECT_TRUE(ScoredDocLess({1, 2.0}, {2, 1.0}));
  EXPECT_FALSE(ScoredDocLess({2, 1.0}, {1, 2.0}));
  EXPECT_TRUE(ScoredDocLess({1, 1.0}, {2, 1.0}));
  EXPECT_FALSE(ScoredDocLess({2, 1.0}, {1, 1.0}));
}

TEST(Bm25Test, ParametersChangeWeights) {
  auto& file = const_cast<Collection&>(SmallCollection())
                   .mutable_inverted_file();
  auto default_model = MakeBm25(&file);
  auto flat_model = MakeBm25(&file, 0.01, 0.0);  // tf saturates immediately
  TermId t = 0;
  while (file.DocFrequency(t) == 0) ++t;
  const DocId d = file.list(t)[0].doc;
  const double ratio_default = default_model->Weight(t, Posting{d, 10}) /
                               default_model->Weight(t, Posting{d, 1});
  const double ratio_flat = flat_model->Weight(t, Posting{d, 10}) /
                            flat_model->Weight(t, Posting{d, 1});
  EXPECT_GT(ratio_default, ratio_flat);
}

TEST(StatsViewBindingTest, ViewBoundModelsMatchFileBoundModels) {
  // The two binding styles (legacy InvertedFile overloads vs an explicit
  // CollectionStatsView) must produce bit-identical weights — this is what
  // makes catalog scoring comparable to static scoring.
  const InvertedFile& file = SmallCollection().inverted_file();
  InvertedFileStatsView view(&file, /*precompute_cf=*/true);
  const std::pair<ScoringModelKind, const char*> kinds[] = {
      {ScoringModelKind::kTfIdf, "tfidf"},
      {ScoringModelKind::kBm25, "bm25"},
      {ScoringModelKind::kLanguageModel, "lm"},
  };
  for (const auto& [kind, name] : kinds) {
    auto by_view = MakeScoringModel(kind, &view);
    ASSERT_NE(by_view, nullptr);
    EXPECT_EQ(by_view->name(), name);
    std::unique_ptr<ScoringModel> by_file;
    if (kind == ScoringModelKind::kTfIdf) by_file = MakeTfIdf(&file);
    if (kind == ScoringModelKind::kBm25) by_file = MakeBm25(&file);
    if (kind == ScoringModelKind::kLanguageModel) {
      by_file = MakeLanguageModel(&file);
    }
    for (TermId t = 0; t < std::min<size_t>(file.num_terms(), 64); ++t) {
      const PostingList& list = file.list(t);
      for (size_t i = 0; i < list.size(); ++i) {
        EXPECT_EQ(by_view->Weight(t, list[i]), by_file->Weight(t, list[i]))
            << name << " term " << t;
      }
    }
  }
}

/// The statistics TermWeightTest scores under: terms 0 and 1 occur in
/// documents of these lengths; term 2 occurs in none (df = 0, cf = 0).
constexpr uint32_t kGridLengths[] = {1, 2, 7, 30, 150, 151, 999, 4096};

InvertedFile GridFile() {
  InvertedFileBuilder builder(3);
  for (DocId d = 0; d < std::size(kGridLengths); ++d) {
    std::vector<std::pair<TermId, uint32_t>> terms{{1, 1}};
    if (kGridLengths[d] > 1) terms.emplace_back(0, kGridLengths[d] - 1);
    EXPECT_TRUE(builder.AddDocument(d, terms).ok());
  }
  return builder.Build();
}

TEST(TermWeightTest, ForTermIsWeightBitForBitOverATfAndLengthGrid) {
  // Every weight term 2 gets is 0. For every model, ForTerm(t)(tf, dl)
  // must be Weight(t, {d, tf}) to the bit, and both must be the model's
  // formula evaluated per posting, operation for operation, as the
  // reference below spells it out.
  const auto& lengths = kGridLengths;
  const InvertedFile file = GridFile();
  InvertedFileStatsView view(&file, /*precompute_cf=*/true);
  ASSERT_EQ(view.DocFrequency(2), 0u);
  ASSERT_EQ(view.CollectionFrequency(2), 0);

  const double n = static_cast<double>(view.num_docs());
  const double avgdl = view.AverageDocLength();
  const double c = static_cast<double>(view.total_tokens());
  const auto reference = [&](ScoringModelKind kind, TermId t, uint32_t tf_count,
                             uint32_t length) {
    const double tf = static_cast<double>(tf_count);
    const double df = static_cast<double>(view.DocFrequency(t));
    const double dl = static_cast<double>(length);
    switch (kind) {
      case ScoringModelKind::kTfIdf:
        if (df == 0) return 0.0;
        return (1.0 + std::log(tf)) * std::log(1.0 + n / df) / std::sqrt(dl);
      case ScoringModelKind::kBm25: {
        if (df == 0) return 0.0;
        const double k1 = 1.2;
        const double b = 0.75;
        const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
        const double denom = tf + k1 * (1.0 - b + b * dl / avgdl);
        return idf * tf * (k1 + 1.0) / denom;
      }
      case ScoringModelKind::kLanguageModel: {
        const int64_t cf = view.CollectionFrequency(t);
        if (cf == 0) return 0.0;
        const double lambda = 0.15;
        const double p_doc = tf / dl;
        const double p_coll = static_cast<double>(cf) / c;
        return std::log(1.0 + lambda / (1.0 - lambda) * p_doc / p_coll);
      }
    }
    return -1.0;
  };

  const std::pair<ScoringModelKind, const char*> kinds[] = {
      {ScoringModelKind::kTfIdf, "tfidf"},
      {ScoringModelKind::kBm25, "bm25"},
      {ScoringModelKind::kLanguageModel, "lm"},
  };
  for (const auto& [kind, name] : kinds) {
    const auto model = MakeScoringModel(kind, &view);
    for (TermId t = 0; t < 3; ++t) {
      const TermWeight weight = model->ForTerm(t);
      for (DocId d = 0; d < std::size(lengths); ++d) {
        ASSERT_EQ(view.DocLength(d), lengths[d]);
        for (const uint32_t tf : {1u, 2u, 3u, 10u, 255u, 70000u}) {
          const double w = weight(tf, lengths[d]);
          EXPECT_EQ(w, model->Weight(t, Posting{d, tf}))
              << name << " term " << t << " tf " << tf << " dl " << lengths[d];
          EXPECT_EQ(w, reference(kind, t, tf, lengths[d]))
              << name << " term " << t << " tf " << tf << " dl " << lengths[d];
          if (t == 2) EXPECT_EQ(w, 0.0) << name;
        }
      }
    }
  }
}

TEST(TermWeightTest, WeightNeverFallsWithTfNorRisesWithLength) {
  // Exact impact bounds and orders rest on this: for every model and
  // term, the computed weight (floating point included) never falls as
  // tf rises and never rises as the document length rises. The grid
  // takes every tf and length up to 300, then steps of 10% to the
  // largest tf and length the bit-for-bit grid above uses, under the
  // same statistics.
  const InvertedFile file = GridFile();
  InvertedFileStatsView view(&file, /*precompute_cf=*/true);

  const auto grid = [](uint32_t last) {
    std::vector<uint32_t> values;
    for (uint32_t v = 1; v <= 300; ++v) values.push_back(v);
    while (values.back() < last) {
      values.push_back(std::min(last, values.back() + values.back() / 10));
    }
    return values;
  };
  const std::vector<uint32_t> tfs = grid(70000);
  const std::vector<uint32_t> dls = grid(4096);

  for (const ScoringModelKind kind :
       {ScoringModelKind::kTfIdf, ScoringModelKind::kBm25,
        ScoringModelKind::kLanguageModel}) {
    const auto model = MakeScoringModel(kind, &view);
    for (TermId t = 0; t < 3; ++t) {
      const TermWeight weight = model->ForTerm(t);
      for (size_t i = 0; i < tfs.size(); ++i) {
        for (size_t j = 0; j < dls.size(); ++j) {
          const double w = weight(tfs[i], dls[j]);
          if (i + 1 < tfs.size()) {
            ASSERT_LE(w, weight(tfs[i + 1], dls[j]))
                << model->name() << " term " << t << " tf " << tfs[i]
                << " dl " << dls[j];
          }
          if (j + 1 < dls.size()) {
            ASSERT_GE(w, weight(tfs[i], dls[j + 1]))
                << model->name() << " term " << t << " tf " << tfs[i]
                << " dl " << dls[j];
          }
        }
      }
    }
  }
}

TEST(LanguageModelTest, LambdaControlsSmoothing) {
  auto& file = const_cast<Collection&>(SmallCollection())
                   .mutable_inverted_file();
  auto lm_low = MakeLanguageModel(&file, 0.05);
  auto lm_high = MakeLanguageModel(&file, 0.9);
  TermId t = 0;
  while (file.DocFrequency(t) == 0) ++t;
  const Posting& p = file.list(t)[0];
  EXPECT_GT(lm_high->Weight(t, p), lm_low->Weight(t, p));
}

}  // namespace
}  // namespace moa
