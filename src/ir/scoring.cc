#include "ir/scoring.h"

#include <cmath>
#include <utility>

namespace moa {
namespace {

/// Shared base: models either borrow a caller-owned view or own an
/// InvertedFileStatsView adapter built from the legacy InvertedFile
/// overloads. ForTerm only ever reads stats(), so both binding styles are
/// bit-identical on equal statistics.
class StatsBoundModel : public ScoringModel {
 public:
  explicit StatsBoundModel(const CollectionStatsView* stats) : stats_(stats) {}
  StatsBoundModel(const InvertedFile* file, bool precompute_cf)
      : owned_(std::make_unique<InvertedFileStatsView>(file, precompute_cf)),
        stats_(owned_.get()) {}

  const CollectionStatsView& stats() const override { return *stats_; }

 private:
  std::unique_ptr<CollectionStatsView> owned_;

 protected:
  const CollectionStatsView* stats_;
};

class TfIdfModel final : public StatsBoundModel {
 public:
  using StatsBoundModel::StatsBoundModel;

  TermWeight ForTerm(TermId t) const override {
    const double df = static_cast<double>(stats_->DocFrequency(t));
    if (df == 0) return TermWeight{};
    const double n = static_cast<double>(stats_->num_docs());
    return TermWeight{.formula = TermWeight::Formula::kTfIdf,
                      .idf = std::log(1.0 + n / df)};
  }

  std::string name() const override { return "tfidf"; }
};

class Bm25Model final : public StatsBoundModel {
 public:
  Bm25Model(const CollectionStatsView* stats, double k1, double b)
      : StatsBoundModel(stats), k1_(k1), b_(b),
        avgdl_(stats_->AverageDocLength()) {}
  Bm25Model(const InvertedFile* file, double k1, double b)
      : StatsBoundModel(file, /*precompute_cf=*/false), k1_(k1), b_(b),
        avgdl_(stats_->AverageDocLength()) {}

  TermWeight ForTerm(TermId t) const override {
    const double df = static_cast<double>(stats_->DocFrequency(t));
    if (df == 0) return TermWeight{};
    const double n = static_cast<double>(stats_->num_docs());
    return TermWeight{.formula = TermWeight::Formula::kBm25,
                      .idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5)),
                      .k1 = k1_,
                      .b = b_,
                      .avgdl = avgdl_};
  }

  std::string name() const override { return "bm25"; }

 private:
  double k1_, b_, avgdl_;
};

class LanguageModel final : public StatsBoundModel {
 public:
  LanguageModel(const CollectionStatsView* stats, double lambda)
      : StatsBoundModel(stats), lambda_(lambda) {}
  LanguageModel(const InvertedFile* file, double lambda)
      : StatsBoundModel(file, /*precompute_cf=*/true), lambda_(lambda) {}

  TermWeight ForTerm(TermId t) const override {
    const int64_t cf = stats_->CollectionFrequency(t);
    if (cf == 0) return TermWeight{};
    const double c = static_cast<double>(stats_->total_tokens());
    return TermWeight{.formula = TermWeight::Formula::kLanguageModel,
                      .p_coll = static_cast<double>(cf) / c,
                      .lambda = lambda_};
  }

  std::string name() const override { return "lm"; }

 private:
  double lambda_;
};

}  // namespace

double TermWeight::operator()(uint32_t tf_count, uint32_t doc_length) const {
  const double tf = static_cast<double>(tf_count);
  const double dl = static_cast<double>(doc_length);
  switch (formula) {
    case Formula::kZero:
      return 0.0;
    case Formula::kTfIdf:
      return (1.0 + std::log(tf)) * idf / std::sqrt(dl);
    case Formula::kBm25: {
      const double denom = tf + k1 * (1.0 - b + b * dl / avgdl);
      return idf * tf * (k1 + 1.0) / denom;
    }
    case Formula::kLanguageModel: {
      const double p_doc = tf / dl;
      return std::log(1.0 + lambda / (1.0 - lambda) * p_doc / p_coll);
    }
  }
  return 0.0;
}

std::unique_ptr<ScoringModel> MakeTfIdf(const InvertedFile* file) {
  return std::make_unique<TfIdfModel>(file, /*precompute_cf=*/false);
}

std::unique_ptr<ScoringModel> MakeTfIdf(const CollectionStatsView* stats) {
  return std::make_unique<TfIdfModel>(stats);
}

std::unique_ptr<ScoringModel> MakeBm25(const InvertedFile* file, double k1,
                                       double b) {
  return std::make_unique<Bm25Model>(file, k1, b);
}

std::unique_ptr<ScoringModel> MakeBm25(const CollectionStatsView* stats,
                                       double k1, double b) {
  return std::make_unique<Bm25Model>(stats, k1, b);
}

std::unique_ptr<ScoringModel> MakeLanguageModel(const InvertedFile* file,
                                                double lambda) {
  return std::make_unique<LanguageModel>(file, lambda);
}

std::unique_ptr<ScoringModel> MakeLanguageModel(
    const CollectionStatsView* stats, double lambda) {
  return std::make_unique<LanguageModel>(stats, lambda);
}

std::unique_ptr<ScoringModel> MakeScoringModel(
    ScoringModelKind kind, const CollectionStatsView* stats) {
  switch (kind) {
    case ScoringModelKind::kTfIdf:
      return MakeTfIdf(stats);
    case ScoringModelKind::kBm25:
      return MakeBm25(stats);
    case ScoringModelKind::kLanguageModel:
      return MakeLanguageModel(stats);
  }
  return nullptr;
}

std::unique_ptr<ScoringModel> MakeScoringModel(ScoringModelKind kind,
                                               const InvertedFile* file) {
  switch (kind) {
    case ScoringModelKind::kTfIdf:
      return MakeTfIdf(file);
    case ScoringModelKind::kBm25:
      return MakeBm25(file);
    case ScoringModelKind::kLanguageModel:
      return MakeLanguageModel(file);
  }
  return nullptr;
}

}  // namespace moa
