// Retrieval scoring models: per-term document weights w(t, d).
//
// All models are *monotone aggregations*: score(d) = sum over query terms of
// w(t, d), with w >= 0. Monotonicity is what makes Fagin-style upper/lower
// bound administration safe (a document's score can only grow as more terms
// are seen), which the paper's "State of the Art" section builds on.
//
// Models read collection statistics through CollectionStatsView
// (ir/collection_stats.h), not from a concrete storage structure. Bind a
// model to an InvertedFile for the classic static path, or to a live view
// (e.g. the IndexCatalog's) whose statistics evolve with adds and deletes;
// the weight arithmetic is identical either way, so equal statistics give
// bit-identical weights.
//
// One formula per model. A model's ForTerm(t) reads what the term and the
// statistics fix — the idf (or the language model's cf/C), k1, b and the
// average document length (or lambda) — into a TermWeight, whose
// operator()(tf, doc_length) is the model's formula and its only copy.
// Weight(t, p) is ForTerm(t)(p.tf, DocLength(p.doc)), so a pass that
// scores many postings of one term (an impact order, a block-max scan)
// reads the term's statistics once and still computes Weight's bits.
#ifndef MOA_IR_SCORING_H_
#define MOA_IR_SCORING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/collection_stats.h"
#include "storage/inverted_file.h"

namespace moa {

/// \brief One entry of a ranked retrieval result.
struct ScoredDoc {
  DocId doc;
  double score;

  friend bool operator==(const ScoredDoc&, const ScoredDoc&) = default;
};

/// Deterministic ordering for rankings: by descending score, ties by
/// ascending doc id (keeps every algorithm's output comparable).
inline bool ScoredDocLess(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Scoring model choice (engine configuration and catalog serving).
enum class ScoringModelKind { kTfIdf, kBm25, kLanguageModel };

/// \brief One term's weight function under one model and one set of
/// statistics: the model's formula with every constant the term and the
/// statistics fix already read (see the file comment). A small value;
/// ScoringModel::ForTerm makes it.
struct TermWeight {
  /// kZero serves a term no live document contains (df = 0; cf = 0 for
  /// the language model): every weight is 0. The others are the models'
  /// formulas, with the fields below (MakeTfIdf, MakeBm25 and
  /// MakeLanguageModel give their idf and p_coll).
  enum class Formula : uint8_t { kZero, kTfIdf, kBm25, kLanguageModel };

  Formula formula = Formula::kZero;
  double idf = 0.0;     ///< tf-idf, BM25
  double k1 = 0.0;      ///< BM25
  double b = 0.0;       ///< BM25
  double avgdl = 0.0;   ///< BM25
  double p_coll = 0.0;  ///< language model: cf / C
  double lambda = 0.0;  ///< language model

  /// The weight of a posting with term frequency `tf` in a document of
  /// `doc_length` tokens.
  double operator()(uint32_t tf, uint32_t doc_length) const;
};

/// \brief Interface of a scoring model bound to one statistics view.
class ScoringModel {
 public:
  virtual ~ScoringModel() = default;

  /// Term t's weight function under the view's current statistics.
  virtual TermWeight ForTerm(TermId t) const = 0;

  /// Weight contribution of term `t` occurring as posting `p`.
  double Weight(TermId t, const Posting& p) const {
    return ForTerm(t)(p.tf, stats().DocLength(p.doc));
  }

  /// Model name for Explain output.
  virtual std::string name() const = 0;

  /// The statistics view the model reads.
  virtual const CollectionStatsView& stats() const = 0;
};

/// Classic TF-IDF with log-saturated tf and document-length dampening.
///   w = (1 + ln tf) * idf / sqrt(dl),  idf = ln(1 + N/df)
std::unique_ptr<ScoringModel> MakeTfIdf(const InvertedFile* file);
std::unique_ptr<ScoringModel> MakeTfIdf(const CollectionStatsView* stats);

/// Okapi BM25 (k1, b tunable). The average document length is sampled from
/// the view at construction, so construct the model *after* the statistics
/// it should score under (per query, for a mutable catalog).
///   w = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)),
///   idf = ln(1 + (N - df + 0.5) / (df + 0.5))
std::unique_ptr<ScoringModel> MakeBm25(const InvertedFile* file,
                                       double k1 = 1.2, double b = 0.75);
std::unique_ptr<ScoringModel> MakeBm25(const CollectionStatsView* stats,
                                       double k1 = 1.2, double b = 0.75);

/// Hiemstra-style language model with linear (Jelinek-Mercer) smoothing —
/// the model used by the mi*RR*or system at TREC [VH99].
///   w = ln(1 + lambda/(1-lambda) * (tf/dl) / p_coll),  p_coll = cf/C
/// The InvertedFile overload precomputes collection frequencies; the view
/// overload reads CollectionFrequency from the view (which must be O(1),
/// as the catalog's is).
std::unique_ptr<ScoringModel> MakeLanguageModel(const InvertedFile* file,
                                                double lambda = 0.15);
std::unique_ptr<ScoringModel> MakeLanguageModel(
    const CollectionStatsView* stats, double lambda = 0.15);

/// Factory over the kind enum with default parameters; `stats` is borrowed
/// and must outlive the model.
std::unique_ptr<ScoringModel> MakeScoringModel(ScoringModelKind kind,
                                               const CollectionStatsView* stats);
/// InvertedFile-bound factory (same defaults); `file` is borrowed.
std::unique_ptr<ScoringModel> MakeScoringModel(ScoringModelKind kind,
                                               const InvertedFile* file);

}  // namespace moa

#endif  // MOA_IR_SCORING_H_
