// ShardedSnapshot: one consistent read of N catalog shards, and the one
// way a query reads catalog states. ShardedCatalog::Snapshot() builds one
// over all of its shards; IndexCatalog::OpenReadView() builds a one-shard
// snapshot over the catalog's current state and hands out its shard view.
//
// Statistics. A snapshot holds a consistent vector of per-shard
// CatalogStates plus the *global* live statistics aggregated across
// shards. Per-shard read views report the global statistics (df, N,
// avgdl, cf) while routing per-document lookups (DocLength) to the
// shard's own state — a scoring model bound to a shard view therefore
// computes bit-identical weights to a single catalog of the whole
// collection, and df-ordered strategies (max-score) process terms in the
// identical order on every shard. This is what makes the scatter-gather
// top-N merge bit-identical to single-catalog execution for every
// strategy whose reported scores are full deterministic sums. With one
// shard the global statistics are the state's own.
//
// Impact bounds. Per-segment stored max_impacts go stale the moment the
// collection statistics move (they were computed under flush-time df/
// avgdl/N), so no snapshot trusts them. Weights depend on the statistics
// a snapshot scores by, which move whenever any shard mutates — while an
// unchanged shard's CatalogState persists from one snapshot to the next.
// So the snapshot, not the state, owns the bounds: per (shard, term), the
// exact max current weight of the shard's live postings under the
// snapshot's statistics, computed on first use (with the term's impact
// order, below) and shared by every query on this snapshot. Exact bounds
// keep max-score pruning decisions bit-identical to a fresh index of the
// survivors. The per-shard *query* bound — the sum of a query's term
// bounds, the shard-skipping currency of the coordinator — comes from the
// same cache.
//
// Impact orders. Sorted access (the Fagin family, sparse-probe champions)
// reads a term's postings by descending weight, which segments and the
// memtable do not store. The first use of a (shard, term) on a snapshot —
// its bound, which the coordinator asks for every query term before
// planning, or a sorted access — scores the shard's live postings once
// into an ImpactOrder (storage/segment/posting_cursor.h), sorted lazily,
// by CatalogState::ScoreLivePostings under the shard model's TermWeight;
// the bound is the order's greatest weight, so bound and sorted access
// share that one scoring pass. The Fagin family's random access reads the
// same order through its cursor (a binary search on the order's
// doc-ordered entries, which carry the weight), so a probe takes no lock,
// decodes no block and weighs nothing.
// The snapshot caches the order, and with it the bound, for every later
// query. The cache is keyed by term, so a fresh snapshot costs nothing
// until a term is used, holds 16 B per live posting of each term used
// and 4 B more once a cursor has read it (at most one in-memory impact
// order of the collection), and dies with the snapshot.
#ifndef MOA_STORAGE_CATALOG_SHARDED_SNAPSHOT_H_
#define MOA_STORAGE_CATALOG_SHARDED_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/collection_stats.h"
#include "ir/query_gen.h"
#include "ir/scoring.h"
#include "storage/catalog/catalog_state.h"

namespace moa {

class ShardedSnapshot;

/// \brief Per-shard CollectionStatsView: global aggregates, local lengths.
///
/// Strategies running on a shard pass *local* doc ids to the model, so
/// DocLength routes to the shard's state; everything else (df, N, avgdl,
/// cf, token totals) is the cross-shard aggregate, keeping the weight
/// arithmetic — and the df-based term ordering — identical to a single
/// catalog of the whole collection.
class ShardStatsView final : public CollectionStatsView {
 public:
  ShardStatsView(const CatalogStats* global, const CatalogState* state)
      : global_(global), state_(state) {}

  size_t num_terms() const override { return global_->df.size(); }
  size_t num_docs() const override {
    return static_cast<size_t>(global_->num_live_docs);
  }
  uint32_t DocFrequency(TermId t) const override { return global_->df[t]; }
  uint32_t DocLength(DocId local) const override {
    return state_->DocLength(local);
  }
  double AverageDocLength() const override {
    if (global_->num_live_docs == 0) return 0.0;
    return static_cast<double>(global_->total_live_tokens) /
           static_cast<double>(global_->num_live_docs);
  }
  int64_t total_tokens() const override { return global_->total_live_tokens; }
  int64_t CollectionFrequency(TermId t) const override {
    return global_->cf[t];
  }

 private:
  const CatalogStats* global_;
  const CatalogState* state_;
};

/// \brief PostingSource over one shard under global statistics.
///
/// DocFrequency reports the *global* df — strategies that order or gate
/// work by df (max-score's term order, Fagin's accessor construction)
/// must behave identically on every shard; the shard's actual list can be
/// shorter or empty, which cursors handle naturally (their size() is the
/// shard's). MaxImpact serves the snapshot-owned per-shard bound and
/// OpenImpactCursor the snapshot-owned impact order (see file comment).
/// Cursors and random access speak shard-local doc ids.
class ShardReadView final : public PostingSource {
 public:
  ShardReadView(const ShardedSnapshot* snapshot, size_t shard,
                const CatalogState* state)
      : snapshot_(snapshot), shard_(shard), state_(state) {}

  size_t num_terms() const override;
  size_t num_docs() const override {
    return static_cast<size_t>(state_->doc_space());
  }
  uint32_t DocFrequency(TermId t) const override;
  bool HasImpacts(TermId /*t*/) const override { return true; }
  double MaxImpact(TermId t) const override;
  std::unique_ptr<PostingCursor> OpenCursor(TermId t) const override;
  /// Serves the snapshot's cached order (ShardedSnapshot::ShardImpactOrder),
  /// scored under the shard's model, for sorted and random access alike
  /// (see file comment); `model` must have the same arithmetic and is not
  /// consulted.
  std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const override;

  /// The shard's state, which this view reads.
  const CatalogState& state() const { return *state_; }
  /// The shard's scoring model (ShardedSnapshot::shard_model), bound to
  /// the snapshot's statistics.
  const ScoringModel* model() const;

 private:
  const ShardedSnapshot* snapshot_;
  size_t shard_;
  const CatalogState* state_;
};

/// Kept only because the benchmark harness (perfbench/moabench.cc) names it.
using CatalogReadView = ShardReadView;

/// \brief One consistent snapshot across all shards.
///
/// Owns the per-shard serving bundles (stats view + scoring model + read
/// view + impact-order cache, which carries the bounds) and the aggregated
/// global statistics. Immutable except for the internally synchronized
/// caches; shared by shared_ptr like CatalogState.
class ShardedSnapshot {
 public:
  ShardedSnapshot(std::vector<std::shared_ptr<const CatalogState>> states,
                  ScoringModelKind scoring);
  ~ShardedSnapshot();

  size_t num_shards() const { return entries_.size(); }
  /// Strictly monotone across mutations (sum of per-shard versions).
  uint64_t version() const { return version_; }
  /// Aggregated live statistics (the "global-stats view" every shard
  /// scores under).
  const CatalogStats& stats() const { return global_; }
  /// Global doc-id space bound: every mapped global id is < doc_space().
  uint64_t doc_space() const;

  const CatalogState& shard_state(size_t s) const;
  /// The shard's PostingSource (local ids, global df, snapshot bounds).
  const ShardReadView& shard_source(size_t s) const;
  /// The shard's scoring model, bound to the global stats view.
  const ScoringModel& shard_model(size_t s) const;
  /// The shard's snapshot-scoped sparse cache (postings only — safe to
  /// reuse the state's own cache across global-stat changes).
  SparseIndexCache& shard_sparse_cache(size_t s) const;
  /// Raw composition of shard s, for per-shard planner storage inputs.
  const CatalogComposition& shard_composition(size_t s) const;

  /// Exact max current weight of term t's live postings in shard s under
  /// the snapshot's global statistics. Build-once per (shard, term): the
  /// greatest weight of ShardImpactOrder(s, t), which its first use builds.
  double ShardTermBound(size_t s, TermId t) const;
  /// Upper bound on any single document's score for `query` in shard s:
  /// the sum of the query terms' shard bounds. This is the coordinator's
  /// shard-skipping currency.
  double ShardQueryBound(size_t s, const Query& query) const;
  /// Term t's live postings in shard s (local ids) in impact order under
  /// the shard's model. Built on first use, by the bound or by sorted
  /// access — scoring every live posting once, outside the cache lock;
  /// concurrent first users may both build, and the first insert wins —
  /// then shared by every query on this snapshot. The reference is the
  /// cache's own entry, valid while the snapshot lives; a reader that
  /// only looks (the bound) takes no reference count.
  const std::shared_ptr<const ImpactOrder>& ShardImpactOrder(
      size_t s, TermId t) const;

  // Global-id document access (routes to the owning shard).
  uint32_t DocLength(DocId global) const;
  bool IsDeleted(DocId global) const;
  const DocTerms& TermsOf(DocId global) const;
  /// Live global ids, ascending.
  std::vector<DocId> LiveDocIds() const;

  /// Human-readable per-shard composition, e.g.
  /// "sharded(2): [shard 0: catalog v3: ...; shard 1: catalog v2: ...]";
  /// a one-shard snapshot describes its shard alone ("catalog v3: ...").
  std::string Describe() const;

 private:
  struct ShardEntry;

  std::vector<std::unique_ptr<ShardEntry>> entries_;
  CatalogStats global_;
  uint64_t version_ = 0;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_SHARDED_SNAPSHOT_H_
