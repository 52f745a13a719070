// ExecContext: everything a physical strategy needs to run.
//
// The engine (or a bench with its own fragmentation / sparse cache) fills
// one of these and hands it to the StrategyRegistry; executors never reach
// back into MmDatabase. Work accounting flows through the thread-local
// CostTicker: the registry wraps every execution in a CostScope, so
// TopNResult.stats.cost is populated even for operators that do not keep
// their own frame.
//
// Concurrency contract: one ExecContext (or copies of it) may be used from
// many threads at once — this is what MmDatabase::SearchBatch does. The
// posting storage, scoring model and fragmentation are borrowed
// *read-only* (const) and must not be mutated while executions are in
// flight; the sparse cache is the only shared mutable state and
// synchronizes internally (build-once / read-many, see
// storage/sparse_index_cache.h). When the engine serves a mutable index
// (the IndexCatalog), each query's context carries a shared_ptr snapshot
// of the storage it reads (`postings_owner`), so in-flight executions
// keep their storage alive across concurrent mutations.
#ifndef MOA_EXEC_EXEC_CONTEXT_H_
#define MOA_EXEC_EXEC_CONTEXT_H_

#include <memory>

#include "common/cost_ticker.h"
#include "common/status.h"
#include "ir/scoring.h"
#include "storage/fragmentation.h"
#include "storage/segment/posting_cursor.h"
#include "storage/sparse_index_cache.h"

namespace moa {

/// \brief Borrowed execution state shared by all strategy executors.
///
/// All raw pointers are non-owning; `postings` and `model` are required,
/// the rest are optional capabilities a strategy may demand via
/// Validate().
struct ExecContext {
  /// Representation-agnostic posting storage every executor streams from:
  /// the in-memory file through an InMemoryPostingSource, or a
  /// multi-segment catalog snapshot.
  const PostingSource* postings = nullptr;
  const ScoringModel* model = nullptr;
  /// Step-1 fragmentation; required by fragment strategies only.
  const Fragmentation* fragmentation = nullptr;
  /// Shared sparse-index cache for kSparseProbe (filled on demand, safe
  /// for concurrent executions; nullptr makes the probe build throw-away
  /// indexes).
  SparseIndexCache* sparse_cache = nullptr;
  /// Optional owner of `postings` (and anything it depends on — model,
  /// statistics view, catalog state). Copying the context copies the
  /// shared_ptr, so a query holding any copy keeps its storage snapshot
  /// alive even if the engine mutates the catalog mid-flight. Null for
  /// purely borrowed static contexts.
  std::shared_ptr<const void> postings_owner;

  /// OK iff the required pieces are present.
  Status Validate(bool needs_fragmentation = false) const {
    if (postings == nullptr) {
      return Status::FailedPrecondition(
          "ExecContext: missing posting storage");
    }
    if (model == nullptr) {
      return Status::FailedPrecondition("ExecContext: missing scoring model");
    }
    if (needs_fragmentation && fragmentation == nullptr) {
      return Status::FailedPrecondition("ExecContext: missing fragmentation");
    }
    return Status::OK();
  }
};

}  // namespace moa

#endif  // MOA_EXEC_EXEC_CONTEXT_H_
