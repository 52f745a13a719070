// Pretty-printing of expressions, rewrite traces and plan decisions.
#ifndef MOA_OPTIMIZER_EXPLAIN_H_
#define MOA_OPTIMIZER_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "algebra/expr.h"
#include "obs/query_trace.h"
#include "optimizer/rule.h"
#include "optimizer/strategy_planner.h"

namespace moa {

/// Indented multi-line rendering of an expression tree with derived order
/// annotations per node.
std::string ExplainExpr(const ExprPtr& expr,
                        const ExtensionRegistry& registry =
                            ExtensionRegistry::Default());

/// Renders a rewrite trace ("rule1 -> rule2 -> ...").
std::string ExplainTrace(const RewriteTrace& trace);

/// \brief Structured result of MmDatabase::ExplainSearch.
///
/// Everything the old text output said, as data: the full planning
/// decision (every candidate with predicted cost, predicted quality and
/// reject reason), what storage the plan reads, the fragmentation the
/// fragment strategies would use, and the block-level behavior of a
/// best-effort execution. ToString() renders the classic multi-line text
/// ("chosen: ...", "alternatives (cheapest first): ...", "storage: ...",
/// "impact orders: ...", "blocks: ...").
struct ExplainReport {
  PlanDecision decision;
  /// Payload of the `storage:` line (what the plan will read).
  std::string storage;
  /// Payload of the `fragmentation:` line; empty = line omitted (no
  /// fragment strategy involved).
  std::string fragmentation;
  /// Block-level counters from actually running the chosen strategy;
  /// has_blocks = false when that execution was not possible.
  bool has_blocks = false;
  int64_t blocks_decoded = 0;
  int64_t blocks_skipped = 0;
  /// Shard scatter-gather counters of the same best-effort execution;
  /// has_shards = false over unsharded storage.
  bool has_shards = false;
  int64_t shards_visited = 0;
  int64_t shards_skipped = 0;
  /// Postings the explained query scored into impact orders
  /// (CostCounters::impact_postings): on a catalog, planning asks for
  /// every query term's bound, which scores the term's order once per
  /// snapshot, so the count comes from planning, not from the best-effort
  /// execution. 0 over materialized in-memory orders or when the snapshot
  /// had already cached every order, so a second explain on the same
  /// snapshot reads 0.
  int64_t impact_postings = 0;
  /// Stage trace of the same best-effort execution: per-stage wall time and
  /// CostCounters deltas plus the planner's predicted scalar for comparison
  /// against trace.observed_scalar(). has_trace = false when the execution
  /// failed or when observability is compiled out (MOA_OBS=OFF).
  bool has_trace = false;
  obs::QueryTraceData trace;

  std::string ToString() const;
};

}  // namespace moa

#endif  // MOA_OPTIMIZER_EXPLAIN_H_
