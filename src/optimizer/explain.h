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
/// fragment strategies would use, and the work of the explained run.
/// ToString() renders the classic multi-line text ("chosen: ...",
/// "alternatives (cheapest first): ...", "storage: ...", "blocks: ...",
/// "impact orders: ...", "shards: ...", "trace: ...").
struct ExplainReport {
  PlanDecision decision;
  /// Payload of the `storage:` line (what the plan will read).
  std::string storage;
  /// Payload of the `fragmentation:` line; empty = line omitted (no
  /// fragment strategy involved).
  std::string fragmentation;
  /// True when the plan executed; false when the chosen strategy cannot
  /// run here, and `observed` and `trace` stay empty.
  bool has_blocks = false;
  /// The explained run's CostCounters — what Search reports for the same
  /// query on the same snapshot. Its block counters fill the `blocks:`
  /// line (compressed blocks decoded vs skipped), its shard counters the
  /// `shards:` line (omitted over unsharded storage), and its
  /// impact_postings and layer_postings the `impact orders:` line: the
  /// postings the run's impact orders scored and the postings its first
  /// uses of (segment, term) pairs grouped into dominance layers, the
  /// bounds planning asked for included — 0 over materialized in-memory
  /// orders or when the snapshot had already emitted what the run read and
  /// the segments had built their layers, so a second explain on the same
  /// snapshot reads 0 for both.
  CostCounters observed;
  /// Stage trace of the explained run (set with has_blocks): per-stage
  /// wall time and CostCounters deltas plus the planner's predicted scalar
  /// for comparison against trace.observed_scalar().
  obs::QueryTraceData trace;

  std::string ToString() const;
};

}  // namespace moa

#endif  // MOA_OPTIMIZER_EXPLAIN_H_
