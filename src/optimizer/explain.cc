#include "optimizer/explain.h"

#include <sstream>

#include "exec/registry.h"
#include "optimizer/order_property.h"

namespace moa {
namespace {

void Render(const ExprPtr& expr, const ExtensionRegistry& registry,
            int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  if (expr->kind() == Expr::Kind::kConst) {
    const Value& v = expr->constant();
    if (v.is_collection() && v.Elements().size() > 16) {
      *os << ValueKindName(v.kind()) << "<" << v.Elements().size()
          << " elems>";
    } else {
      *os << v.ToString();
    }
  } else {
    *os << expr->op();
  }
  const OrderInfo order = DeriveOrder(expr, registry);
  if (order.sorted) {
    *os << "   [sorted]";
  } else if (order.physically_sorted) {
    *os << "   [physically-sorted]";
  }
  *os << "\n";
  if (expr->kind() == Expr::Kind::kApply) {
    for (const auto& a : expr->args()) {
      Render(a, registry, depth + 1, os);
    }
  }
}

}  // namespace

std::string ExplainExpr(const ExprPtr& expr,
                        const ExtensionRegistry& registry) {
  std::ostringstream os;
  Render(expr, registry, 0, &os);
  return os.str();
}

std::string ExplainTrace(const RewriteTrace& trace) {
  std::ostringstream os;
  if (trace.fired.empty()) {
    os << "(no rules fired)";
    return os.str();
  }
  for (size_t i = 0; i < trace.fired.size(); ++i) {
    if (i > 0) os << " -> ";
    os << trace.fired[i];
  }
  return os.str();
}

std::string ExplainReport::ToString() const {
  const StrategyRegistry& registry = StrategyRegistry::Global();
  std::ostringstream os;
  os << "chosen: " << StrategyName(decision.strategy);
  if (decision.forced) {
    os << " (forced)";
  } else {
    os << " (planned: quality_target=" << decision.quality_target
       << ", predicted_quality=" << decision.chosen.predicted_quality << ")";
  }
  os << "\n";
  os << "alternatives (cheapest first):\n";
  for (const PlanCandidate& cand : decision.candidates) {
    os << "  " << StrategyName(cand.strategy) << ": ";
    if (cand.costed) {
      os << "scalar=" << cand.scalar << " " << cand.predicted.ToString();
      if (cand.predicted_quality < 1.0) {
        os << " quality=" << cand.predicted_quality;
      }
    } else {
      os << "(uncosted)";
    }
    os << (cand.safe ? " [safe]" : " [unsafe]");
    const StrategyRegistry::Entry* entry = registry.Find(cand.strategy);
    if (entry != nullptr && entry->accepts_options != kNoStrategyOptions) {
      os << " [options: " << ExecOptionsVariantName(entry->accepts_options)
         << "]";
    }
    if (cand.reject != PlanReject::kNone) {
      os << " — " << PlanRejectName(cand.reject);
    }
    os << "\n";
  }
  os << "storage: " << storage << "\n";
  if (!fragmentation.empty()) os << "fragmentation: " << fragmentation << "\n";
  if (has_blocks) {
    os << "blocks: decoded " << observed.blocks_decoded << ", skipped "
       << observed.blocks_skipped
       << " (block-directory skips + block-max pruning; 0/0 over "
          "blockless in-memory lists)\n";
    os << "impact orders: scored " << observed.impact_postings
       << " postings, layered " << observed.layer_postings
       << " postings (0 = sorted access read materialized or cached "
          "orders and layers)\n";
  }
  if (observed.shards_visited != 0 || observed.shards_skipped != 0) {
    os << "shards: visited " << observed.shards_visited << ", skipped "
       << observed.shards_skipped << " (aggregate impact-bound pruning)\n";
  }
  if (has_blocks) {
    os << "trace: predicted_scalar=" << trace.predicted_scalar
       << " observed_scalar=" << trace.observed_scalar()
       << " wall=" << trace.wall_millis << "ms\n";
    for (const obs::TraceSpanData& span : trace.spans) {
      os << "  stage " << span.stage << ": wall=" << span.wall_millis
         << "ms scalar=" << span.cost.Scalar() << "\n";
    }
  }
  return os.str();
}

}  // namespace moa
