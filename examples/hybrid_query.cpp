// Integrated content + alphanumeric query — the workload the paper's
// abstract names as its main research interest. Ranks documents by content
// score while restricting to an attribute range (a "publication date"),
// and shows the filter-first / rank-first plan crossover.
#include <cstdio>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/hybrid.h"

using namespace moa;

int main() {
  DatabaseConfig config;
  config.collection.num_docs = 15000;
  config.collection.vocabulary = 25000;
  config.collection.seed = 808;
  auto db = MmDatabase::Open(config).ValueOrDie();

  // The database's posting storage and scoring model, as the top-N
  // operators read them.
  const ExecContext context = db->exec_context();

  // Synthetic per-document attribute: "days since epoch" in [0, 100).
  Rng rng(404);
  std::vector<double> date(context.postings->num_docs());
  for (auto& v : date) v = rng.NextDouble() * 100.0;

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 1;
  qconfig.terms_per_query = 4;
  qconfig.distribution = QueryTermDistribution::kMixed;
  Query q = GenerateQueries(db->collection(), qconfig).ValueOrDie()[0];

  std::printf("query: SELECT doc ORDER BY score DESC WHERE lo<=date<=hi "
              "STOP AFTER 10\n\n");
  std::printf("%-22s %-14s %-12s %-10s %-8s\n", "predicate", "auto plan",
              "work", "restarts", "results");
  for (auto [lo, hi] : {std::pair{0.0, 100.0}, {25.0, 75.0}, {40.0, 45.0},
                        {10.0, 10.5}}) {
    AttributePredicate pred{lo, hi};
    HybridOptions opts;  // kAuto
    const HybridPlan plan = ChooseHybridPlan(date, pred, opts);
    auto r = HybridTopN(*context.postings, *context.model, q, date, pred, 10,
                        opts)
                 .ValueOrDie();
    char label[64];
    std::snprintf(label, sizeof(label), "[%.1f, %.1f]", lo, hi);
    std::printf("%-22s %-14s %-12.0f %-10d %-8zu\n", label,
                plan == HybridPlan::kRankFirst ? "rank-first" : "filter-first",
                r.stats.cost.Scalar(), r.stats.restarts, r.items.size());
  }

  std::printf(
      "\nwide predicates -> rank-first (attribute probed only for the "
      "ranked prefix);\nnarrow predicates -> filter-first (avoid fruitless "
      "rank-then-filter restarts).\n");
  return 0;
}
