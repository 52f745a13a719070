// The index lifecycle end to end: a database that starts as a generated
// static collection, turns dynamic on the first mutation, and then lives
// through ingest → flush → delete → merge while serving queries the
// whole time.
//
//   $ ./example_index_lifecycle [catalog-dir]
//
// Prints the catalog composition (Explain's storage line) after every
// lifecycle step, and shows that a deleted document disappears from
// results the moment its tombstone publishes — with collection
// statistics tracking the survivors exactly.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "ir/query_gen.h"

using namespace moa;

namespace {

DocTerms SynthDoc(Rng& rng, uint32_t vocab) {
  std::map<TermId, uint32_t> terms;
  while (terms.size() < 30) {
    terms.emplace(static_cast<TermId>(rng.Uniform(vocab)),
                  1 + static_cast<uint32_t>(rng.Uniform(3)));
  }
  return DocTerms(terms.begin(), terms.end());
}

void ShowStorage(MmDatabase& db, const Query& q, const char* stage) {
  // The structured report carries the storage description (and the
  // planner's choice over it) as fields — no text scraping needed.
  QueryRequest request;
  request.query = q;
  auto report = db.ExplainSearch(request);
  if (report.ok()) {
    std::printf("[%s]\n  storage: %s\n  planned: %s\n", stage,
                report.ValueOrDie().storage.c_str(),
                StrategyName(report.ValueOrDie().decision.strategy));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "example_catalog")
                     .string();
  std::filesystem::remove_all(dir);

  DatabaseConfig config;
  config.collection.num_docs = 5000;
  config.collection.vocabulary = 8000;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 4711;
  config.catalog_dir = dir;
  auto opened = MmDatabase::Open(config);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  MmDatabase& db = *opened.ValueOrDie();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 1;
  qconfig.terms_per_query = 4;
  qconfig.seed = 7;
  const Query query =
      GenerateQueries(db.collection(), qconfig).ValueOrDie()[0];

  // 1. Ingest: the first mutation seeds the catalog with the generated
  //    collection, then buffers new documents in the memtable.
  Rng rng(2026);
  std::vector<DocTerms> fresh;
  for (int i = 0; i < 1000; ++i) fresh.push_back(SynthDoc(rng, 8000));
  const DocId first = db.AddDocuments(fresh).ValueOrDie().front();
  std::printf("ingested %zu docs (first new id %u); live docs: %llu\n",
              fresh.size(), first,
              static_cast<unsigned long long>(
                  db.catalog()->Snapshot()->stats().num_live_docs));
  ShowStorage(db, query, "after ingest");

  // 2. Flush: memtable becomes an immutable segment, atomically published
  //    through the manifest.
  if (Status s = db.Flush(); !s.ok()) {
    std::fprintf(stderr, "flush: %s\n", s.ToString().c_str());
    return 1;
  }
  ShowStorage(db, query, "after flush");

  // 3. Delete: the top document of our query vanishes immediately.
  auto before = db.Search(QueryRequest{query});
  if (before.ok() && !before.ValueOrDie().top.items.empty()) {
    const DocId victim = before.ValueOrDie().top.items[0].doc;
    if (Status s = db.DeleteDocument(victim); !s.ok()) {
      std::fprintf(stderr, "delete: %s\n", s.ToString().c_str());
      return 1;
    }
    auto after = db.Search(QueryRequest{query});
    std::printf("deleted doc %u; it %s the top-10 now\n", victim,
                after.ok() && !after.ValueOrDie().top.items.empty() &&
                        after.ValueOrDie().top.items[0].doc == victim
                    ? "STILL LEADS (bug!)"
                    : "is gone from");
  }
  ShowStorage(db, query, "after delete");

  // 4. More ingest + flush -> multiple segments; then merge compacts
  //    everything, dropping tombstones and reclaiming ids.
  std::vector<DocTerms> more;
  for (int i = 0; i < 500; ++i) more.push_back(SynthDoc(rng, 8000));
  db.AddDocuments(more).ValueOrDie();
  if (Status s = db.Flush(); !s.ok()) return 1;
  ShowStorage(db, query, "two segments");
  auto merged = db.Merge();
  if (!merged.ok()) {
    std::fprintf(stderr, "merge: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  std::printf("merged %zu segments into one\n", merged.ValueOrDie());
  ShowStorage(db, query, "after merge");

  auto final_result = db.Search(QueryRequest{query});
  if (final_result.ok()) {
    std::printf("final top-3 (strategy %s):\n",
                StrategyName(final_result.ValueOrDie().strategy));
    const auto& items = final_result.ValueOrDie().top.items;
    for (size_t i = 0; i < items.size() && i < 3; ++i) {
      std::printf("  doc %-8u score %.5f\n", items[i].doc, items[i].score);
    }
  }
  return 0;
}
