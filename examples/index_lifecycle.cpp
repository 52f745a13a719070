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
// statistics tracking the survivors exactly. Exits 1 when any step fails
// or the deleted document still leads, so it doubles as a smoke test.
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

int Fail(const char* step, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", step, status.ToString().c_str());
  return 1;
}

bool ShowStorage(MmDatabase& db, const Query& q, const char* stage) {
  // The structured report carries the storage description (and the
  // planner's choice over it) as fields — no text scraping needed.
  QueryRequest request;
  request.query = q;
  auto report = db.ExplainSearch(request);
  if (!report.ok()) {
    Fail("explain", report.status());
    return false;
  }
  std::printf("[%s]\n  storage: %s\n  planned: %s\n", stage,
              report.ValueOrDie().storage.c_str(),
              StrategyName(report.ValueOrDie().decision.strategy));
  return true;
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
  if (!opened.ok()) return Fail("open", opened.status());
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
  auto ingested = db.AddDocuments(fresh);
  if (!ingested.ok()) return Fail("ingest", ingested.status());
  std::printf("ingested %zu docs (first new id %u); live docs: %llu\n",
              fresh.size(), ingested.ValueOrDie().front(),
              static_cast<unsigned long long>(
                  db.sharded_catalog()->Snapshot()->stats().num_live_docs));
  if (!ShowStorage(db, query, "after ingest")) return 1;

  // 2. Flush: memtable becomes an immutable segment, atomically published
  //    through the manifest.
  if (Status s = db.Flush(); !s.ok()) return Fail("flush", s);
  if (!ShowStorage(db, query, "after flush")) return 1;

  // 3. Delete: the top document of our query vanishes immediately.
  auto before = db.Search(QueryRequest{query});
  if (!before.ok()) return Fail("search", before.status());
  if (!before.ValueOrDie().top.items.empty()) {
    const DocId victim = before.ValueOrDie().top.items[0].doc;
    if (Status s = db.DeleteDocument(victim); !s.ok()) {
      return Fail("delete", s);
    }
    auto after = db.Search(QueryRequest{query});
    if (!after.ok()) return Fail("search", after.status());
    const auto& items = after.ValueOrDie().top.items;
    if (!items.empty() && items[0].doc == victim) {
      std::printf("deleted doc %u; it STILL LEADS (bug!)\n", victim);
      return 1;
    }
    std::printf("deleted doc %u; it is gone from the top-10 now\n", victim);
  }
  if (!ShowStorage(db, query, "after delete")) return 1;

  // 4. More ingest + flush -> multiple segments; then merge compacts
  //    everything, dropping tombstones and reclaiming ids.
  std::vector<DocTerms> more;
  for (int i = 0; i < 500; ++i) more.push_back(SynthDoc(rng, 8000));
  if (auto r = db.AddDocuments(more); !r.ok()) {
    return Fail("ingest", r.status());
  }
  if (Status s = db.Flush(); !s.ok()) return Fail("flush", s);
  if (!ShowStorage(db, query, "two segments")) return 1;
  auto merged = db.Merge();
  if (!merged.ok()) return Fail("merge", merged.status());
  std::printf("merged %zu segments into one\n", merged.ValueOrDie());
  if (!ShowStorage(db, query, "after merge")) return 1;

  auto final_result = db.Search(QueryRequest{query});
  if (!final_result.ok()) return Fail("search", final_result.status());
  std::printf("final top-3 (strategy %s):\n",
              StrategyName(final_result.ValueOrDie().strategy));
  const auto& items = final_result.ValueOrDie().top.items;
  for (size_t i = 0; i < items.size() && i < 3; ++i) {
    std::printf("  doc %-8u score %.5f\n", items[i].doc, items[i].score);
  }
  return 0;
}
