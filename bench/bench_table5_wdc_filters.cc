// Table V — WDC: number of sets pruned by each filter, by query cardinality
// interval.
//
// Paper reference (counts per query, full-scale WDC):
//   interval   candidates  iUB      No-EM  EM-ET  EM
//   20-250     124217      60196    74     80     63867
//   250-500    189665      186512   90     3      3060
//   500-750    262947      261901   85     6      953
//   750-1000   274695      273743   83     26     843
//   >1000      402622      402332   84     3      203
//
// Shape: candidate counts an order of magnitude above OpenData (frequent
// elements => long posting lists), iUB pruning > 97% for medium/large
// queries, EM counts collapsing with cardinality.
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

void Run() {
  PrintHeader("Table V: WDC — #sets pruned by filters");
  BenchWorkload w = MakeBenchWorkload(Dataset::kWdc);
  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  core::SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  params.verify_result_scores = false;

  const BenchQueries bq = MakeBenchQueries(w, /*per_interval=*/3,
                                           /*uniform_count=*/0);
  std::printf("%-14s | %10s %12s %8s %8s %8s\n", "Query Card.", "Candidates",
              "iUB-Filter", "No-EM", "EM-ET", "EM");
  PrintRule();
  for (size_t iv = 0; iv < bq.intervals.size(); ++iv) {
    Aggregate cand, iub, no_em, em_et, em;
    for (const auto& query : bq.queries) {
      if (query.interval != iv) continue;
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      cand.Add(static_cast<double>(out.stats.candidates));
      iub.Add(static_cast<double>(out.stats.iub_filtered));
      no_em.Add(static_cast<double>(out.stats.no_em_skipped));
      em_et.Add(static_cast<double>(out.stats.em_early_terminated));
      em.Add(static_cast<double>(out.stats.em_computed));
    }
    if (cand.n == 0) continue;
    std::printf("%-14s | %10.0f %12.0f %8.0f %8.0f %8.0f\n",
                bq.intervals[iv].Label().c_str(), cand.Mean(), iub.Mean(),
                no_em.Mean(), em_et.Mean(), em.Mean());
  }
  std::printf("\nAverage counts per query; k=10, alpha=0.8, unpartitioned"
              " (the paper used 10\npartitions).\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
