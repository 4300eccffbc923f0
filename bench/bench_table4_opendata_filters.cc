// Table IV — OpenData: number of sets pruned by each filter, by query
// cardinality interval.
//
// Paper reference (counts per query, full-scale OpenData):
//   interval    candidates  iUB     No-EM  EM-ET  EM
//   10-750      1132        345     88     0      699
//   750-1000    2557        2422    85     2      48
//   1000-1500   2699        2571    83     4      41
//   1500-2500   3440        3328    84     2      26
//   2500-5000   3560        3451    82     4      23
//   >5000       5706        5502    79     5      120
//
// The shape to reproduce: candidates grow with query cardinality, the iUB
// share grows (nearly everything is refinement-pruned for large queries),
// and the EM count collapses.
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

void Run(Dataset dataset, const char* title) {
  PrintHeader(title);
  BenchWorkload w = MakeBenchWorkload(dataset);
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
              " (the paper used 10\npartitions). Intervals are the paper's,"
              " rescaled to the replica's maximum set\nsize.\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run(koios::bench::Dataset::kOpenData,
                    "Table IV: OpenData — #sets pruned by filters");
  return 0;
}
