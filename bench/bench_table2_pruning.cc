// Table II — Average percentage of sets pruned using filters.
//
// Paper reference (k=10, alpha=0.8, 10 partitions):
//   dataset   iUB-Filter   EM-Early-Terminated   No-EM
//   DBLP      91%          5%                    9.2%
//   OpenData  85.5%        2.1%                  54.8%
//   Twitter   53.5%        0%                    1.4%
//   WDC       89.2%        0.9%                  9.8%
//
// iUB percentage is over the candidates of the refinement phase; the two
// post-processing percentages are over the sets reaching that phase.
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

void Run() {
  PrintHeader("Table II: Average % of sets pruned using filters");
  std::printf("%-10s | %12s | %22s | %8s || %s\n", "Dataset", "iUB-Filter",
              "EM-Early-Terminated", "No-EM", "paper: iUB / EM-ET / No-EM");
  PrintRule();

  struct PaperRow {
    double iub, em_et, no_em;
  };
  const PaperRow paper[] = {{91.0, 5.0, 9.2},
                            {85.5, 2.1, 54.8},
                            {53.5, 0.0, 1.4},
                            {89.2, 0.9, 9.8}};
  const Dataset datasets[] = {Dataset::kDblp, Dataset::kOpenData,
                              Dataset::kTwitter, Dataset::kWdc};

  for (size_t d = 0; d < 4; ++d) {
    BenchWorkload w = MakeBenchWorkload(datasets[d]);
    core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    params.verify_result_scores = false;

    const BenchQueries bq = MakeBenchQueries(w, /*per_interval=*/3,
                                             /*uniform_count=*/10);
    Aggregate iub_pct, em_et_pct, no_em_pct;
    for (const auto& query : bq.queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      if (out.stats.candidates > 0) {
        iub_pct.Add(100.0 * static_cast<double>(out.stats.iub_filtered) /
                    static_cast<double>(out.stats.candidates));
      }
      if (out.stats.postprocess_sets > 0) {
        const double denom = static_cast<double>(out.stats.postprocess_sets);
        em_et_pct.Add(100.0 * static_cast<double>(out.stats.em_early_terminated) /
                      denom);
        no_em_pct.Add(100.0 * static_cast<double>(out.stats.no_em_skipped) /
                      denom);
      }
    }
    std::printf("%-10s | %11.1f%% | %21.1f%% | %7.1f%% || %10.1f / %4.1f / %4.1f\n",
                DatasetName(datasets[d]), iub_pct.Mean(), em_et_pct.Mean(),
                no_em_pct.Mean(), paper[d].iub, paper[d].em_et, paper[d].no_em);
  }
  std::printf("\nk=10, alpha=0.8, unpartitioned (the paper used 10"
              " partitions).\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
