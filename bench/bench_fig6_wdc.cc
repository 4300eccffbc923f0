// Figure 6 — WDC results by query cardinality interval: the same four
// panels as Fig. 5 (response time, phase breakdown, memory), with the
// baseline in its feasible Baseline+ configuration (iUB filter on, as the
// paper does for WDC).
//
// Shapes from the paper: WDC's refinement share is larger than OpenData's
// (sheer number of sets + frequent elements => long posting lists and many
// bound updates), and the Koios-vs-baseline gap widens with cardinality.
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

void Run() {
  PrintHeader("Figure 6: WDC — time, phase breakdown, memory by interval");
  BenchWorkload w = MakeBenchWorkload(Dataset::kWdc);
  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  baselines::BruteForceBaseline baseline(&w.corpus.sets, w.index.get());
  core::SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  params.verify_result_scores = true;
  baselines::BaselineOptions bopts;
  bopts.k = 10;
  bopts.alpha = 0.8;
  bopts.use_iub_filter = true;  // Baseline+ (plain baseline infeasible on WDC)

  const BenchQueries bq = MakeBenchQueries(w, /*per_interval=*/3,
                                           /*uniform_count=*/0);
  std::printf("%-14s | %12s %12s | %9s %9s | %10s %10s\n", "Query Card.",
              "Koios(s)", "Baseline+(s)", "refine%", "post%", "K.mem(MB)",
              "B.mem(MB)");
  PrintRule();
  for (size_t iv = 0; iv < bq.intervals.size(); ++iv) {
    Aggregate kt, bt, refine_share, post_share, km, bm;
    for (const auto& query : bq.queries) {
      if (query.interval != iv) continue;
      const RunOutcome rk = RunKoios(&searcher, query.tokens, params);
      const RunOutcome rb = RunBaseline(&baseline, query.tokens, bopts);
      kt.Add(rk.response_sec);
      bt.Add(rb.response_sec);
      const double phase_total = rk.refinement_sec + rk.postprocess_sec;
      if (phase_total > 0) {
        refine_share.Add(100.0 * rk.refinement_sec / phase_total);
        post_share.Add(100.0 * rk.postprocess_sec / phase_total);
      }
      km.Add(static_cast<double>(rk.memory_bytes) / (1 << 20));
      bm.Add(static_cast<double>(rb.memory_bytes) / (1 << 20));
    }
    if (kt.n == 0) continue;
    std::printf("%-14s | %12.4f %12.4f | %8.1f%% %8.1f%% | %10.2f %10.2f\n",
                bq.intervals[iv].Label().c_str(), kt.Mean(), bt.Mean(),
                refine_share.Mean(), post_share.Mean(), km.Mean(), bm.Mean());
  }
  std::printf("\nPanels (a)-(d) of Fig. 6 as columns; k=10, alpha=0.8,"
              " unpartitioned (the paper\nused 10 partitions).\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
