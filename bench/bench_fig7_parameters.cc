// Figure 7 — parameter analysis on OpenData:
//   (a) response time vs number of partitions (also phase share)
//   (b) response time vs element similarity threshold α
//   (c) response time vs result size k
//   (d) memory footprint vs α
//
// The paper's partitions are parts of the repository searched in parallel
// under one global θlb; here they are the shards of serve::ShardCoordinator
// (contiguous slices; data::GenerateCorpus draws every set independently
// in id order, so a contiguous slice is a random partition in
// distribution). Shard 0 runs on the calling thread, shards 1..N-1 on a
// pool of min(N-1, hardware threads). Sweeps (b)-(d) run unpartitioned.
//
// Shapes from the paper: (a) time falls as partitions grow (shared θlb +
// parallelism) and the post-processing share shrinks; (b) higher α =>
// faster (fewer edges, cheaper matching); (c) larger k => *lower* average
// time (counter-intuitive: more sets reach the result quickly, less
// post-processing work); (d) memory rises slightly with α (smaller θlb =>
// more sets reach post-processing).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/util/thread_pool.h"

namespace koios::bench {
namespace {

std::vector<data::BenchmarkQuery> SampleForSweep(const BenchWorkload& w,
                                                 size_t count) {
  util::Rng rng(777);
  return data::SampleQueriesUniform(w.corpus, count, &rng);
}

void Run() {
  BenchWorkload w = MakeBenchWorkload(Dataset::kOpenData);
  const auto queries = SampleForSweep(w, 10);

  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  {
    // Build the (token, α = 0.8) cursors once, so the first sweep point
    // does not pay for the whole sweep's cursor cache.
    core::SearchParams params;
    params.alpha = 0.8;
    for (const auto& query : queries) RunKoios(&searcher, query.tokens, params);
  }

  // ---- (a) shard sweep ---------------------------------------------------
  const size_t hardware_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  PrintHeader("Figure 7a: time vs #partitions = shards (k=10, alpha=0.8)");
  std::printf("%-8s %-8s | %12s | %9s %9s\n", "shards", "threads",
              "response(s)", "refine%", "post%");
  PrintRule();
  for (size_t shards : {1, 2, 5, 10, 20}) {
    serve::ShardOptions options;
    options.num_shards = shards;
    const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                              options);
    const size_t pool_threads = std::min(shards - 1, hardware_threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (pool_threads > 0) {
      pool = std::make_unique<util::ThreadPool>(pool_threads);
    }
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    params.verify_result_scores = false;  // forced on when shards > 1
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      util::WallTimer timer;
      const core::SearchResult result =
          coordinator.Execute(query.tokens, params, {}, pool.get(), nullptr);
      t.Add(timer.ElapsedSeconds());
      // Phase times summed over the shards.
      const double refine = result.stats.timers.Get("refinement");
      const double post = result.stats.timers.Get("postprocess");
      if (refine + post > 0) {
        refine_share.Add(100.0 * refine / (refine + post));
        post_share.Add(100.0 * post / (refine + post));
      }
    }
    std::printf("%-8zu %-8zu | %12.4f | %8.1f%% %8.1f%%\n", shards,
                pool_threads + 1, t.Mean(), refine_share.Mean(),
                post_share.Mean());
  }

  // ---- (b) + (d) alpha sweep --------------------------------------------
  PrintHeader("Figure 7b/7d: time and memory vs alpha (k=10, unpartitioned)");
  std::printf("%-8s | %12s | %11s\n", "alpha", "response(s)", "memory(MB)");
  PrintRule();
  for (double alpha : {0.6, 0.7, 0.8, 0.9}) {
    core::SearchParams params;
    params.k = 10;
    params.alpha = alpha;
    params.verify_result_scores = false;
    Aggregate t, mem;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      mem.Add(static_cast<double>(out.memory_bytes) / (1 << 20));
    }
    std::printf("%-8.2f | %12.4f | %11.2f\n", alpha, t.Mean(), mem.Mean());
  }

  // ---- (c) k sweep -------------------------------------------------------
  PrintHeader("Figure 7c: time vs k (alpha=0.8, unpartitioned)");
  std::printf("%-8s | %12s | %9s %9s\n", "k", "response(s)", "refine%",
              "post%");
  PrintRule();
  for (size_t k : {10, 20, 50, 100}) {
    core::SearchParams params;
    params.k = k;
    params.alpha = 0.8;
    params.verify_result_scores = false;
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      const double total = out.refinement_sec + out.postprocess_sec;
      if (total > 0) {
        refine_share.Add(100.0 * out.refinement_sec / total);
        post_share.Add(100.0 * out.postprocess_sec / total);
      }
    }
    std::printf("%-8zu | %12.4f | %8.1f%% %8.1f%%\n", k, t.Mean(),
                refine_share.Mean(), post_share.Mean());
  }
  std::printf(
      "\n(a): threads = the calling thread + the shard pool. With more than"
      " one shard every\nresult score is verified exactly (the cross-shard"
      " merge needs it), which adds\npost-processing work the unsharded row"
      " does not do.\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
