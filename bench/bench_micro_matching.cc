// Micro benchmarks (google-benchmark): the kernels whose costs drive the
// paper's complexity discussion — Hungarian matching (a pass over the
// matrix to find its connected components, then O(n³) per component of n
// nodes) on a uniform graph that forms one giant component and on an
// α-graph-shaped one that falls apart into small blocks, the greedy
// matcher (O(E log E)), the early-terminated Hungarian, the token stream,
// and the bucket index maintenance.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "koios/core/bucket_index.h"
#include "koios/matching/greedy.h"
#include "koios/matching/hungarian.h"
#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "koios/util/rng.h"

namespace koios {
namespace {

struct MicroWorkload {
  data::Corpus corpus;
  std::unique_ptr<embedding::SyntheticEmbeddingModel> model;
  std::unique_ptr<sim::CosineEmbeddingSimilarity> sim;
  std::unique_ptr<sim::ExactKnnIndex> index;
};

MicroWorkload MakeWorkload(size_t vocab) {
  MicroWorkload w;
  data::CorpusSpec spec;
  spec.num_sets = 50;
  spec.vocab_size = vocab;
  spec.size_distribution = data::SizeDistribution::kUniform;
  spec.min_set_size = 20;
  spec.max_set_size = 40;
  spec.seed = 5;
  w.corpus = data::GenerateCorpus(spec);
  embedding::SyntheticModelSpec ms;
  ms.vocab_size = vocab;
  ms.dim = 32;
  ms.seed = 6;
  w.model = std::make_unique<embedding::SyntheticEmbeddingModel>(ms);
  w.sim = std::make_unique<sim::CosineEmbeddingSimilarity>(&w.model->store());
  w.index = std::make_unique<sim::ExactKnnIndex>(w.corpus.vocabulary, w.sim.get());
  return w;
}

matching::WeightMatrix RandomMatrix(size_t n, double density, uint64_t seed) {
  util::Rng rng(seed);
  matching::WeightMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.NextBool(density)) m.At(i, j) = 0.5 + 0.5 * rng.NextDouble();
    }
  }
  return m;
}

void BM_Hungarian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::HungarianMatcher::Solve(m));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(16, 256)->Complexity();

// The shape of post-processing's α-graphs: blocks of 6 rows x 6 columns
// (12 nodes) on a shuffled diagonal, filled so the whole matrix is 3.6%
// non-zero where blocks that small can hold that many entries (up to
// n ≈ 167; beyond, every block cell is set and the density is 6 / n).
matching::WeightMatrix ClusteredMatrix(size_t n, uint64_t seed) {
  constexpr size_t kBlock = 6;
  util::Rng rng(seed);
  std::vector<size_t> row_at(n), col_at(n);
  for (size_t i = 0; i < n; ++i) row_at[i] = col_at[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(row_at[i - 1], row_at[rng.NextBounded(i)]);
    std::swap(col_at[i - 1], col_at[rng.NextBounded(i)]);
  }
  const double fill = std::min(1.0, 0.036 * static_cast<double>(n) / kBlock);
  matching::WeightMatrix m(n, n);
  for (size_t b = 0; b < n; b += kBlock) {
    for (size_t i = b; i < std::min(n, b + kBlock); ++i) {
      for (size_t j = b; j < std::min(n, b + kBlock); ++j) {
        if (rng.NextBool(fill)) {
          m.At(row_at[i], col_at[j]) = 0.8 + 0.2 * rng.NextDouble();
        }
      }
    }
  }
  return m;
}

void BM_HungarianClustered(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = ClusteredMatrix(n, 45);
  size_t nonzero = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) nonzero += m.At(i, j) > 0.0;
  }
  matching::HungarianWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matching::HungarianMatcher::Solve(m, -1.0, &workspace));
  }
  state.counters["density"] =
      static_cast<double>(nonzero) / static_cast<double>(n * n);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_HungarianClustered)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity();

void BM_HungarianEarlyTerminated(benchmark::State& state) {
  // A threshold far above the optimum: termination fires on the first dual
  // check, modeling the filter's best case.
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matching::HungarianMatcher::Solve(m, /*prune_threshold=*/1e9));
  }
}
BENCHMARK(BM_HungarianEarlyTerminated)->RangeMultiplier(2)->Range(16, 256);

void BM_GreedyMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::GreedyMatch(m));
  }
}
BENCHMARK(BM_GreedyMatch)->RangeMultiplier(2)->Range(16, 256);

void BM_TokenStream(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  const auto query_span = w.corpus.sets.Tokens(0);
  std::vector<TokenId> query(query_span.begin(), query_span.end());
  for (auto _ : state) {
    sim::TokenStream stream(query, w.index.get(), 0.7,
                            [](TokenId) { return true; });
    size_t tuples = 0;
    while (stream.Next()) ++tuples;
    benchmark::DoNotOptimize(tuples);
  }
}
BENCHMARK(BM_TokenStream)->Arg(1000)->Arg(4000);

void BM_BucketIndexChurn(benchmark::State& state) {
  // Refinement's access pattern: every candidate enters at m = capacity,
  // stream edges move random live candidates one bucket down with a higher
  // row sum (leaving a stale heap entry behind), and each tuple runs a
  // prune pass against a rising threshold.
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(7);
  for (auto _ : state) {
    core::BucketIndex buckets;
    std::vector<uint32_t> m(n);
    std::vector<double> row_sum(n, 0.0);
    for (uint32_t c = 0; c < n; ++c) {
      m[c] = 10 + c % 5;
      buckets.Insert(c, m[c], 0.0);
    }
    double theta = 0.0, sim = 0.9;
    for (size_t step = 0; step < 4 * n && buckets.size() > 0; ++step) {
      const uint32_t c = static_cast<uint32_t>(rng.NextBounded(n));
      if (m[c] > 0 && m[c] != UINT32_MAX) {
        row_sum[c] += sim;
        buckets.Move(c, --m[c], row_sum[c]);
      }
      if (step % 16 == 0) {
        theta += 0.01;
        sim = std::max(0.5, sim - 0.001);
        buckets.Prune(sim, theta, [&](uint32_t p) { m[p] = UINT32_MAX; });
      }
    }
    benchmark::DoNotOptimize(buckets.size());
  }
}
BENCHMARK(BM_BucketIndexChurn)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace koios

BENCHMARK_MAIN();
