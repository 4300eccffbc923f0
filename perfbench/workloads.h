// The benchmark's workloads: corpus shape, query mix, search parameters and
// replay count, shared by the input generator (gen.cc) and the measured
// process (run.cc) so both read one definition. README.md records why each
// workload exists and which layer it is built to load.
#ifndef KOIOS_PERFBENCH_WORKLOADS_H_
#define KOIOS_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"

namespace koios::perfbench {

enum class Sampling {
  // Sets ordered by cardinality, cut into num_queries equal-count strata,
  // one set drawn uniformly from each: every set is equally likely to be
  // picked, and the size mix repeats from seed to seed.
  kStratified,
  // The same stratified draw inside each of the paper's OpenData
  // cardinality intervals (num_queries / intervals per interval).
  kOpenDataIntervals,
};

struct Workload {
  std::string name;
  data::CorpusSpec corpus;
  embedding::SyntheticModelSpec model;
  Sampling sampling = Sampling::kStratified;
  size_t num_queries = 0;  // distinct queries in the list
  size_t replays = 0;      // timed passes over the list, after one warm-up
  core::SearchParams params;
};

inline std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    // bench_scale_suite's WDC recipe (Zipf 1.05, vocab 25k, sets of at most
    // 200 tokens) at 12k sets: nearly every set shares a Zipf-head token
    // with every query, so refinement's per-candidate bookkeeping is the
    // query's cost.
    Workload w;
    w.name = "wdc-12k-refine";
    w.corpus = data::WdcSpec(1.0);
    w.corpus.num_sets = 12000;
    w.corpus.vocab_size = 25000;
    w.corpus.max_set_size = 200;
    w.model.vocab_size = w.corpus.vocab_size;
    w.model.coverage = 0.9;
    w.num_queries = 189;
    w.replays = 3;
    all.push_back(w);
  }
  {
    // OpenData-shaped heavy tail: large queries against large sets make
    // exact matching (post-processing) the dominant phase.
    Workload w;
    w.name = "opendata-verify";
    w.corpus = data::OpenDataSpec(1.0);
    w.corpus.num_sets = 2000;
    w.corpus.vocab_size = 8000;
    w.corpus.max_set_size = 600;
    w.model.vocab_size = w.corpus.vocab_size;
    w.model.coverage = 0.8;
    w.sampling = Sampling::kOpenDataIntervals;
    w.num_queries = 180;
    w.replays = 3;
    all.push_back(w);
  }
  // The repository and the embedding model are fixed properties of each
  // workload, as the paper's datasets and pre-trained model are; --seed
  // draws the query list (the paper samples its query benchmarks the same
  // way).
  uint64_t seed = 1001;
  for (Workload& w : all) {
    w.corpus.seed = seed++;
    w.model.seed = seed++;
    w.model.dim = 32;
    w.model.avg_cluster_size = 16.0;
    w.model.noise_sigma = 0.38;
    w.params.k = 10;
    w.params.alpha = 0.8;
  }
  return all;
}

/// The workload called `name`, or nullptr.
inline const Workload* FindWorkload(const std::vector<Workload>& all,
                                    const std::string& name) {
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace koios::perfbench

#endif  // KOIOS_PERFBENCH_WORKLOADS_H_
