// perfbench_gen — writes one workload's inputs for a seed: the v4
// snapshot, the query list and the oracle answers. The measured process
// (perfbench_run) only opens these files, so generation never counts
// toward its set-up time or peak RSS. The snapshots are fixed per workload;
// the seed draws the query list. The same seed reproduces every file byte
// for byte.
//
//   perfbench_gen --workload NAME --seed N --dir DIR
//
// Files written to DIR:
//   snapshot.v4     the snapshot
//   queries.txt     one query per line, space-separated token ids
//   oracle.txt      per query, "set:score" pairs of the top-k from
//                   baselines::BruteForceBaseline
//
// Exit status: 0 ok, 1 usage, 2 failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "koios/baselines/brute_force.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/serve/snapshot.h"
#include "koios/text/dictionary.h"
#include "koios/util/rng.h"
#include "workloads.h"

namespace koios::perfbench {
namespace {

// Worker threads of the oracle's brute-force search.
constexpr size_t kOracleThreads = 4;

// Spreads consecutive --seed values over the generator's state space.
uint64_t DeriveSeed(uint64_t seed) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  return x * 0x94D049BB133111EBull + 1;
}

// One set drawn uniformly from each of `count` equal-count strata of `ids`
// ordered by (cardinality, id).
void DrawStratified(const index::SetCollection& sets, std::vector<SetId> ids,
                    size_t count, util::Rng* rng, std::vector<SetId>* out) {
  std::sort(ids.begin(), ids.end(), [&sets](SetId a, SetId b) {
    const size_t sa = sets.SetSize(a), sb = sets.SetSize(b);
    return sa != sb ? sa < sb : a < b;
  });
  count = std::min(count, ids.size());
  for (size_t s = 0; s < count; ++s) {
    const size_t lo = s * ids.size() / count;
    const size_t hi = (s + 1) * ids.size() / count;
    out->push_back(ids[lo + rng->NextBounded(hi - lo)]);
  }
}

// The draw, in a seeded random order. The strata come out by cardinality,
// so unshuffled the queries of similar cost would run back to back, and a
// percentile would read the host's speed over a second or two of the pass
// instead of over the whole of it.
std::vector<SetId> SampleQueries(const Workload& w,
                                 const index::SetCollection& sets,
                                 util::Rng* rng) {
  std::vector<SetId> picked;
  if (w.sampling == Sampling::kStratified) {
    std::vector<SetId> all(sets.size());
    for (SetId id = 0; id < sets.size(); ++id) all[id] = id;
    DrawStratified(sets, std::move(all), w.num_queries, rng, &picked);
  } else {
    const auto intervals = data::OpenDataIntervals(sets.MaxSetSize());
    const size_t per_interval = w.num_queries / intervals.size();
    for (const data::CardinalityInterval& iv : intervals) {
      std::vector<SetId> members;
      for (SetId id = 0; id < sets.size(); ++id) {
        const size_t size = sets.SetSize(id);
        if (size >= iv.lo && size < iv.hi) members.push_back(id);
      }
      DrawStratified(sets, std::move(members), per_interval, rng, &picked);
    }
  }
  for (size_t i = picked.size(); i > 1; --i) {
    std::swap(picked[i - 1], picked[rng->NextBounded(i)]);
  }
  return picked;
}

bool WriteSnapshot(const text::Dictionary& dict,
                   const index::SetCollection& sets,
                   const embedding::EmbeddingStore& store,
                   const std::string& path) {
  const util::Status status = io::SaveRepositoryV4(dict, sets, &store, path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  return true;
}

bool WriteOracle(const Workload& w, const std::string& snapshot_path,
                 const std::vector<std::vector<TokenId>>& queries,
                 const std::string& out_path) {
  auto loaded = serve::Snapshot::Load(snapshot_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", snapshot_path.c_str(),
                 loaded.status().ToString().c_str());
    return false;
  }
  const std::shared_ptr<const serve::Snapshot> snap = loaded.value();
  baselines::BruteForceBaseline oracle(&snap->sets(), snap->index());
  baselines::BaselineOptions options;
  options.k = w.params.k;
  options.alpha = w.params.alpha;
  options.num_threads = kOracleThreads;
  // Exact matching on the similarity graph (not the dense matrix): the
  // same optimum, at a cost that keeps generation inside a run's budget.
  options.dense_verification = false;
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return false;
  }
  for (const auto& q : queries) {
    const core::SearchResult result = oracle.Search(q, options);
    for (size_t i = 0; i < result.topk.size(); ++i) {
      std::fprintf(f, "%s%u:%.17g", i > 0 ? " " : "", result.topk[i].set,
                   result.topk[i].score);
    }
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  embedding::SyntheticEmbeddingModel model(w.model);
  // The v4 file stores the int8 tier finalized, so a load does no
  // quantization work (as bench_scale_suite writes its snapshots).
  model.mutable_store().Finalize();
  text::Dictionary dict;
  for (size_t t = 0; t < w.corpus.vocab_size; ++t) {
    dict.Intern("tok" + std::to_string(t));
  }

  const data::Corpus corpus = data::GenerateCorpus(w.corpus);
  if (!WriteSnapshot(dict, corpus.sets, model.store(), dir + "/snapshot.v4")) {
    return 2;
  }

  util::Rng rng(DeriveSeed(seed));
  std::vector<std::vector<TokenId>> queries;
  {
    std::FILE* f = std::fopen((dir + "/queries.txt").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s/queries.txt\n", dir.c_str());
      return 2;
    }
    for (SetId id : SampleQueries(w, corpus.sets, &rng)) {
      const auto tokens = corpus.sets.Tokens(id);
      queries.emplace_back(tokens.begin(), tokens.end());
      for (size_t i = 0; i < tokens.size(); ++i) {
        std::fprintf(f, "%s%u", i > 0 ? " " : "", tokens[i]);
      }
      std::fprintf(f, "\n");
    }
    if (std::fclose(f) != 0) return 2;
  }

  if (!WriteOracle(w, dir + "/snapshot.v4", queries, dir + "/oracle.txt")) {
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace koios::perfbench

int main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--dir") {
      dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return 1;
    }
  }
  const auto all = koios::perfbench::AllWorkloads();
  const koios::perfbench::Workload* w =
      koios::perfbench::FindWorkload(all, workload);
  if (w == nullptr || dir.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --dir DIR\n",
                 argv[0]);
    return 1;
  }
  return koios::perfbench::Generate(*w, seed, dir);
}
