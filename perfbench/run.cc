// perfbench_run — the measured process. It opens the files perfbench_gen
// wrote, serves the workload's query list and writes what it measured as
// one JSON object to --out. run.py turns that into metrics and checks every
// answer against the oracle.
//
//   perfbench_run --workload NAME --dir DIR --out FILE [--trace]
//
// Untraced (the end-to-end run): set up several times (Snapshot::Load +
// QueryEngine constructor), replay the query list once untimed, then
// `replays` more times timed, one query at a time (a closed loop of one
// client).
//
// Traced (--trace): after an untimed warm-up pass, one timed
// QueryEngine::TrySwapFromRepository, then the calls into each layer's
// public functions, one query at a time, on the swapped-in snapshot (cold
// cursor cache): the split pipeline (sim::TokenStream constructor,
// core::RefinementPhase::Run, core::PostProcessor::Run), then
// KoiosSearcher::Search, QueryEngine::Submit through get(), and
// BlockingClient::Search against a loopback net::Server. The split pipeline
// must reproduce the engine's top-k and counters for every query (the
// faithfulness gate).
//
// util::TraceRecorder stays disabled in both modes.
//
// Before each set-up, each query and each timed call of the trace run,
// every thread of the process moves to the next CPU it may run on
// (CpuRotation). On a shared virtual machine one vCPU at a time can run two
// to three times slower for seconds, unseen by the guest; a process that
// stays on that vCPU reads the slowdown as its own. Rotating spreads every
// stretch of the run over all the CPUs, so a slow one weighs on a share of
// the queries, not on all of them.
//
// Exit status: 0 measured (answers are judged by run.py), 1 usage,
// 2 set-up failure.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "koios/index/inverted_index.h"
#include "koios/io/repository_v4.h"
#include "koios/net/client.h"
#include "koios/net/engine_slot.h"
#include "koios/net/server.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/sim/batched_neighbor_index.h"
#include "koios/sim/token_stream.h"
#include "koios/util/trace_recorder.h"
#include "workloads.h"

namespace koios::perfbench {
namespace {

constexpr size_t kSetupReps = 41;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Moves every thread of this process, in turn, to each CPU the process
/// was allowed to run on at construction. A thread the process starts
/// later inherits its creator's CPU.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }

  /// Pins every thread to the next CPU. A thread that ends meanwhile is
  /// skipped; with one CPU this only pins.
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (const dirent* task = readdir(tasks)) {
      const int tid = std::atoi(task->d_name);
      if (tid > 0) sched_setaffinity(tid, sizeof one, &one);
    }
    closedir(tasks);
  }

 private:
  std::vector<int> cpus_;
  size_t turn_ = 0;
};

/// Peak resident set (VmHWM) of this process in kB, 0 if unreadable.
size_t VmHwmKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

/// A fixed CPU-plus-memory reference loop: dependent pseudo-random reads
/// over a 16 MB table. Its time tracks how fast this host runs right now;
/// it is reported beside the metrics and never used to rescale them.
double CalibrationMs() {
  std::vector<uint32_t> table(1u << 22);
  for (uint32_t i = 0; i < table.size(); ++i) table[i] = i * 2654435761u;
  const auto start = Clock::now();
  uint32_t x = 1;
  uint64_t acc = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    x = x * 1664525u + 1013904223u + table[(x ^ static_cast<uint32_t>(acc)) &
                                           (table.size() - 1)];
    acc += x >> 7;
  }
  const double ms = MsSince(start);
  if (acc == 42) std::fprintf(stderr, "#");  // keeps the loop observable
  return ms;
}

std::vector<std::vector<TokenId>> ReadQueries(const std::string& path) {
  std::vector<std::vector<TokenId>> queries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::vector<TokenId> q;
    for (TokenId t; tokens >> t;) q.push_back(t);
    queries.push_back(std::move(q));
  }
  return queries;
}

/// One answered (or failed) query.
struct Sample {
  uint32_t query = 0;
  int64_t send_ns = 0;  // from the start of the measured phase
  int64_t recv_ns = 0;
  int status = 0;       // util::StatusCode, 0 = OK
  std::vector<core::ResultEntry> topk;
};

void WriteSamples(std::FILE* f, const std::vector<Sample>& samples) {
  std::fprintf(f, "\"samples\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f, "%s\n[%u, %lld, %lld, %d, [", i > 0 ? "," : "", s.query,
                 static_cast<long long>(s.send_ns),
                 static_cast<long long>(s.recv_ns), s.status);
    for (size_t j = 0; j < s.topk.size(); ++j) {
      std::fprintf(f, "%s[%u, %.17g]", j > 0 ? ", " : "", s.topk[j].set,
                   s.topk[j].score);
    }
    std::fprintf(f, "]]");
  }
  std::fprintf(f, "]");
}

void WriteNumberList(std::FILE* f, const char* key,
                     const std::vector<double>& values) {
  std::fprintf(f, "\"%s\": [", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.9g", i > 0 ? ", " : "", values[i]);
  }
  std::fprintf(f, "]");
}

/// The trace run's serving stack; the client and server go first.
struct Serving {
  std::shared_ptr<serve::QueryEngine> engine;
  net::EngineSlot slot;
  std::unique_ptr<net::Server> server;
  std::optional<net::BlockingClient> client;

  ~Serving() {
    client.reset();
    if (server != nullptr) server->Stop();
  }
};

/// One engine worker: a query's time is its own, never another's wait.
serve::EngineOptions EngineOptions() {
  serve::EngineOptions options;
  options.num_threads = 1;
  return options;
}

util::Status StartServer(Serving* s) {
  s->slot.Set(s->engine);
  s->server = std::make_unique<net::Server>(&s->slot, nullptr);
  if (util::Status st = s->server->Start(); !st.ok()) return st;
  auto client = net::BlockingClient::Connect("127.0.0.1", s->server->port());
  if (!client.ok()) return client.status();
  s->client.emplace(std::move(client).value());
  return s->client->Ping();
}

int RunUntraced(const Workload& w, const std::string& dir,
                const std::vector<std::vector<TokenId>>& queries,
                std::FILE* out) {
  // ---- set-up, kSetupReps times; the last one serves ---------------------
  CpuRotation rotation;
  std::vector<double> setup_s;
  std::unique_ptr<serve::QueryEngine> engine;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    rotation.Next();
    const auto start = Clock::now();
    auto loaded = serve::Snapshot::Load(dir + "/snapshot.v4");
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    engine = std::make_unique<serve::QueryEngine>(std::move(loaded).value(),
                                                  EngineOptions());
    setup_s.push_back(MsSince(start) / 1e3);
  }

  // ---- untimed warm-up pass, then the timed passes (closed loop) ----------
  for (const auto& q : queries) {
    rotation.Next();
    engine->Submit(q, w.params).get();
  }
  std::vector<Sample> samples;
  samples.reserve(w.replays * queries.size());
  const auto phase_start = Clock::now();
  for (size_t replay = 0; replay < w.replays; ++replay) {
    for (uint32_t qi = 0; qi < queries.size(); ++qi) {
      rotation.Next();
      Sample s;
      s.query = qi;
      s.send_ns = NsBetween(phase_start, Clock::now());
      serve::QueryEngine::Result r =
          engine->Submit(queries[qi], w.params).get();
      s.recv_ns = NsBetween(phase_start, Clock::now());
      if (r.ok()) {
        s.topk = std::move(r).value().topk;
      } else {
        s.status = static_cast<int>(r.status().code());
      }
      samples.push_back(std::move(s));
    }
  }
  const double wall_s = MsSince(phase_start) / 1e3;
  const size_t hwm_kb = VmHwmKb();
  engine.reset();

  std::fprintf(out, "{\"mode\": \"untraced\", \"wall_s\": %.9g, ", wall_s);
  WriteNumberList(out, "setup_s", setup_s);
  std::fprintf(out, ", \"vmhwm_kb\": %zu, \"calib_ms\": %.9g,\n", hwm_kb,
               CalibrationMs());
  WriteSamples(out, samples);
  std::fprintf(out, "}\n");
  return 0;
}

// ---- traced run -------------------------------------------------------------

/// Per-query layer times (ms) and engine counters, summed over the pass.
struct LayerTotals {
  size_t queries = 0;
  double cursor_build_ms = 0, refinement_ms = 0, postprocess_ms = 0;
  double search_ms = 0, engine_ms = 0, wire_ms = 0;
  // KoiosSearcher::Search's own phase timers, from the same calls as
  // search_ms.
  double search_refinement_ms = 0, search_postprocess_ms = 0;
  // Cursor-cache lookups of the split pipeline's TokenStream constructors.
  uint64_t cursor_hits = 0, cursor_misses = 0;
  std::vector<double> engine_call_ms;  // the untraced latency's analogue
  core::SearchStats counters;         // merged engine SearchStats
};

bool SameTopK(const std::vector<core::ResultEntry>& a,
              const std::vector<core::ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].set != b[i].set || a[i].score != b[i].score) return false;
  }
  return true;
}

bool SameCounters(const core::SearchStats& a, const core::SearchStats& b) {
  return a.stream_tuples == b.stream_tuples &&
         a.stream_tuples_produced == b.stream_tuples_produced &&
         a.candidates == b.candidates && a.iub_filtered == b.iub_filtered &&
         a.bucket_moves == b.bucket_moves &&
         a.postprocess_sets == b.postprocess_sets &&
         a.no_em_skipped == b.no_em_skipped &&
         a.em_early_terminated == b.em_early_terminated &&
         a.em_computed == b.em_computed &&
         a.postprocess_ub_pruned == b.postprocess_ub_pruned &&
         a.result_verification_ems == b.result_verification_ems;
}

sim::CursorCacheStats CursorStats(const serve::Snapshot& snap) {
  const auto* batched =
      dynamic_cast<const sim::BatchedNeighborIndex*>(snap.index());
  return batched != nullptr ? batched->cursor_cache_stats()
                            : sim::CursorCacheStats{};
}

/// KoiosSearcher::Search's single-partition pipeline, as three timed
/// public calls.
core::SearchResult SplitSearch(const serve::Snapshot& snap,
                               const index::InvertedIndex& inverted,
                               std::span<const TokenId> query,
                               const core::SearchParams& params,
                               LayerTotals* totals) {
  std::unique_ptr<sim::SimilarityIndex> session = snap.index()->NewSession();
  core::SearchContext ctx;
  ctx.BeginSearch(1);
  core::SearchResult result;

  const sim::CursorCacheStats cursors_before = CursorStats(snap);
  auto t = Clock::now();
  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), session.get(),
      params.alpha,
      [&inverted](TokenId token) { return inverted.InVocabulary(token); });
  totals->cursor_build_ms += MsSince(t);
  const sim::CursorCacheStats cursors_after = CursorStats(snap);
  totals->cursor_hits += cursors_after.hits - cursors_before.hits;
  totals->cursor_misses += cursors_after.misses - cursors_before.misses;

  const sim::SimilarityFunction* completer = session->similarity();
  core::EdgeCache::StopSimFn stop_fn;
  if (params.use_stream_feedback && completer != nullptr &&
      session->exact_neighbors()) {
    stop_fn = [&ctx]() { return ctx.stop_controller().ProducerStop(); };
  }
  core::EdgeCache cache(&stream, core::EdgeCache::InlineProducer{}, completer,
                        stop_fn, &ctx);

  core::RefinementPhase refinement(&snap.sets(), &inverted, query.size(),
                                   params);
  t = Clock::now();
  core::RefinementOutput refined = refinement.Run(&cache, &result.stats, &ctx);
  totals->refinement_ms += MsSince(t);

  core::PostProcessor post(&snap.sets(), &cache, params, &ctx, nullptr);
  t = Clock::now();
  result.topk = post.Run(std::move(refined), &result.stats);
  totals->postprocess_ms += MsSince(t);

  cache.FinishProduction();
  result.stats.stream_tuples_produced = cache.produced();
  std::sort(result.topk.begin(), result.topk.end(),
            [](const core::ResultEntry& a, const core::ResultEntry& b) {
              return a.score != b.score ? a.score > b.score : a.set < b.set;
            });
  if (result.topk.size() > params.k) result.topk.resize(params.k);
  return result;
}

int RunTraced(const Workload& w, const std::string& dir,
              const std::vector<std::vector<TokenId>>& queries,
              std::FILE* out) {
  const std::string path = dir + "/snapshot.v4";
  // ---- set-up, timed per layer --------------------------------------------
  CpuRotation rotation;
  std::vector<double> open_ms, index_ms, engine_build_ms;
  std::unique_ptr<Serving> serving;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    serving.reset();
    rotation.Next();
    auto t = Clock::now();
    auto view = io::MmapRepositoryView::Open(path);
    open_ms.push_back(MsSince(t));
    auto loaded = serve::Snapshot::Load(path);
    if (!view.ok() || !loaded.ok()) {
      std::fprintf(stderr, "open/load of %s failed\n", path.c_str());
      return 2;
    }
    t = Clock::now();
    const index::InvertedIndex inverted(loaded.value()->sets());
    index_ms.push_back(MsSince(t));
    serving = std::make_unique<Serving>();
    t = Clock::now();
    serving->engine = std::make_shared<serve::QueryEngine>(
        std::move(loaded).value(), EngineOptions());
    engine_build_ms.push_back(MsSince(t));
  }
  if (util::Status st = StartServer(serving.get()); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 2;
  }

  for (const auto& q : queries) {
    rotation.Next();
    serving->engine->Submit(q, w.params).get();
  }

  // io.swap_ms: a live swap to a fresh load of the same file. The timed
  // pass runs on the swapped-in snapshot, whose cursor cache starts cold:
  // each query's TokenStream builds the cursors no earlier query built.
  auto t = Clock::now();
  const int swap_status = static_cast<int>(
      serving->engine->TrySwapFromRepository(path).code());
  const double swap_ms = MsSince(t);
  const std::shared_ptr<const serve::Snapshot> snap =
      serving->engine->snapshot();
  const std::shared_ptr<const core::KoiosSearcher> searcher =
      serving->engine->searcher();
  const index::InvertedIndex inverted(snap->sets());

  LayerTotals totals;
  std::vector<Sample> samples;
  size_t mismatches = 0;
  const auto phase_start = Clock::now();
  // Each timed call starts right after a move, as every untraced query
  // does, so self times and trace.overhead_pct compare like with like.
  for (uint32_t qi = 0; qi < queries.size(); ++qi) {
    rotation.Next();
    const std::vector<TokenId>& q = queries[qi];
    const core::SearchResult split =
        SplitSearch(*snap, inverted, q, w.params, &totals);

    std::unique_ptr<sim::SimilarityIndex> session = snap->index()->NewSession();
    core::SearchContext ctx;
    rotation.Next();
    t = Clock::now();
    const core::SearchResult direct =
        searcher->Search(q, w.params, session.get(), &ctx);
    totals.search_ms += MsSince(t);
    totals.search_refinement_ms +=
        direct.stats.timers.Get("refinement") * 1e3;
    totals.search_postprocess_ms +=
        direct.stats.timers.Get("postprocess") * 1e3;

    rotation.Next();
    Sample engine_sample;
    engine_sample.query = qi;
    t = Clock::now();
    engine_sample.send_ns = NsBetween(phase_start, t);
    serve::QueryEngine::Result engine_result =
        serving->engine->Submit(q, w.params).get();
    const double engine_ms = MsSince(t);
    engine_sample.recv_ns = NsBetween(phase_start, Clock::now());
    totals.engine_ms += engine_ms;
    totals.engine_call_ms.push_back(engine_ms);

    rotation.Next();
    Sample wire_sample;
    wire_sample.query = qi;
    t = Clock::now();
    wire_sample.send_ns = NsBetween(phase_start, t);
    auto wire_result = serving->client->Search(
        q, static_cast<uint32_t>(w.params.k), w.params.alpha, 0);
    totals.wire_ms += MsSince(t);
    wire_sample.recv_ns = NsBetween(phase_start, Clock::now());
    ++totals.queries;

    if (engine_result.ok()) {
      const core::SearchResult& r = engine_result.value();
      totals.counters.Merge(r.stats);
      engine_sample.topk = r.topk;
      if (!SameTopK(split.topk, r.topk) || !SameTopK(direct.topk, r.topk) ||
          !SameCounters(split.stats, r.stats) ||
          !SameCounters(direct.stats, r.stats)) {
        ++mismatches;
        std::fprintf(stderr, "faithfulness: query %u diverges\n", qi);
      }
    } else {
      engine_sample.status = static_cast<int>(engine_result.status().code());
      ++mismatches;
    }
    if (wire_result.ok()) {
      wire_sample.topk = std::move(wire_result).value();
    } else {
      wire_sample.status = static_cast<int>(wire_result.status().code());
    }
    samples.push_back(std::move(engine_sample));
    samples.push_back(std::move(wire_sample));
  }
  const serve::EngineCounters counters = serving->engine->counters();
  const uint64_t rejected = counters.rejected_queue_full +
                            counters.rejected_wait_exceeds_deadline +
                            counters.deadline_exceeded;
  serving.reset();

  const core::SearchStats& c = totals.counters;
  std::fprintf(out, "{\"mode\": \"traced\", \"queries\": %zu, ",
               totals.queries);
  WriteNumberList(out, "open_ms", open_ms);
  std::fprintf(out, ", ");
  WriteNumberList(out, "index_build_ms", index_ms);
  std::fprintf(out, ", ");
  WriteNumberList(out, "engine_build_ms", engine_build_ms);
  std::fprintf(out, ", ");
  WriteNumberList(out, "engine_call_ms", totals.engine_call_ms);
  std::fprintf(
      out,
      ",\n\"sum_ms\": {\"cursor_build\": %.9g, \"refinement\": %.9g, "
      "\"postprocess\": %.9g, \"search\": %.9g, "
      "\"search_refinement\": %.9g, \"search_postprocess\": %.9g, "
      "\"engine\": %.9g, \"wire\": %.9g},\n"
      "\"counters\": {\"candidates\": %zu, \"bucket_moves\": %zu, "
      "\"iub_filtered\": %zu, \"postprocess_sets\": %zu, "
      "\"no_em_skipped\": %zu, \"em_computed\": %zu, "
      "\"em_early_terminated\": %zu, \"tuples_produced\": %zu, "
      "\"cursor_hits\": %llu, \"cursor_misses\": %llu, \"rejected\": %llu},\n"
      "\"swap_ms\": %.9g, \"swap_status\": %d, \"mismatches\": %zu, "
      "\"calib_ms\": %.9g,\n",
      totals.cursor_build_ms, totals.refinement_ms, totals.postprocess_ms,
      totals.search_ms, totals.search_refinement_ms,
      totals.search_postprocess_ms, totals.engine_ms, totals.wire_ms,
      c.candidates,
      c.bucket_moves, c.iub_filtered, c.postprocess_sets, c.no_em_skipped,
      c.em_computed, c.em_early_terminated, c.stream_tuples_produced,
      static_cast<unsigned long long>(totals.cursor_hits),
      static_cast<unsigned long long>(totals.cursor_misses),
      static_cast<unsigned long long>(rejected), swap_ms, swap_status,
      mismatches, CalibrationMs());
  WriteSamples(out, samples);
  std::fprintf(out, "}\n");
  return 0;
}

}  // namespace
}  // namespace koios::perfbench

int main(int argc, char** argv) {
  std::string workload, dir, out_path;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      trace = true;
    } else if (i + 1 < argc && flag == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && flag == "--dir") {
      dir = argv[++i];
    } else if (i + 1 < argc && flag == "--out") {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return 1;
    }
  }
  const auto all = koios::perfbench::AllWorkloads();
  const koios::perfbench::Workload* w =
      koios::perfbench::FindWorkload(all, workload);
  if (w == nullptr || dir.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --dir DIR --out FILE [--trace]\n",
                 argv[0]);
    return 1;
  }
  if (koios::util::TraceRecorder::Enabled()) {
    std::fprintf(stderr, "the trace recorder must stay disabled\n");
    return 2;
  }
  const auto queries = koios::perfbench::ReadQueries(dir + "/queries.txt");
  if (queries.empty()) {
    std::fprintf(stderr, "no queries in %s/queries.txt\n", dir.c_str());
    return 2;
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  const int rc =
      trace ? koios::perfbench::RunTraced(*w, dir, queries, out)
            : koios::perfbench::RunUntraced(*w, dir, queries, out);
  if (std::fclose(out) != 0) return 2;
  return rc;
}
