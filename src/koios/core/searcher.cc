#include "koios/core/searcher.h"

#include <cassert>
#include <optional>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"
#include "koios/util/trace_recorder.h"

namespace koios::core {

KoiosSearcher::KoiosSearcher(const index::SetCollection* sets,
                             sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

SearchResult KoiosSearcher::Search(std::span<const TokenId> query,
                                   const SearchParams& params) {
  return Search(query, params, index_, nullptr);
}

SearchResult KoiosSearcher::Search(std::span<const TokenId> query,
                                   const SearchParams& params,
                                   sim::SimilarityIndex* index,
                                   SearchContext* ctx) const {
  assert(params.k >= 1);
  assert(params.alpha > 0.0);
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;

  // Per-query machinery: callers that care (the serve engine) pass their
  // own context (deadline, cancel flag, observable θlb); the legacy path
  // gets a stack-local one.
  SearchContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  ctx->BeginSearch(1);
  ctx->CheckCancelled();  // an already-expired deadline never starts work

  // Root span of the search core (children: cursor build, refinement,
  // postprocess).
  util::TraceSpan search_span("search", "query_tokens", query.size());

  // ---- refinement input: the token stream ------------------------------
  std::optional<sim::TokenStream> stream_storage;
  {
    // Cursor construction: TokenStream's constructor prewarms every query
    // token's (token, α) cursor — the up-front index cost of a query.
    // Timed into the stats (not only the sampled trace) so per-shard
    // breakdowns can read the cost of every query, sampled or not.
    KOIOS_TRACE_SPAN("search.cursor_build");
    util::WallTimer cursor_timer;
    stream_storage.emplace(
        std::vector<TokenId>(query.begin(), query.end()), index, params.alpha,
        [this](TokenId t) { return InVocabulary(t); });
    result.stats.timers.Accumulate("cursor_build",
                                   cursor_timer.ElapsedSeconds());
  }
  sim::TokenStream& stream = *stream_storage;

  // ---- θlb→producer feedback (§IV–VI) ----------------------------------
  // Refinement publishes its running θlb into the context's
  // GlobalThreshold (shared with the other shards of a sharded query) and
  // derives from it the stop similarity τ(θlb, |Q|, partial scores) at
  // which it stops consuming; it declares τ to the controller, and the
  // producer stops materializing below it — tuples under τ are never
  // ordered, scored or cached.
  // Exactness requires the index's SimilarityFunction so exact matching
  // can complete below-τ edges on demand, AND an exact-neighbor index:
  // completing from the raw similarity would score pairs an approximate
  // probe (LSH/MinHash) never surfaced, silently changing results between
  // the modes. Without either (or with the ablation toggle off) the
  // stream drains to α as the seed did.
  const sim::SimilarityFunction* completer = index->similarity();
  const bool feedback = params.use_stream_feedback && completer != nullptr &&
                        index->exact_neighbors();
  EdgeCache::StopSimFn stop_fn;
  if (feedback) {
    stop_fn = [ctx]() -> Score {
      return ctx->stop_controller().ProducerStop();
    };
  }
  // The consumer pulls production along inside NextTuples, so production
  // is pipelined with refinement on this thread and its cost lands in the
  // "refinement" timer.
  EdgeCache cache(&stream, EdgeCache::InlineProducer{}, completer, stop_fn,
                  ctx);

  SearchStats& stats = result.stats;
  RefinementOutput refined;
  {
    util::TraceSpan refine_span("search.refinement");
    RefinementPhase refinement(sets_, &inverted_, query.size(), params);
    util::WallTimer timer;
    refined = refinement.Run(&cache, &stats, ctx);
    stats.timers.Accumulate("refinement", timer.ElapsedSeconds());
    refine_span.set_arg("tuples", stats.stream_tuples);
  }
  {
    util::TraceSpan post_span("search.postprocess");
    util::WallTimer timer;
    PostProcessor post(sets_, &cache, params, ctx, /*pool=*/nullptr);
    result.topk = post.Run(std::move(refined), &stats);
    stats.timers.Accumulate("postprocess", timer.ElapsedSeconds());
    post_span.set_arg("em_computed", stats.em_computed);
  }
  cache.FinishProduction();
  stats.stream_tuples_produced = cache.produced();
  stats.stream_stop_sim = cache.stop_sim();
  stats.memory.AddPeak("stream.edge_cache", cache.MemoryUsageBytes());
  stats.memory.AddPeak("index.inverted", IndexMemoryUsageBytes());
  return result;
}

}  // namespace koios::core
