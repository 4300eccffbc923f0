// Materialized token stream + similarity cache.
//
// Refinement consumes the stream Ie in non-increasing similarity order. We
// materialize the consumed prefix once per query: the α-surviving edges
// double as the similarity cache the paper reuses when initializing the
// matching matrices during post-processing (§VIII-A3).
//
// Materialization is BOUNDED by the θlb feedback loop (§IV–VI): the
// producer polls a stop-similarity source (derived from the query's
// GlobalThreshold, which the shards of a sharded query share) before every
// tuple and stops the stream once no unseen set can reach the top-k —
// tuples below τ are never ordered, scored or materialized. The cache then records the stop similarity so
// consumers can (a) keep it as upper-bound slack and (b) have BuildMatrix
// complete the missing below-τ edges on demand through the similarity's
// batch kernels, preserving exactness end to end. Without a stop source
// the stream drains to α exactly as the seed did.
//
// Production is inline: the consumer drives it from inside NextTuples(),
// so refinement and cursor ordering interleave on one thread. The one-arg
// constructor drains the whole stream up front; the InlineProducer
// constructor produces on demand, and FinishProduction() seals the cache
// once consumption is over. The consumer owns its cursor (`from`), so the
// cache can also be replayed from the start.
#ifndef KOIOS_CORE_EDGE_CACHE_H_
#define KOIOS_CORE_EDGE_CACHE_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "koios/matching/hungarian.h"
#include "koios/sim/similarity.h"
#include "koios/sim/token_stream.h"
#include "koios/util/types.h"

namespace koios::core {

class SearchContext;

/// One α-surviving edge incident to vocabulary token `t`: the query
/// position and the similarity.
struct CachedEdge {
  uint32_t query_pos = 0;
  double sim = 0.0;  // double: cached weights must match the oracle exactly
};

class EdgeCache {
 public:
  /// Current stop similarity for the producer (0 = no stop, drain to α).
  /// Values returned across calls must be non-decreasing; the searcher
  /// derives them from the monotone GlobalThreshold.
  using StopSimFn = std::function<Score()>;

  /// Drains `stream` to α in the constructor (order preserved in
  /// `tuples()`, per-token edge lists in `EdgesOf`).
  explicit EdgeCache(sim::TokenStream* stream);

  /// On-demand production: NextTuples() produces what its consumer asks
  /// for. `completer` (the index's SimilarityFunction) enables BuildMatrix
  /// to fill in edges the stream never produced; `stop_sim` (requires
  /// `completer`) enables bounded materialization — both nullable,
  /// yielding the seed drain-to-α cache. `ctx` (nullable) lets production
  /// honor a per-query deadline: NextTuples polls it and throws
  /// SearchAborted. Call FinishProduction() once consumption is over.
  struct InlineProducer {};
  EdgeCache(sim::TokenStream* stream, InlineProducer,
            const sim::SimilarityFunction* completer = nullptr,
            StopSimFn stop_sim = nullptr, const SearchContext* ctx = nullptr);

  /// Seals the cache at the stream's current position (stop state is
  /// taken from the stream). No-op when already sealed.
  void FinishProduction();

  /// Copies up to `buf.size()` tuples starting at stream position `from`
  /// into `buf` and returns how many were copied; 0 means the stream is
  /// exhausted (or stopped) at `from`. Positions not yet materialized are
  /// produced on the spot. Each consumer owns its own cursor (`from`), so
  /// consumers can replay the stream one after another.
  size_t NextTuples(size_t from, std::span<sim::StreamTuple> buf);

  /// True once the cache is sealed; tuples() is then immutable and can be
  /// iterated by reference, skipping NextTuples' copies.
  bool Materialized() const { return done_; }

  /// True when the feedback loop is wired (a stop-similarity source was
  /// supplied). Refinement consumers use this to decide whether they may
  /// stop consuming early themselves.
  bool FeedbackEnabled() const { return stop_sim_fn_ != nullptr; }

  /// Chunk size a pulling consumer should request. Production happens
  /// inside the consumer's NextTuples call and overshoots it by up to one
  /// chunk — a fine grain keeps the θlb feedback tight (the producer's
  /// stop poll only sees lower bounds published from tuples the consumer
  /// already processed).
  static constexpr size_t kConsumeChunk = 16;

  // --- post-completion accessors ------------------------------------------
  // The cache must be SEALED (FinishProduction, or production hitting the
  // stream's end) before tuples()/ExhaustedToAlpha()/stop_sim() are
  // meaningful, which the asserts below enforce (an unsealed cache would
  // hand out a reference into a still-growing vector and default stop
  // state).

  /// Number of tuples produced (stats: stream_tuples_produced).
  size_t produced() const { return tuples_.size(); }

  /// True if the stream drained to α; false if the feedback loop or the
  /// consumers stopped it early, in which case stop_sim() is the slack.
  bool ExhaustedToAlpha() const {
    assert(done_);
    return exhausted_;
  }

  /// Sound upper bound on the similarity of every pair the stream did not
  /// produce: 0 when drained to α, the stop similarity otherwise.
  Score stop_sim() const {
    assert(done_);
    return stop_sim_;
  }

  /// The produced stream prefix in emission order. Asserts sealed — the
  /// vector may still grow before that.
  const std::vector<sim::StreamTuple>& tuples() const {
    assert(done_);
    return tuples_;
  }

  /// Produced α-surviving edges of token `t` (empty if none). May be used
  /// on an unsealed cache: BuildMatrix's completion overlay reads the
  /// current prefix, which is exact because completion computes every
  /// missing pair anyway. The returned span is invalidated by any further
  /// production.
  std::span<const CachedEdge> EdgesOf(TokenId t) const;

  /// Builds the bipartite weight matrix of the query vs the tokens of a
  /// candidate set, restricted to nodes with at least one α-edge. Returns
  /// the number of query rows/set columns used via the out vectors (row r
  /// corresponds to query position query_rows[r], column c to
  /// candidate_tokens[set_cols[c]]). When the stream stopped early, the
  /// below-stop edges missing from the cache are completed with ONE
  /// SimilarityBatchMulti kernel call (cached edges stay authoritative), so
  /// exact matching always sees the full simα matrix of the paper.
  matching::WeightMatrix BuildMatrix(std::span<const TokenId> candidate_tokens,
                                     std::vector<uint32_t>* query_rows,
                                     std::vector<uint32_t>* set_cols) const;

  /// BuildMatrix into a caller-owned matrix (capacity reuse across the
  /// post-processing EM batches; see matching::HungarianWorkspace).
  void BuildMatrixInto(std::span<const TokenId> candidate_tokens,
                       std::vector<uint32_t>* query_rows,
                       std::vector<uint32_t>* set_cols,
                       matching::WeightMatrix* m) const;

  size_t MemoryUsageBytes() const;

 private:
  /// Produces tuples until `until` tuples exist or the stream ends.
  void Produce(size_t until);
  /// Records the stream's stop state and marks the cache sealed.
  void Seal(bool exhausted, Score stop_sim);

  sim::TokenStream* stream_;  // null once sealed
  const sim::SimilarityFunction* completer_ = nullptr;
  const SearchContext* ctx_ = nullptr;  // deadline source (nullable)
  StopSimFn stop_sim_fn_;
  std::vector<TokenId> query_;  // the stream's query (matrix completion)
  Score alpha_ = 0.0;
  std::vector<sim::StreamTuple> tuples_;
  std::unordered_map<TokenId, std::vector<CachedEdge>> edges_;
  bool done_ = false;
  bool exhausted_ = true;   // valid once done_
  Score stop_sim_ = 0.0;    // valid once done_
};

}  // namespace koios::core

#endif  // KOIOS_CORE_EDGE_CACHE_H_
