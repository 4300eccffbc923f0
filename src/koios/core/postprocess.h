// The post-processing phase of Koios (paper §VI, Algorithm 2): verify the
// surviving candidates with exact bipartite matching, skipping it whenever
// the No-EM filter (Lemma 7) certifies membership and aborting it whenever
// the Hungarian dual bound drops below θlb (EM early termination, Lemma 8).
#ifndef KOIOS_CORE_POSTPROCESS_H_
#define KOIOS_CORE_POSTPROCESS_H_

#include <atomic>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/core/search_types.h"
#include "koios/index/set_collection.h"
#include "koios/util/thread_pool.h"

namespace koios::core {

class PostProcessor {
 public:
  /// `ctx` may be null (phase-level tests): its GlobalThreshold is the
  /// query's θlb (cross-shard when sharded), its deadline/cancellation is
  /// polled between exact-matching batches (throwing SearchAborted). `pool`
  /// may be null; with a pool, exact matchings run in parallel batches as
  /// wide as the pool as in the paper ("all sets in Lub are queued and evaluated in
  /// parallel in the background").
  PostProcessor(const index::SetCollection* sets, const EdgeCache* cache,
                const SearchParams& params, SearchContext* ctx,
                util::ThreadPool* pool);

  /// Consumes the refinement output and returns the top-k result entries in
  /// non-increasing score order.
  std::vector<ResultEntry> Run(RefinementOutput refinement, SearchStats* stats);

 private:
  Score ThetaLb(Score local) const;

  /// One exact matching of candidate `id` through the calling thread's
  /// scratch arena (matrix + HungarianWorkspace reused across solves;
  /// counts warm hits into workspace_reuses_).
  matching::MatchResult SolveWithScratch(SetId id, Score prune_threshold);

  const index::SetCollection* sets_;
  const EdgeCache* cache_;
  SearchParams params_;
  SearchContext* ctx_;
  GlobalThreshold* global_theta_;  // &ctx_->global_theta(), null without ctx
  util::ThreadPool* pool_;
  // Solves that hit a warm thread-local HungarianWorkspace (stats:
  // em_workspace_reuses); atomic because the EM batches run on the pool.
  std::atomic<size_t> workspace_reuses_{0};
};

}  // namespace koios::core

#endif  // KOIOS_CORE_POSTPROCESS_H_
