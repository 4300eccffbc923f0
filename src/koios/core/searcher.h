// KoiosSearcher — the public entry point: top-k semantic overlap search
// over a set repository. A search runs on the calling thread. Splitting a
// query across parts of the repository under one global θlb (paper §VI)
// is serve::ShardCoordinator's job: each shard owns one KoiosSearcher.
#ifndef KOIOS_CORE_SEARCHER_H_
#define KOIOS_CORE_SEARCHER_H_

#include <span>

#include "koios/core/postprocess.h"
#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

class KoiosSearcher {
 public:
  /// `sets`: the repository L. `index`: a neighbor index over L's
  /// vocabulary (exact for exact search). Both must outlive the searcher.
  KoiosSearcher(const index::SetCollection* sets, sim::SimilarityIndex* index);

  /// Top-k semantic overlap search for `query` (distinct tokens).
  /// Single-consumer convenience: probes the constructor's index directly
  /// (its cursor positions are mutated), so calls must not overlap.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params);

  /// Reentrant search: identical semantics, but every piece of mutable
  /// state lives in the arguments — `index` is the per-query probe view
  /// (a SimilarityIndex::NewSession() of the shared index; sessions share
  /// built cursors behind internal synchronization), `ctx` the per-query
  /// SearchContext (deadline/cancellation; rearmed on entry; nullable).
  /// The searcher itself is immutable after construction, so any number
  /// of threads may run this concurrently with DISTINCT sessions —
  /// results are bit-identical to the single-consumer overload (cursor
  /// payloads are deterministic in (token, α), and the feedback loop's
  /// withheld bounds never depend on other sessions' progress). Throws
  /// SearchAborted when `ctx` expires mid-query.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params, sim::SimilarityIndex* index,
                      SearchContext* ctx) const;

  /// True if `token` occurs in the repository vocabulary D.
  bool InVocabulary(TokenId token) const {
    return inverted_.InVocabulary(token);
  }

  /// Footprint of the searcher's inverted index.
  size_t IndexMemoryUsageBytes() const { return inverted_.MemoryUsageBytes(); }

 private:
  const index::SetCollection* sets_;
  sim::SimilarityIndex* index_;
  index::InvertedIndex inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCHER_H_
