#include "koios/core/many_to_one.h"

#include <algorithm>

#include "koios/core/bucket_index.h"
#include "koios/core/candidate_state.h"
#include "koios/core/edge_cache.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::core {

Score ManyToOneOverlap(std::span<const TokenId> query,
                       std::span<const TokenId> candidate,
                       const sim::SimilarityFunction& sim, Score alpha) {
  Score total = 0.0;
  for (TokenId q : query) {
    Score best = 0.0;
    for (TokenId c : candidate) {
      best = std::max(best, sim.SimilarityAlpha(q, c, alpha));
    }
    total += best;
  }
  return total;
}

ManyToOneSearcher::ManyToOneSearcher(const index::SetCollection* sets,
                                     sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

SearchResult ManyToOneSearcher::Search(std::span<const TokenId> query,
                                       const SearchParams& params) {
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;
  util::WallTimer timer;

  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });

  // Per-candidate state: the retained query rows (first edge per row = row
  // max, by stream order) and their sum, the accumulated score. Unlike the
  // 1:1 engine there is no capacity cap — every query row contributes — so
  // each set is admitted with |C| := |Q| and no matching is tracked.
  const uint32_t rows_total = static_cast<uint32_t>(query.size());
  CandidateTable table(sets_, query.size());
  util::TopKList<SetId> topk(params.k);
  BucketIndex buckets;  // key: |Q| - rows seen; value: score

  size_t tuples = 0;
  while (auto tuple = stream.Next()) {
    ++tuples;
    const Score s = tuple->sim;
    // The bound score + remaining_rows * s is *exact* at convergence: it is
    // the same retained-row-maxima bound as the 1:1 engine, which for the
    // many-to-one measure equals the final score.
    if (params.use_iub_filter) {
      buckets.Prune(s, topk.Bottom(), [&](uint32_t c) {
        table.Prune(table.record(c).set);
        ++result.stats.iub_filtered;
      });
    }
    for (SetId id : inverted_.Postings(tuple->token)) {
      uint32_t c = table.slot(id);
      if (c == CandidateTable::kPruned) continue;
      if (c == CandidateTable::kUnseen) {
        ++result.stats.candidates;
        const Score ub0 = static_cast<Score>(rows_total) * s;
        if (params.use_iub_filter && ub0 < topk.Bottom() - kScoreEps) {
          table.Prune(id);
          ++result.stats.iub_filtered;
          continue;
        }
        c = table.Admit(id, rows_total);
        if (params.use_iub_filter) buckets.Insert(c, rows_total, 0.0);
      }
      if (table.AddRow(c, tuple->query_pos, s)) {
        const CandidateRecord& state = table.record(c);
        if (params.use_iub_filter) {
          buckets.Move(c, state.remaining(), state.row_sum);
          ++result.stats.bucket_moves;
        }
        // The accumulated score is itself a lower bound on the final score,
        // so the running top-k threshold may rise immediately.
        topk.Offer(id, state.row_sum);
      }
    }
  }
  result.stats.stream_tuples = tuples;

  // Stream exhausted: every candidate's accumulated score is exact. The
  // top-k list already holds the answer (scores were offered monotonically).
  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  result.stats.timers.Accumulate("refinement", timer.ElapsedSeconds());
  result.stats.memory.AddPeak(
      "many_to_one.states",
      table.MemoryUsageBytes() + buckets.MemoryUsageBytes());
  return result;
}

}  // namespace koios::core
