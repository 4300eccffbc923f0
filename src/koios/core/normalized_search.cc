#include "koios/core/normalized_search.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "koios/core/candidate_state.h"
#include "koios/core/edge_cache.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::core {

Score NormalizedOverlap(std::span<const TokenId> query,
                        std::span<const TokenId> candidate,
                        const sim::SimilarityFunction& sim, Score alpha) {
  if (query.empty() || candidate.empty()) return 0.0;
  const Score so = matching::SemanticOverlap(query, candidate, sim, alpha);
  return so / static_cast<Score>(std::min(query.size(), candidate.size()));
}

NormalizedSearcher::NormalizedSearcher(const index::SetCollection* sets,
                                       sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

SearchResult NormalizedSearcher::Search(std::span<const TokenId> query,
                                        const SearchParams& params) {
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;
  util::WallTimer timer;

  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  EdgeCache cache(&stream);

  // ---- refinement with per-candidate normalized bounds --------------------
  CandidateTable table(sets_, query.size());
  util::TopKList<SetId> llb(params.k);  // normalized lower bounds

  // min(|Q|, |C|), the normalizer.
  auto cap_of = [](const CandidateRecord& r) {
    return static_cast<Score>(r.capacity);
  };

  for (const sim::StreamTuple& tuple : cache.tuples()) {
    const Score s = tuple.sim;
    const Score theta = llb.Bottom();
    for (SetId id : inverted_.Postings(tuple.token)) {
      uint32_t c = table.slot(id);
      if (c == CandidateTable::kPruned) continue;
      if (c == CandidateTable::kUnseen) {
        ++result.stats.candidates;
        // Arrival bound: UB = cap * s, so NSO <= s regardless of cap.
        if (params.use_iub_filter && s < theta - kScoreEps) {
          table.Prune(id);
          ++result.stats.iub_filtered;
          continue;
        }
        c = table.Admit(id, static_cast<uint32_t>(sets_->SetSize(id)));
      }
      const CandidateRecord& state = table.record(c);
      table.AddRow(c, tuple.query_pos, s);
      if (table.Match(c, tuple.query_pos, tuple.token, s)) {
        llb.Offer(id, state.partial_score / cap_of(state));
      }
      // Per-candidate normalized upper bound (no shared bucket cutoff).
      if (params.use_iub_filter &&
          state.UpperBound(s) / cap_of(state) < llb.Bottom() - kScoreEps) {
        table.Prune(id);
        ++result.stats.iub_filtered;
      }
    }
    ++result.stats.stream_tuples;
  }

  // Final sweep (slack term vanishes after exhaustion), then the
  // verification order: normalized upper bounds, descending.
  struct Item {
    Score nub;  // normalized upper bound
    SetId id;
    Score cap;
  };
  std::vector<Item> order;
  table.ForEachAlive([&](const CandidateRecord& state) {
    const Score nub = state.row_sum / cap_of(state);
    if (params.use_iub_filter && nub < llb.Bottom() - kScoreEps) {
      table.Prune(state.set);
      ++result.stats.iub_filtered;
      return;
    }
    order.push_back({nub, state.set, cap_of(state)});
  });
  result.stats.postprocess_sets += order.size();
  result.stats.timers.Accumulate("refinement", timer.ElapsedSeconds());

  // ---- verification: window over normalized upper bounds ------------------
  timer.Restart();
  std::sort(order.begin(), order.end(), [](const Item& a, const Item& b) {
    return std::tie(a.nub, a.id) > std::tie(b.nub, b.id);
  });

  // Verify in descending bound order until the k-th best verified score
  // dominates every remaining bound.
  util::TopKList<SetId> topk(params.k);
  for (const Item& item : order) {
    // Dominated: nothing left can reach the k-th verified score.
    if (topk.Full() && item.nub < topk.Bottom() - kScoreEps) break;
    const SetId id = item.id;
    std::vector<uint32_t> rows, cols;
    const matching::WeightMatrix m =
        cache.BuildMatrix(sets_->Tokens(id), &rows, &cols);
    const Score prune_threshold =
        params.use_em_early_termination && topk.Full()
            ? topk.Bottom() * item.cap
            : -1.0;
    const matching::MatchResult match =
        matching::HungarianMatcher::Solve(m, prune_threshold);
    if (match.early_terminated) {
      ++result.stats.em_early_terminated;
      continue;
    }
    ++result.stats.em_computed;
    const Score nso = match.score / item.cap;
    if (nso > 0.0) topk.Offer(id, nso);
  }
  result.stats.timers.Accumulate("postprocess", timer.ElapsedSeconds());

  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  return result;
}

}  // namespace koios::core
