#include "koios/core/threshold_search.h"

#include <algorithm>

#include "koios/core/bucket_index.h"
#include "koios/core/candidate_state.h"
#include "koios/core/edge_cache.h"
#include "koios/matching/hungarian.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"

namespace koios::core {

ThresholdSearcher::ThresholdSearcher(const index::SetCollection* sets,
                                     sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

std::vector<ResultEntry> ThresholdSearcher::Search(
    std::span<const TokenId> query, const ThresholdParams& params,
    SearchStats* stats) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  std::vector<ResultEntry> result;
  if (query.empty() || sets_->size() == 0) return result;

  util::WallTimer timer;
  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  EdgeCache cache(&stream);

  // ---- refinement with the fixed threshold θ -----------------------------
  const Score theta = params.theta;
  CandidateTable table(sets_, query.size());
  BucketIndex buckets;

  auto prune = [&](uint32_t c) {
    table.Prune(table.record(c).set);
    ++stats->iub_filtered;
  };

  for (const sim::StreamTuple& tuple : cache.tuples()) {
    const Score s = tuple.sim;
    buckets.Prune(s, theta, prune);
    for (SetId id : inverted_.Postings(tuple.token)) {
      uint32_t c = table.slot(id);
      if (c == CandidateTable::kPruned) continue;
      if (c == CandidateTable::kUnseen) {
        ++stats->candidates;
        const uint32_t set_size = static_cast<uint32_t>(sets_->SetSize(id));
        if (static_cast<Score>(std::min<size_t>(set_size, query.size())) * s <
            theta - kScoreEps) {
          table.Prune(id);
          ++stats->iub_filtered;
          continue;
        }
        c = table.Admit(id, set_size);
        buckets.Insert(c, table.record(c).remaining(), table.record(c).row_sum);
      }
      if (table.AddRow(c, tuple.query_pos, s)) {
        buckets.Move(c, table.record(c).remaining(), table.record(c).row_sum);
        ++stats->bucket_moves;
      }
      table.Match(c, tuple.query_pos, tuple.token, s);
    }
    ++stats->stream_tuples;
  }
  buckets.Prune(0.0, theta, prune);  // stream exhausted: the slack term is 0
  stats->timers.Accumulate("refinement", timer.ElapsedSeconds());

  // ---- verification -------------------------------------------------------
  timer.Restart();
  stats->postprocess_sets += buckets.size();
  table.ForEachAlive([&](const CandidateRecord& state) {
    const SetId id = state.set;
    ResultEntry entry;
    entry.set = id;
    if (params.use_lb_admission &&
        state.partial_score >= theta - kScoreEps && !params.verify_scores) {
      // Greedy lower bound certifies membership; skip the matching.
      entry.score = state.partial_score;
      entry.exact = false;
      ++stats->no_em_skipped;
      result.push_back(entry);
      return;
    }
    std::vector<uint32_t> rows, cols;
    const matching::WeightMatrix m =
        cache.BuildMatrix(sets_->Tokens(id), &rows, &cols);
    const double prune_threshold =
        params.use_em_early_termination ? theta : -1.0;
    const matching::MatchResult match =
        matching::HungarianMatcher::Solve(m, prune_threshold);
    if (match.early_terminated) {
      ++stats->em_early_terminated;
      return;  // certified SO < theta
    }
    ++stats->em_computed;
    if (match.score >= theta - kScoreEps) {
      entry.score = match.score;
      entry.exact = true;
      result.push_back(entry);
    }
  });
  stats->timers.Accumulate("postprocess", timer.ElapsedSeconds());

  std::sort(result.begin(), result.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.set < b.set;
            });
  return result;
}

}  // namespace koios::core
