#include "koios/core/refinement.h"

#include <algorithm>

#include "koios/core/bucket_index.h"

namespace koios::core {

RefinementPhase::RefinementPhase(const index::SetCollection* sets,
                                 const index::InvertedIndex* inverted,
                                 size_t query_size, const SearchParams& params)
    : sets_(sets),
      inverted_(inverted),
      query_size_(query_size),
      params_(params) {}

RefinementOutput RefinementPhase::Run(EdgeCache* cache, SearchStats* stats,
                                      SearchContext* ctx) {
  GlobalThreshold* global_theta = ctx != nullptr ? &ctx->global_theta() : nullptr;
  RefinementOutput out;
  out.llb = util::TopKList<SetId>(params_.k);

  // The bucket filter keeps the live candidates in its heaps; every other
  // configuration (naive iUB ablation, no iUB) keeps them in `live`.
  const bool bucketed = params_.use_iub_filter && params_.use_bucket_index;
  CandidateTable table(sets_, query_size_);
  BucketIndex buckets;
  std::vector<uint32_t> live;

  auto current_theta = [&]() -> Score {
    const Score local = out.llb.Bottom();
    if (global_theta == nullptr) return local;
    return std::max(local, global_theta->Get());
  };
  Score theta_lb = current_theta();
  Score last_sim = 1.0;

  // Refinement's footprint, at its largest: the arena just before each
  // compaction and at the end.
  size_t arena_peak = 0;
  auto note_arena = [&] {
    arena_peak = std::max(arena_peak, table.MemoryUsageBytes() +
                                          buckets.MemoryUsageBytes() +
                                          live.capacity() * sizeof(uint32_t));
  };
  // Once pruned candidates outnumber the live ones, copy the live ones
  // into fresh arrays and renumber them in the buckets: the stream cache
  // keeps growing meanwhile, so holding the dead would raise the query's
  // peak memory. Each compaction copies at most twice the records pruned
  // since the last one.
  constexpr size_t kMinCompaction = 256;
  std::vector<uint32_t> renamed;
  auto maybe_compact = [&] {
    const size_t live_count = bucketed ? buckets.size() : live.size();
    const size_t dead = table.size() - live_count;
    if (dead < kMinCompaction || dead < live_count) return;
    note_arena();
    renamed.assign(table.size(), CandidateTable::kPruned);
    table.Compact([&](uint32_t from, uint32_t to) { renamed[from] = to; });
    if (bucketed) {
      buckets.Renumber(renamed);
    } else {
      for (uint32_t& c : live) c = renamed[c];
    }
  };

  auto prune_candidate = [&](uint32_t c) {
    table.Prune(table.record(c).set);
    ++stats->iub_filtered;
  };
  // Filters every live candidate by UpperBound(s) (the bucket index's job
  // when it is on).
  auto prune_below = [&](Score s) {
    if (bucketed) {
      buckets.Prune(s, theta_lb, prune_candidate);
      return;
    }
    std::erase_if(live, [&](uint32_t c) {
      if (table.record(c).UpperBound(s) >= theta_lb - kScoreEps) return false;
      prune_candidate(c);
      return true;
    });
  };

  // Consumer-side stop (feedback only, so the drain-to-α ablation replays
  // the stream bit for bit). Condition 1 — exactness: |Q|·s < θlb − ε
  // rules every unseen set out (Lemma 2) and pruning is monotone in θlb.
  // Condition 2 — work balance: stopping freezes every survivor's upper
  // bound at UpperBound(s), so it must not strand more candidates above
  // θlb than post-processing can cheaply dismiss; the bucket index counts
  // the would-be survivors from the partial scores (§V's structure reused
  // verbatim). The count runs at a coarse cadence — it costs O(candidates)
  // worst case, versus an inverted-index probe per tuple.
  const bool may_stop_early = cache->FeedbackEnabled();
  const Score query_size_score = static_cast<Score>(query_size_);
  constexpr size_t kMinSurvivorBudget = 32;
  const size_t fixed_budget =
      std::max<size_t>(kMinSurvivorBudget, 4 * params_.k);
  // Adaptive budget (rent-to-buy, SearchParams::use_adaptive_survivor_budget):
  // strand at most as much estimated EM work as the streaming work already
  // spent, with one EM costed at adaptive_em_cost_tuples stream tuples.
  // Both sides of that balance scale with the per-tuple cost, so it
  // cancels and the rule reduces to tuples_consumed / ratio — which is
  // precisely what makes it robust (no clock, no machine constant): on
  // hardware where tuples are slow, the same tuple count represents
  // proportionally more sunk cost AND proportionally costlier EMs. The
  // budget only ever DELAYS the stop, so exactness is untouched; stats
  // record the value in force at the stop.
  auto survivor_budget = [&]() -> size_t {
    if (!params_.use_adaptive_survivor_budget) return fixed_budget;
    const double affordable = static_cast<double>(stats->stream_tuples) /
                              std::max(params_.adaptive_em_cost_tuples, 1.0);
    return std::max(kMinSurvivorBudget, static_cast<size_t>(affordable));
  };
  constexpr size_t kStopCheckCadence = 64;
  size_t next_stop_check = 0;
  size_t next_cancel_check = 0;
  bool stopped_early = false;
  auto should_stop = [&](Score s) {
    if (ctx != nullptr && stats->stream_tuples >= next_cancel_check) {
      // Deadline/cancellation poll at the stop-check cadence: cheap, and
      // frequent enough that an expired query unwinds within a few dozen
      // tuples.
      next_cancel_check = stats->stream_tuples + kStopCheckCadence;
      ctx->CheckCancelled();
    }
    if (!may_stop_early || s * query_size_score >= theta_lb - kScoreEps) {
      return false;
    }
    if (stats->stream_tuples < next_stop_check) return false;
    next_stop_check = stats->stream_tuples + kStopCheckCadence;
    const size_t budget = survivor_budget();
    size_t survivors;
    if (bucketed) {
      survivors = buckets.CountSurvivors(s, theta_lb, budget);
    } else {
      survivors = 0;
      for (uint32_t c : live) {
        if (table.record(c).UpperBound(s) >= theta_lb - kScoreEps) ++survivors;
        if (survivors > budget) break;
      }
    }
    if (survivors <= budget) {
      stats->stream_survivor_budget =
          std::max(stats->stream_survivor_budget, budget);
      return true;
    }
    return false;
  };

  auto process_tuple = [&](const sim::StreamTuple& tuple) {
    const Score s = tuple.sim;
    last_sim = s;

    // Bucketized iUB filter: the arrival of similarity s tightens every
    // candidate's upper bound to S_i + m_i * s; pop each bucket's smallest
    // partial scores (§V). Without the bucket index (ablation), each
    // candidate is checked individually.
    if (params_.use_iub_filter) {
      prune_below(s);
      maybe_compact();
    }

    // Probe the inverted index and update the sets containing this token.
    for (SetId id : inverted_->Postings(tuple.token)) {
      uint32_t c = table.slot(id);
      if (c == CandidateTable::kPruned) continue;

      if (c == CandidateTable::kUnseen) {
        // First sighting: s is this set's maximum element similarity to
        // any query element, so UB(C) = min(|Q|, |C|) * s (Lemma 2).
        ++stats->candidates;
        const uint32_t set_size = static_cast<uint32_t>(sets_->SetSize(id));
        if (params_.use_iub_filter &&
            static_cast<Score>(std::min<size_t>(set_size, query_size_)) * s <
                theta_lb - kScoreEps) {
          table.Prune(id);
          ++stats->iub_filtered;
          continue;
        }
        c = table.Admit(id, set_size);
        // The first row is retained before the candidate enters its
        // bucket, so the index never holds the momentary (capacity, 0)
        // entry; the retention still counts as the bucket move it is.
        const bool retained = table.AddRow(c, tuple.query_pos, s);
        if (bucketed) {
          const CandidateRecord& r = table.record(c);
          buckets.Insert(c, r.remaining(), r.row_sum);
          stats->bucket_moves += retained;
        } else {
          live.push_back(c);
        }
      } else if (table.AddRow(c, tuple.query_pos, s) && bucketed) {
        // iUB row update: retain this row's maximum if the row is new and
        // capacity remains (see CandidateRecord's comment for the sound
        // bound replacing the paper's Lemma 6).
        const CandidateRecord& r = table.record(c);
        buckets.Move(c, r.remaining(), r.row_sum);
        ++stats->bucket_moves;
      }

      // Partial greedy matching update (iLB, Lemma 5): accept the edge iff
      // both endpoints are unmatched. Stream order makes this the true
      // greedy matching over the edges seen so far.
      if (table.Match(c, tuple.query_pos, tuple.token, s)) {
        // LB grew; the running top-k list and θlb may improve (Lemma 4).
        // Partial scores only grow, so a listed set's new score exceeds
        // the list's bottom: a score below a full list's bottom belongs to
        // an unlisted set and would be turned away.
        const Score lb = table.record(c).partial_score;
        if (!out.llb.Full() || lb >= out.llb.Bottom()) {
          out.llb.Offer(id, lb);
          if (global_theta != nullptr && out.llb.Full()) {
            global_theta->Publish(out.llb.Bottom());
          }
        }
        theta_lb = current_theta();
      }
    }
    ++stats->stream_tuples;
  };

  if (cache->Materialized()) {
    // Sealed (a synchronously drained cache, or production that already
    // reached the stream's end): replay in place.
    for (const sim::StreamTuple& tuple : cache->tuples()) {
      if (should_stop(tuple.sim)) {
        out.ub_slack = tuple.sim;
        stopped_early = true;
        break;
      }
      process_tuple(tuple);
    }
  } else {
    // Pipelined search: production happens inside NextTuples on this very
    // thread; pull copies in chunks through the cache's incremental
    // interface.
    std::vector<sim::StreamTuple> chunk(EdgeCache::kConsumeChunk);
    size_t consumed = 0;
    while (!stopped_early) {
      const size_t n =
          cache->NextTuples(consumed, std::span<sim::StreamTuple>(chunk));
      if (n == 0) break;
      for (size_t i = 0; i < n; ++i) {
        if (should_stop(chunk[i].sim)) {
          out.ub_slack = chunk[i].sim;
          stopped_early = true;
          break;
        }
        process_tuple(chunk[i]);
      }
      consumed += n;
    }
  }
  if (stopped_early) {
    // Declare the stop so the producer may cease materializing below it.
    // stopped_early implies feedback was enabled, which implies a context
    // exists (the searcher only wires a stop source when it has one).
    if (ctx != nullptr) {
      ctx->stop_controller().PublishConsumerStop(out.ub_slack);
    }
  } else {
    // Consumed everything produced; unprocessed pairs are exactly the ones
    // the producer's feedback stop withheld (0 when drained to α).
    out.ub_slack = cache->stop_sim();
  }

  // Final sweep after the stream ends: the slack term drops to ub_slack —
  // 0 at exhaustion (a row without a retained maximum has no α-edge left),
  // the stop similarity when the feedback loop ended the stream early. For
  // the bucket filter this is exactly a prune pass with sim = ub_slack.
  if (params_.use_iub_filter) prune_below(out.ub_slack);

  table.ForEachAlive([&](const CandidateRecord& r) {
    out.survivors.push_back(r);
  });
  out.last_sim = last_sim;
  stats->postprocess_sets += out.survivors.size();
  note_arena();
  stats->memory.AddPeak("refinement.candidates", arena_peak);
  stats->memory.AddPeak("refinement.status", table.SlotBytes());
  stats->memory.AddPeak("refinement.llb", out.llb.MemoryUsageBytes());
  return out;
}

}  // namespace koios::core
