#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/index/inverted_index.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::core {
namespace {

struct RefinementHarness {
  explicit RefinementHarness(testing::RandomWorkload* w, std::vector<TokenId> q,
                             Score alpha)
      : workload(w),
        query(std::move(q)),
        inverted(w->corpus.sets),
        stream(query, w->index.get(), alpha,
               [this](TokenId t) { return inverted.InVocabulary(t); }),
        cache(&stream) {}

  RefinementOutput Run(const SearchParams& params, SearchStats* stats) {
    RefinementPhase phase(&workload->corpus.sets, &inverted, query.size(),
                          params);
    return phase.Run(&cache, stats);
  }

  testing::RandomWorkload* workload;
  std::vector<TokenId> query;
  index::InvertedIndex inverted;
  sim::TokenStream stream;
  EdgeCache cache;
};

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

TEST(RefinementTest, SurvivorsContainEveryTrueTopKSet) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 501);
  const auto query = QueryOf(w, 4);
  const Score alpha = 0.8;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 5;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);

  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, alpha);
  const Score theta_star = testing::OracleKthScore(oracle, params.k);
  std::set<SetId> survivor_ids;
  for (const auto& s : out.survivors) survivor_ids.insert(s.set);
  // No set scoring strictly above θ*k may be refinement-pruned; ties may
  // legitimately go either way.
  for (const auto& [id, so] : oracle) {
    if (so > theta_star + 1e-9) {
      EXPECT_TRUE(survivor_ids.count(id))
          << "true top set " << id << " (SO " << so << ") pruned";
    }
  }
}

TEST(RefinementTest, BoundsBracketTrueScore) {
  auto w = testing::MakeRandomWorkload(80, 400, 5, 18, 502);
  const auto query = QueryOf(w, 7);
  const Score alpha = 0.75;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 10;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  for (const auto& state : out.survivors) {
    const Score so = matching::SemanticOverlap(
        query, w.corpus.sets.Tokens(state.set), *w.sim, alpha);
    EXPECT_LE(state.partial_score, so + 1e-9) << "LB above SO";
    EXPECT_GE(state.UpperBound(out.last_sim) + 1e-9, so) << "UB below SO";
    EXPECT_GE(state.partial_score + 1e-9, so / 2.0) << "greedy guarantee";
  }
}

TEST(RefinementTest, LbInitializedWithVanillaOverlap) {
  // A candidate set sharing elements with the query must have LB at least
  // its vanilla overlap (self matches arrive first at sim 1.0).
  auto w = testing::MakeRandomWorkload(60, 300, 8, 20, 503);
  const auto query = QueryOf(w, 2);
  std::vector<TokenId> sorted_query = query;
  std::sort(sorted_query.begin(), sorted_query.end());
  RefinementHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  for (const auto& state : out.survivors) {
    const size_t vanilla =
        w.corpus.sets.VanillaOverlap(sorted_query, state.set);
    EXPECT_GE(state.partial_score + 1e-9, static_cast<Score>(vanilla))
        << "set " << state.set;
  }
}

TEST(RefinementTest, FiltersOnlyReduceSurvivors) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 504);
  const auto query = QueryOf(w, 11);
  RefinementHarness harness(&w, query, 0.8);
  SearchParams with, without;
  with.k = without.k = 10;
  with.alpha = without.alpha = 0.8;
  without.use_iub_filter = false;
  SearchStats s1, s2;
  const auto filtered = harness.Run(with, &s1);
  const auto unfiltered = harness.Run(without, &s2);
  EXPECT_LE(filtered.survivors.size(), unfiltered.survivors.size());
  EXPECT_GT(s1.iub_filtered, 0u);
  EXPECT_EQ(s2.iub_filtered, 0u);
  EXPECT_EQ(s1.candidates, s2.candidates);
}

TEST(RefinementTest, BucketAndNaiveIubAgreeOnSurvivorSets) {
  // The bucketized filter is an *implementation* of the naive per-tuple
  // scan; both must prune exactly the same sets, on a query within one bit
  // word and on one over three (|Q| = 146), whose refinement prunes enough
  // admitted candidates mid-stream to compact its arena.
  auto small = testing::MakeRandomWorkload(120, 500, 5, 20, 505);
  auto large = testing::MakeRandomWorkload(800, 1500, 5, 150, 519);
  struct Case {
    testing::RandomWorkload* w;
    std::vector<TokenId> query;
    Score alpha;
    size_t k;
  };
  const std::vector<Case> cases = {{&small, QueryOf(small, 9), 0.78, 8},
                                   {&large, QueryOf(large, 0), 0.8, 5}};
  ASSERT_GT(cases[1].query.size(), 128u);
  for (const Case& c : cases) {
    RefinementHarness harness(c.w, c.query, c.alpha);
    SearchParams bucketed, naive;
    bucketed.k = naive.k = c.k;
    bucketed.alpha = naive.alpha = c.alpha;
    naive.use_bucket_index = false;
    SearchStats s1, s2;
    const auto a = harness.Run(bucketed, &s1);
    const auto b = harness.Run(naive, &s2);
    std::set<SetId> sa, sb;
    for (const auto& s : a.survivors) sa.insert(s.set);
    for (const auto& s : b.survivors) sb.insert(s.set);
    EXPECT_EQ(sa, sb) << "|Q| = " << c.query.size();
    EXPECT_EQ(s1.candidates, s2.candidates);
    EXPECT_EQ(s1.iub_filtered, s2.iub_filtered);
    EXPECT_EQ(s1.stream_tuples, s2.stream_tuples);
    EXPECT_EQ(s1.postprocess_sets, s2.postprocess_sets);
    EXPECT_EQ(a.llb.Bottom(), b.llb.Bottom());
    EXPECT_GT(s1.bucket_moves, 0u);
    EXPECT_EQ(s2.bucket_moves, 0u);
  }
}

TEST(RefinementTest, ThetaLbNeverExceedsThetaStar) {
  auto w = testing::MakeRandomWorkload(90, 400, 5, 20, 506);
  const auto query = QueryOf(w, 3);
  const Score alpha = 0.8;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 7;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, alpha);
  EXPECT_LE(out.llb.Bottom(),
            testing::OracleKthScore(oracle, params.k) + 1e-9);
}

TEST(RefinementTest, EmptyStreamYieldsNoCandidates) {
  auto w = testing::MakeRandomWorkload(50, 300, 5, 15, 507);
  // Query of one token far outside the vocabulary: no self match, no edges.
  RefinementHarness harness(&w, {static_cast<TokenId>(9'999'999)}, 0.8);
  SearchParams params;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  EXPECT_TRUE(out.survivors.empty());
  EXPECT_EQ(stats.candidates, 0u);
}

TEST(RefinementTest, StatsCountsAreConsistent) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 508);
  const auto query = QueryOf(w, 1);
  RefinementHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  EXPECT_EQ(stats.candidates, stats.iub_filtered + out.survivors.size());
  EXPECT_EQ(stats.stream_tuples, harness.cache.tuples().size());
  EXPECT_GT(stats.postprocess_sets, 0u);
}

TEST(RefinementTest, GoldenCountersForFixedSeed) {
  // Changing refinement's data structures must not change its work: these
  // counts must stay fixed for these inputs (query: set 0 of the corpus).
  // The first query spans two bit words; the second spans three and
  // compacts its arena mid-stream.
  struct Golden {
    size_t num_sets, vocab, max_size;
    uint64_t seed;
    Score alpha;
    size_t k;
    size_t query_size, candidates, iub_filtered, bucket_moves, stream_tuples,
        postprocess_sets;
  };
  const Golden goldens[] = {
      {400, 1500, 120, 513, 0.75, 5, 87, 400, 302, 12655, 585, 98},
      {800, 1500, 150, 519, 0.8, 5, 146, 800, 561, 40901, 1393, 239},
  };
  for (const Golden& g : goldens) {
    auto w = testing::MakeRandomWorkload(g.num_sets, g.vocab, 5, g.max_size,
                                         g.seed);
    const auto query = QueryOf(w, 0);
    ASSERT_EQ(query.size(), g.query_size);
    RefinementHarness harness(&w, query, g.alpha);
    SearchParams params;
    params.k = g.k;
    params.alpha = g.alpha;
    SearchStats stats;
    const RefinementOutput out = harness.Run(params, &stats);
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(stats.candidates, g.candidates);
    EXPECT_EQ(stats.iub_filtered, g.iub_filtered);
    EXPECT_EQ(stats.bucket_moves, g.bucket_moves);
    EXPECT_EQ(stats.stream_tuples, g.stream_tuples);
    EXPECT_EQ(stats.postprocess_sets, g.postprocess_sets);
    EXPECT_EQ(out.survivors.size(), g.postprocess_sets);
  }
}

TEST(RefinementTest, SetPrunedAtFirstSightingIsNeverReadmitted) {
  // k = 1 and a query that is itself a corpus set: its self matches (sim
  // 1.0, streamed first) lift θlb to |Q|, so every set first sighted below
  // sim 1.0 is pruned on arrival (UB = min(|Q|, |C|)·s < |Q|). Those sets
  // keep showing up in later posting lists; each must be counted as a
  // candidate once and never survive.
  auto w = testing::MakeRandomWorkload(150, 400, 5, 30, 514);
  const auto query = QueryOf(w, 3);
  RefinementHarness harness(&w, query, 0.7);
  SearchParams params;
  params.k = 1;
  params.alpha = 0.7;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);

  std::vector<int> sightings(w.corpus.sets.size(), 0);
  std::set<SetId> pruned_on_arrival;
  for (const sim::StreamTuple& tuple : harness.cache.tuples()) {
    for (SetId id : harness.inverted.Postings(tuple.token)) {
      if (sightings[id]++ == 0 && tuple.sim < 1.0) pruned_on_arrival.insert(id);
    }
  }
  size_t sighted = 0, seen_again = 0;
  for (SetId id = 0; id < sightings.size(); ++id) {
    sighted += sightings[id] > 0;
    seen_again += pruned_on_arrival.count(id) > 0 && sightings[id] > 1;
  }
  ASSERT_GT(pruned_on_arrival.size(), 0u);
  ASSERT_GT(seen_again, 0u);
  EXPECT_EQ(stats.candidates, sighted);
  EXPECT_GE(stats.iub_filtered, pruned_on_arrival.size());
  EXPECT_EQ(stats.candidates, stats.iub_filtered + out.survivors.size());
  for (const auto& state : out.survivors) {
    EXPECT_EQ(pruned_on_arrival.count(state.set), 0u) << "set " << state.set;
  }
}

TEST(RefinementTest, MemoryFigureCoversEveryAdmittedCandidate) {
  // Without the iUB filter every sighted set is admitted and none is
  // pruned, so the arena holds one record per candidate; with it, pruned
  // candidates' records still count (nothing is freed mid-query).
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 508);
  const auto query = QueryOf(w, 1);
  RefinementHarness harness(&w, query, 0.8);
  SearchParams unfiltered, filtered;
  unfiltered.k = filtered.k = 10;
  unfiltered.alpha = filtered.alpha = 0.8;
  unfiltered.use_iub_filter = false;
  SearchStats s1, s2;
  harness.Run(unfiltered, &s1);
  const RefinementOutput out = harness.Run(filtered, &s2);
  ASSERT_GT(s1.candidates, 0u);
  EXPECT_GE(s1.memory.Get("refinement.candidates"),
            s1.candidates * sizeof(CandidateRecord));
  ASSERT_GT(s2.iub_filtered, 0u);
  EXPECT_GE(s2.memory.Get("refinement.candidates"),
            (out.survivors.size() + 1) * sizeof(CandidateRecord));
}

}  // namespace
}  // namespace koios::core
