// Unit tests for the materialized stream / similarity cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/index/inverted_index.h"
#include "koios/matching/hungarian.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::core {
namespace {

TEST(EdgeCacheTest, PreservesStreamOrder) {
  auto w = testing::MakeRandomWorkload(40, 200, 5, 15, 9001);
  const auto qs = w.corpus.sets.Tokens(0);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, w.index.get(), 0.75,
                          [](TokenId) { return true; });
  EdgeCache cache(&stream);
  Score prev = 1.0;
  for (const auto& tuple : cache.tuples()) {
    EXPECT_LE(tuple.sim, prev + 1e-12);
    prev = tuple.sim;
  }
  EXPECT_EQ(stream.emitted(), cache.tuples().size());
}

TEST(EdgeCacheTest, EdgesGroupedByToken) {
  auto w = testing::MakeRandomWorkload(40, 200, 5, 15, 9002);
  const auto qs = w.corpus.sets.Tokens(1);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, w.index.get(), 0.75,
                          [](TokenId) { return true; });
  EdgeCache cache(&stream);
  size_t total_edges = 0;
  for (const auto& tuple : cache.tuples()) {
    bool found = false;
    for (const auto& edge : cache.EdgesOf(tuple.token)) {
      if (edge.query_pos == tuple.query_pos) {
        EXPECT_DOUBLE_EQ(edge.sim, tuple.sim);
        found = true;
      }
    }
    EXPECT_TRUE(found);
    (void)total_edges;
  }
  EXPECT_TRUE(cache.EdgesOf(static_cast<TokenId>(12345678)).empty());
}

TEST(EdgeCacheTest, BuildMatrixRestrictsToIncidentNodes) {
  testing::TableSimilarity sim;
  sim.Set(0, 100, 0.9);
  sim.Set(2, 101, 0.8);
  sim::ExactKnnIndex index({100, 101, 102}, &sim);
  sim::TokenStream stream({0, 1, 2}, &index, 0.7,
                          [](TokenId) { return false; });
  EdgeCache cache(&stream);
  std::vector<uint32_t> rows, cols;
  const std::vector<TokenId> candidate = {100, 101, 102};
  const auto m = cache.BuildMatrix(candidate, &rows, &cols);
  // Query position 1 and candidate token 102 have no edges: excluded.
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 2u);
  EXPECT_NEAR(m.At(0, 0), 0.9, 1e-12);
  EXPECT_NEAR(m.At(1, 1), 0.8, 1e-12);
  EXPECT_NEAR(m.At(0, 1), 0.0, 1e-12);
}

TEST(EdgeCacheTest, BuildMatrixEmptyForUnrelatedSet) {
  testing::TableSimilarity sim;
  sim::ExactKnnIndex index({100}, &sim);
  sim::TokenStream stream({0}, &index, 0.7, [](TokenId) { return false; });
  EdgeCache cache(&stream);
  std::vector<uint32_t> rows, cols;
  const std::vector<TokenId> candidate = {100};
  const auto m = cache.BuildMatrix(candidate, &rows, &cols);
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(EdgeCacheTest, MatrixScoreMatchesDirectOracle) {
  // Matching on cache-built matrices == matching on directly-built graphs.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 9003);
  index::InvertedIndex inverted(w.corpus.sets);
  const auto qs = w.corpus.sets.Tokens(2);
  std::vector<TokenId> q(qs.begin(), qs.end());
  const Score alpha = 0.75;
  sim::TokenStream stream(q, w.index.get(), alpha, [&](TokenId t) {
    return inverted.InVocabulary(t);
  });
  EdgeCache cache(&stream);
  for (SetId id = 0; id < 30; ++id) {
    std::vector<uint32_t> rows, cols;
    const auto m = cache.BuildMatrix(w.corpus.sets.Tokens(id), &rows, &cols);
    const Score via_cache = matching::HungarianMatcher::Solve(m).score;
    const Score direct = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(id), *w.sim, alpha);
    EXPECT_NEAR(via_cache, direct, 1e-9) << "set " << id;
  }
}

TEST(EdgeCacheTest, InlineModeProducesOnDemandAndSeals) {
  // The single-thread pipelined shape: the consumer's NextTuples pulls
  // production along; FinishProduction seals, and replays observe the
  // exact sequence a synchronous cache produces.
  auto w = testing::MakeRandomWorkload(50, 250, 5, 15, 9006);
  const auto qs = w.corpus.sets.Tokens(2);
  std::vector<TokenId> q(qs.begin(), qs.end());
  std::vector<sim::StreamTuple> want;
  {
    sim::TokenStream stream(q, w.index.get(), 0.7,
                            [](TokenId) { return true; });
    EdgeCache sync_cache(&stream);
    want = sync_cache.tuples();
  }
  w.index->ResetCursors();
  sim::TokenStream stream(q, w.index.get(), 0.7, [](TokenId) { return true; });
  EdgeCache cache(&stream, EdgeCache::InlineProducer{});
  EXPECT_FALSE(cache.Materialized());
  std::vector<sim::StreamTuple> seen;
  std::vector<sim::StreamTuple> buf(5);
  size_t from = 0;
  while (const size_t n =
             cache.NextTuples(from, std::span<sim::StreamTuple>(buf))) {
    seen.insert(seen.end(), buf.begin(), buf.begin() + n);
    from += n;
  }
  cache.FinishProduction();
  ASSERT_TRUE(cache.Materialized());
  EXPECT_TRUE(cache.ExhaustedToAlpha());
  EXPECT_DOUBLE_EQ(cache.stop_sim(), 0.0);
  EXPECT_EQ(cache.produced(), want.size());
  ASSERT_EQ(seen.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(seen[i].token, want[i].token) << i;
    EXPECT_DOUBLE_EQ(seen[i].sim, want[i].sim) << i;
  }
}

TEST(EdgeCacheTest, InlineModeSealsEarlyWithSlack) {
  // A consumer that stops pulling mid-stream seals the cache with a sound
  // slack: the recorded stop similarity bounds every unproduced pair.
  auto w = testing::MakeRandomWorkload(50, 250, 5, 15, 9007);
  const auto qs = w.corpus.sets.Tokens(4);
  std::vector<TokenId> q(qs.begin(), qs.end());
  std::vector<sim::StreamTuple> full;
  {
    sim::TokenStream stream(q, w.index.get(), 0.7,
                            [](TokenId) { return true; });
    EdgeCache sync_cache(&stream);
    full = sync_cache.tuples();
  }
  ASSERT_GT(full.size(), 8u);
  w.index->ResetCursors();
  sim::TokenStream stream(q, w.index.get(), 0.7, [](TokenId) { return true; });
  EdgeCache cache(&stream, EdgeCache::InlineProducer{});
  std::vector<sim::StreamTuple> buf(8);
  ASSERT_EQ(cache.NextTuples(0, std::span<sim::StreamTuple>(buf)), 8u);
  cache.FinishProduction();
  ASSERT_TRUE(cache.Materialized());
  EXPECT_FALSE(cache.ExhaustedToAlpha());
  for (size_t i = cache.produced(); i < full.size(); ++i) {
    EXPECT_LE(full[i].sim, cache.stop_sim() + 1e-12) << i;
  }
}

TEST(EdgeCacheTest, InlineCacheReplaysAcrossSerialConsumers) {
  // Two consumers of one feedback-enabled cache, one after the other
  // (NextTuples' per-consumer cursor). Consumer A stops after a short prefix;
  // the still-unsealed cache must build the same matrices a sealed
  // drain-to-α cache does (completion fills in the unproduced pairs);
  // consumer B then replays from position 0, sees A's prefix unchanged,
  // and pulls production further.
  auto w = testing::MakeRandomWorkload(120, 900, 8, 30, 9008);
  // A wide query (two stored sets unioned) over a low α: a deep stream,
  // so both consumers stop well short of its end.
  std::vector<TokenId> q;
  for (const SetId id : {SetId{5}, SetId{9}}) {
    const auto qs = w.corpus.sets.Tokens(id);
    q.insert(q.end(), qs.begin(), qs.end());
  }
  std::sort(q.begin(), q.end());
  q.erase(std::unique(q.begin(), q.end()), q.end());
  const Score alpha = 0.3;
  std::vector<sim::StreamTuple> full;
  std::vector<std::vector<double>> want_matrices;
  const SetId kCandidates = 20;
  {
    sim::TokenStream stream(q, w.index.get(), alpha,
                            [](TokenId) { return true; });
    EdgeCache drained(&stream);
    ASSERT_TRUE(drained.ExhaustedToAlpha());
    full = drained.tuples();
    for (SetId id = 0; id < kCandidates; ++id) {
      std::vector<uint32_t> rows, cols;
      const auto m = drained.BuildMatrix(w.corpus.sets.Tokens(id), &rows,
                                         &cols);
      std::vector<double> dense(q.size() * w.corpus.sets.Tokens(id).size());
      for (size_t r = 0; r < rows.size(); ++r) {
        for (size_t c = 0; c < cols.size(); ++c) {
          dense[rows[r] * w.corpus.sets.Tokens(id).size() + cols[c]] =
              m.At(r, c);
        }
      }
      want_matrices.push_back(std::move(dense));
    }
  }
  constexpr size_t kPrefixA = 8;
  constexpr size_t kPrefixB = 24;
  ASSERT_GT(full.size(), 2 * kPrefixB);

  w.index->ResetCursors();
  sim::TokenStream stream(q, w.index.get(), alpha,
                          [](TokenId) { return true; });
  // Stop source 0 = never withhold: the stream is cut only by the
  // consumers stopping, which is exactly what FinishProduction must bound.
  EdgeCache cache(&stream, EdgeCache::InlineProducer{}, w.sim.get(),
                  [] { return 0.0; });
  ASSERT_TRUE(cache.FeedbackEnabled());

  std::vector<sim::StreamTuple> seen_a(kPrefixA);
  ASSERT_EQ(cache.NextTuples(0, std::span<sim::StreamTuple>(seen_a)),
            kPrefixA);
  ASSERT_FALSE(cache.Materialized());

  for (SetId id = 0; id < kCandidates; ++id) {
    const auto tokens = w.corpus.sets.Tokens(id);
    std::vector<uint32_t> rows, cols;
    matching::WeightMatrix m(0, 0);
    cache.BuildMatrixInto(tokens, &rows, &cols, &m);
    std::vector<double> dense(q.size() * tokens.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < cols.size(); ++c) {
        dense[rows[r] * tokens.size() + cols[c]] = m.At(r, c);
      }
    }
    ASSERT_EQ(dense.size(), want_matrices[id].size());
    for (size_t i = 0; i < dense.size(); ++i) {
      EXPECT_NEAR(dense[i], want_matrices[id][i], 1e-12)
          << "set " << id << " cell " << i;
    }
  }
  EXPECT_FALSE(cache.Materialized());

  std::vector<sim::StreamTuple> seen_b;
  std::vector<sim::StreamTuple> buf(5);
  size_t from = 0;
  while (from < kPrefixB) {
    const size_t n = cache.NextTuples(from, std::span<sim::StreamTuple>(buf));
    ASSERT_GT(n, 0u);
    seen_b.insert(seen_b.end(), buf.begin(), buf.begin() + n);
    from += n;
  }
  for (size_t i = 0; i < kPrefixA; ++i) {
    EXPECT_EQ(seen_b[i].token, seen_a[i].token) << i;
    EXPECT_EQ(seen_b[i].query_pos, seen_a[i].query_pos) << i;
    EXPECT_DOUBLE_EQ(seen_b[i].sim, seen_a[i].sim) << i;
  }
  for (size_t i = 0; i < seen_b.size(); ++i) {
    EXPECT_EQ(seen_b[i].token, full[i].token) << i;
    EXPECT_DOUBLE_EQ(seen_b[i].sim, full[i].sim) << i;
  }

  cache.FinishProduction();
  ASSERT_TRUE(cache.Materialized());
  EXPECT_FALSE(cache.ExhaustedToAlpha());
  EXPECT_GE(cache.produced(), kPrefixB);
  EXPECT_LT(cache.produced(), full.size());
  for (size_t i = cache.produced(); i < full.size(); ++i) {
    EXPECT_LE(full[i].sim, cache.stop_sim() + 1e-12) << i;
  }
}

TEST(EdgeCacheTest, SelfMatchEdgesPresentForVocabularyTokens) {
  auto w = testing::MakeRandomWorkload(30, 150, 5, 12, 9004);
  index::InvertedIndex inverted(w.corpus.sets);
  const auto qs = w.corpus.sets.Tokens(0);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, w.index.get(), 0.8, [&](TokenId t) {
    return inverted.InVocabulary(t);
  });
  EdgeCache cache(&stream);
  for (uint32_t pos = 0; pos < q.size(); ++pos) {
    bool has_self = false;
    for (const auto& edge : cache.EdgesOf(q[pos])) {
      has_self |= (edge.query_pos == pos && edge.sim == 1.0);
    }
    EXPECT_TRUE(has_self) << "query pos " << pos;
  }
}

}  // namespace
}  // namespace koios::core
