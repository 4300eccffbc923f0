#include <gtest/gtest.h>

#include <vector>

#include "koios/core/searcher.h"
#include "koios/sim/lsh_index.h"
#include "test_util.h"

namespace koios::core {
namespace {

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

TEST(SearcherTest, ResultsAreSortedDescending) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 701);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 10;
  const auto result = searcher.Search(QueryOf(w, 0), params);
  for (size_t i = 1; i < result.topk.size(); ++i) {
    EXPECT_GE(result.topk[i - 1].score, result.topk[i].score - 1e-12);
  }
}

TEST(SearcherTest, RepeatedSearchesAreDeterministic) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 702);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 7;
  const auto query = QueryOf(w, 14);
  const auto r1 = searcher.Search(query, params);
  const auto r2 = searcher.Search(query, params);
  ASSERT_EQ(r1.topk.size(), r2.topk.size());
  for (size_t i = 0; i < r1.topk.size(); ++i) {
    EXPECT_EQ(r1.topk[i].set, r2.topk[i].set);
    EXPECT_DOUBLE_EQ(r1.topk[i].score, r2.topk[i].score);
  }
}

TEST(SearcherTest, VocabularyPredicateCoversRepository) {
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 703);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  for (TokenId t : w.corpus.vocabulary) {
    EXPECT_TRUE(searcher.InVocabulary(t));
  }
  EXPECT_FALSE(searcher.InVocabulary(static_cast<TokenId>(5'000'000)));
}

TEST(SearcherTest, StatsTimersPopulated) {
  auto w = testing::MakeRandomWorkload(80, 400, 5, 20, 704);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  const auto result = searcher.Search(QueryOf(w, 4), params);
  EXPECT_GT(result.stats.timers.Get("refinement"), 0.0);
  EXPECT_GE(result.stats.timers.Get("postprocess"), 0.0);
  EXPECT_GT(result.stats.memory.TotalBytes(), 0u);
  EXPECT_GT(result.stats.stream_tuples, 0u);
}

TEST(SearcherTest, KLargerThanRepositoryIsSafe) {
  auto w = testing::MakeRandomWorkload(20, 150, 4, 10, 705);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 500;
  const auto result = searcher.Search(QueryOf(w, 2), params);
  EXPECT_LE(result.topk.size(), 20u);
  // All returned entries must be distinct sets.
  std::set<SetId> distinct;
  for (const auto& e : result.topk) distinct.insert(e.set);
  EXPECT_EQ(distinct.size(), result.topk.size());
}

TEST(SearcherTest, AlphaOneKeepsOnlyIdenticalElements) {
  // With alpha = 1.0, semantic overlap degenerates to vanilla overlap.
  auto w = testing::MakeRandomWorkload(80, 300, 6, 15, 706);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 5;
  params.alpha = 1.0;
  const auto query = QueryOf(w, 9);
  std::vector<TokenId> sorted_query = query;
  std::sort(sorted_query.begin(), sorted_query.end());
  const auto result = searcher.Search(query, params);
  for (const auto& entry : result.topk) {
    // Identical embeddings in a zero-noise cluster could reach cosine 1.0,
    // but the oracle must agree with the reported score either way.
    const Score so = matching::SemanticOverlap(
        query, w.corpus.sets.Tokens(entry.set), *w.sim, 1.0);
    EXPECT_NEAR(entry.score, so, 1e-6);
    EXPECT_GE(so + 1e-9,
              static_cast<Score>(
                  w.corpus.sets.VanillaOverlap(sorted_query, entry.set)));
  }
}

TEST(SearcherTest, WorksWithLshIndexAgainstLshOracle) {
  // With an approximate index Koios is exact w.r.t. the neighbors the
  // index returns (paper §VIII-E). We can't compare against the full
  // oracle, but results must be valid sets with correct exact scores.
  auto w = testing::MakeRandomWorkload(80, 400, 5, 15, 707, /*coverage=*/1.0);
  sim::LshIndexSpec spec;
  spec.num_tables = 16;
  spec.bits_per_table = 8;
  sim::CosineLshIndex lsh(w.corpus.vocabulary, &w.model->store(), w.sim.get(),
                          spec);
  KoiosSearcher searcher(&w.corpus.sets, &lsh);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.8;
  const auto query = QueryOf(w, 3);
  const auto result = searcher.Search(query, params);
  EXPECT_FALSE(result.topk.empty());
  // The query's own source set must be found: its self-matches flow
  // through the vocabulary predicate, not the LSH buckets.
  EXPECT_EQ(result.topk[0].set, 3u);
  EXPECT_NEAR(result.topk[0].score, static_cast<Score>(query.size()), 1e-6);
}

}  // namespace
}  // namespace koios::core
