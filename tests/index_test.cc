#include <gtest/gtest.h>

#include <vector>

#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/io/shard_slice.h"

namespace koios::index {
namespace {

// ----------------------------------------------------------- SetCollection --

TEST(SetCollectionTest, StoresSortedDeduplicated) {
  SetCollection sets;
  const SetId id = sets.AddSet(std::vector<TokenId>{5, 3, 5, 1, 3});
  EXPECT_EQ(sets.SetSize(id), 3u);
  const auto tokens = sets.Tokens(id);
  EXPECT_EQ(tokens[0], 1u);
  EXPECT_EQ(tokens[1], 3u);
  EXPECT_EQ(tokens[2], 5u);
}

TEST(SetCollectionTest, MultipleSetsIndependent) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  sets.AddSet(std::vector<TokenId>{3});
  sets.AddSet(std::vector<TokenId>{4, 5, 6});
  EXPECT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets.SetSize(0), 2u);
  EXPECT_EQ(sets.SetSize(1), 1u);
  EXPECT_EQ(sets.SetSize(2), 3u);
  EXPECT_EQ(sets.TotalTokens(), 6u);
}

TEST(SetCollectionTest, EmptySetAllowed) {
  SetCollection sets;
  const SetId id = sets.AddSet(std::vector<TokenId>{});
  EXPECT_EQ(sets.SetSize(id), 0u);
  EXPECT_TRUE(sets.Tokens(id).empty());
}

TEST(SetCollectionTest, VanillaOverlapMergesSorted) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 3, 5, 7, 9});
  const std::vector<TokenId> query = {3, 4, 5, 9, 10};
  EXPECT_EQ(sets.VanillaOverlap(query, 0), 3u);  // {3, 5, 9}
}

TEST(SetCollectionTest, VanillaOverlapDisjoint) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  const std::vector<TokenId> query = {3, 4};
  EXPECT_EQ(sets.VanillaOverlap(query, 0), 0u);
}

TEST(SetCollectionTest, StatsForTableOne) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2, 3, 4});
  sets.AddSet(std::vector<TokenId>{2, 3});
  EXPECT_EQ(sets.MaxSetSize(), 4u);
  EXPECT_DOUBLE_EQ(sets.AvgSetSize(), 3.0);
  EXPECT_EQ(sets.DistinctTokens(), 4u);
  EXPECT_EQ(sets.TokenIdBound(), 5u);
}

// ----------------------------------------------------------- InvertedIndex --

TEST(InvertedIndexTest, PostingsContainAllSets) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  sets.AddSet(std::vector<TokenId>{2, 3});
  sets.AddSet(std::vector<TokenId>{2});
  InvertedIndex index(sets);
  const auto p2 = index.Postings(2);
  ASSERT_EQ(p2.size(), 3u);
  EXPECT_EQ(p2[0], 0u);
  EXPECT_EQ(p2[1], 1u);
  EXPECT_EQ(p2[2], 2u);
  EXPECT_EQ(index.Postings(1).size(), 1u);
  EXPECT_EQ(index.Postings(3).size(), 1u);
}

TEST(InvertedIndexTest, MissingTokenYieldsEmpty) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1});
  InvertedIndex index(sets);
  EXPECT_TRUE(index.Postings(99).empty());
  EXPECT_TRUE(index.Postings(0).empty());  // id below bound but unused
  EXPECT_FALSE(index.InVocabulary(0));
  EXPECT_TRUE(index.InVocabulary(1));
}

TEST(InvertedIndexTest, VocabularyListsDistinctTokens) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{5, 9});
  sets.AddSet(std::vector<TokenId>{9, 12});
  InvertedIndex index(sets);
  const auto vocab = index.Vocabulary();
  ASSERT_EQ(vocab.size(), 3u);
  EXPECT_EQ(vocab[0], 5u);
  EXPECT_EQ(vocab[1], 9u);
  EXPECT_EQ(vocab[2], 12u);
  EXPECT_EQ(index.NumTokens(), 3u);
  EXPECT_EQ(index.MaxPostingLength(), 2u);
}

TEST(InvertedIndexTest, ShardSliceIndexesCoverWholeCollection) {
  SetCollection sets;
  for (TokenId t = 0; t < 30; ++t) {
    sets.AddSet(std::vector<TokenId>{t, t + 1, t + 2});
  }
  const InvertedIndex full(sets);
  const std::vector<io::ShardSlice> slices = io::SliceCollection(sets, 3);
  ASSERT_EQ(slices.size(), 3u);
  std::vector<InvertedIndex> shard_indexes;
  for (const io::ShardSlice& slice : slices) {
    shard_indexes.emplace_back(slice.sets);
  }
  for (TokenId t = 0; t < 32; ++t) {
    // The shards' postings, rebased to global ids and concatenated in
    // shard order, are exactly the full index's postings.
    std::vector<SetId> joined;
    for (size_t i = 0; i < slices.size(); ++i) {
      for (SetId local : shard_indexes[i].Postings(t)) {
        joined.push_back(slices[i].base + local);
      }
    }
    const auto want = full.Postings(t);
    EXPECT_EQ(joined, std::vector<SetId>(want.begin(), want.end()))
        << "token " << t;
  }
}

}  // namespace
}  // namespace koios::index
