#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "koios/core/bucket_index.h"
#include "koios/core/candidate_state.h"
#include "koios/index/set_collection.h"
#include "koios/matching/semantic_overlap.h"
#include "test_util.h"

namespace koios::core {
namespace {

// ------------------------------------------------------------- BucketIndex --

TEST(BucketIndexTest, InsertAndPruneWholeBucketPrefix) {
  BucketIndex buckets;
  buckets.Insert(1, /*m=*/2, /*s_i=*/0.5);
  buckets.Insert(2, /*m=*/2, /*s_i=*/1.5);
  buckets.Insert(3, /*m=*/2, /*s_i=*/3.0);
  // theta = 3.0, sim = 0.5: prune if s_i + 2*0.5 < 3.0, i.e. s_i < 2.0.
  std::set<uint32_t> pruned;
  const size_t n =
      buckets.Prune(0.5, 3.0, [&](uint32_t c) { pruned.insert(c); });
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(pruned.count(1));
  EXPECT_TRUE(pruned.count(2));
  EXPECT_EQ(buckets.size(), 1u);
}

TEST(BucketIndexTest, ScanStopsAtFirstSurvivor) {
  BucketIndex buckets;
  buckets.Insert(1, 1, 0.1);
  buckets.Insert(2, 1, 5.0);
  buckets.Insert(3, 1, 0.2);  // ordered: 0.1, 0.2, 5.0
  size_t pruned = buckets.Prune(0.5, 1.0, [](uint32_t) {});
  EXPECT_EQ(pruned, 2u);  // 0.1 and 0.2 pruned, 5.0 survives
}

TEST(BucketIndexTest, DifferentBucketsDifferentCutoffs) {
  BucketIndex buckets;
  buckets.Insert(1, /*m=*/0, /*s_i=*/1.0);   // ub = 1.0
  buckets.Insert(2, /*m=*/10, /*s_i=*/1.0);  // ub = 1.0 + 10 s
  std::set<uint32_t> pruned;
  buckets.Prune(/*sim=*/0.5, /*theta=*/2.0,
                [&](uint32_t c) { pruned.insert(c); });
  EXPECT_TRUE(pruned.count(1));      // 1.0 < 2.0
  EXPECT_FALSE(pruned.count(2));     // 6.0 >= 2.0
}

TEST(BucketIndexTest, NeverPrunesTies) {
  BucketIndex buckets;
  buckets.Insert(1, 1, 1.5);  // ub at sim 0.5 == 2.0 == theta: tie, keep
  EXPECT_EQ(buckets.Prune(0.5, 2.0, [](uint32_t) {}), 0u);
  EXPECT_EQ(buckets.size(), 1u);
}

TEST(BucketIndexTest, MoveRelocates) {
  BucketIndex buckets;
  buckets.Insert(7, 3, 0.0);
  buckets.Move(7, 2, 0.9);
  EXPECT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets.num_buckets(), 1u);
  // Now prunable under its new bucket's rule only.
  size_t pruned = buckets.Prune(/*sim=*/0.1, /*theta=*/5.0, [](uint32_t) {});
  EXPECT_EQ(pruned, 1u);  // 0.9 + 2*0.1 = 1.1 < 5
}

TEST(BucketIndexTest, EmptyBucketsAreErased) {
  BucketIndex buckets;
  buckets.Insert(1, 4, 0.0);
  buckets.Prune(0.1, 100.0, [](uint32_t) {});
  EXPECT_EQ(buckets.num_buckets(), 0u);
}

TEST(BucketIndexTest, StaleEntryIsNeverPrunedOrCounted) {
  // The move leaves (0.0, c=1) behind in bucket 3. At sim 0 and theta 1.0
  // that stale entry is below the cutoff; the live entry (bucket 2, 1.5)
  // is not. Only live entries may be counted or pruned.
  BucketIndex buckets;
  buckets.Insert(1, 3, 0.0);
  buckets.Insert(2, 3, 2.0);  // keeps bucket 3 occupied
  buckets.Move(1, 2, 1.5);
  EXPECT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets.CountSurvivors(0.0, 1.0, 100), 2u);
  std::vector<uint32_t> pruned;
  EXPECT_EQ(buckets.Prune(0.0, 1.0, [&](uint32_t c) { pruned.push_back(c); }),
            0u);
  EXPECT_TRUE(pruned.empty());
  EXPECT_EQ(buckets.size(), 2u);
  // Raising theta to 1.8 prunes the live entry of candidate 1 exactly once.
  EXPECT_EQ(buckets.Prune(0.0, 1.8, [&](uint32_t c) { pruned.push_back(c); }),
            1u);
  EXPECT_EQ(pruned, std::vector<uint32_t>{1});
  EXPECT_EQ(buckets.CountSurvivors(0.0, 1.8, 100), 1u);
}

TEST(BucketIndexTest, RenumberKeepsLiveEntriesUnderNewHandles) {
  BucketIndex buckets;
  for (uint32_t c = 0; c < 6; ++c) buckets.Insert(c, 3, 0.1 * c);
  buckets.Move(1, 2, 2.0);  // stale (0.1, 1) stays in bucket 3
  buckets.Move(4, 1, 0.45);
  std::vector<uint32_t> pruned;
  buckets.Prune(0.0, 0.25, [&](uint32_t c) { pruned.push_back(c); });
  std::sort(pruned.begin(), pruned.end());
  EXPECT_EQ(pruned, (std::vector<uint32_t>{0, 2}));
  // Live: 1 (m 2, 2.0), 3 (m 3, 0.3), 4 (m 1, 0.45), 5 (m 3, 0.5).
  const uint32_t gone = CandidateTable::kPruned;
  buckets.Renumber({gone, 0, gone, 1, 2, 3});
  EXPECT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets.num_buckets(), 3u);
  buckets.Insert(4, 3, 0.35);  // a candidate admitted after the renumbering
  buckets.Move(2, 0, 0.6);
  EXPECT_EQ(buckets.CountSurvivors(0.0, 0.4, 100), 3u);
  pruned.clear();
  buckets.Prune(0.0, 0.4, [&](uint32_t c) { pruned.push_back(c); });
  std::sort(pruned.begin(), pruned.end());
  EXPECT_EQ(pruned, (std::vector<uint32_t>{1, 4}));  // 0.3 and 0.35
  EXPECT_EQ(buckets.size(), 3u);
}

TEST(BucketIndexTest, RandomChurnAgreesWithNaiveScan) {
  // Insert/move/prune churn against a plain per-candidate model:
  // every Prune must prune exactly the model's below-cutoff set and every
  // CountSurvivors must equal the model's survivor count. Many moves per
  // candidate force stale entries and heap compactions.
  constexpr uint32_t kGone = UINT32_MAX;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    BucketIndex buckets;
    std::vector<uint32_t> m;
    std::vector<Score> value;
    auto cutoff_of = [](uint32_t key, Score sim, Score theta) {
      return theta - static_cast<Score>(key) * sim - kScoreEps;
    };
    Score theta = 0.0;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.NextBounded(10);
      if (op < 2 || m.empty()) {
        const uint32_t c = static_cast<uint32_t>(m.size());
        m.push_back(1 + static_cast<uint32_t>(rng.NextBounded(6)));
        // Coarse values force ties inside a bucket.
        value.push_back(static_cast<Score>(rng.NextBounded(8)) * 0.25);
        buckets.Insert(c, m[c], value[c]);
      } else if (op < 8) {
        const uint32_t c = static_cast<uint32_t>(rng.NextBounded(m.size()));
        if (m[c] == kGone || m[c] == 0) continue;
        --m[c];
        value[c] += static_cast<Score>(rng.NextBounded(4)) * 0.25;
        buckets.Move(c, m[c], value[c]);
      } else {
        theta += 0.05 * static_cast<Score>(rng.NextBounded(3));
        const Score sim = 0.25 * static_cast<Score>(rng.NextBounded(5));
        std::set<uint32_t> expect_pruned;
        size_t expect_survivors = 0;
        for (uint32_t c = 0; c < m.size(); ++c) {
          if (m[c] == kGone) continue;
          if (value[c] < cutoff_of(m[c], sim, theta)) {
            expect_pruned.insert(c);
          } else {
            ++expect_survivors;
          }
        }
        ASSERT_EQ(buckets.CountSurvivors(sim, theta, m.size()),
                  expect_survivors)
            << "seed " << seed << " step " << step;
        std::set<uint32_t> pruned;
        const size_t n = buckets.Prune(sim, theta, [&](uint32_t c) {
          EXPECT_TRUE(pruned.insert(c).second) << "pruned twice: " << c;
        });
        ASSERT_EQ(pruned, expect_pruned) << "seed " << seed << " step " << step;
        ASSERT_EQ(n, expect_pruned.size());
        for (uint32_t c : pruned) m[c] = kGone;
        ASSERT_EQ(buckets.size(), expect_survivors);
      }
    }
  }
}

// --------------------------------------------------------- CandidateTable --

index::SetCollection MakeSets(const std::vector<std::vector<TokenId>>& sets) {
  index::SetCollection collection;
  for (const auto& tokens : sets) collection.AddSet(tokens);
  return collection;
}

std::vector<TokenId> TokenRange(TokenId first, size_t n) {
  std::vector<TokenId> tokens(n);
  for (size_t i = 0; i < n; ++i) tokens[i] = first + static_cast<TokenId>(i);
  return tokens;
}

TEST(CandidateTableTest, SlotsTrackAdmissionAndPruning) {
  const auto sets =
      MakeSets(std::vector<std::vector<TokenId>>(10, {1, 2, 3, 4, 5}));
  CandidateTable table(&sets, /*query_size=*/3);
  EXPECT_EQ(table.slot(4), CandidateTable::kUnseen);
  const uint32_t c = table.Admit(4, /*set_size=*/5);
  EXPECT_EQ(table.slot(4), c);
  EXPECT_TRUE(table.alive(c));
  EXPECT_EQ(table.record(c).set, 4u);
  EXPECT_EQ(table.record(c).capacity, 3u);  // min(|Q|, |C|)
  table.Prune(4);
  EXPECT_EQ(table.slot(4), CandidateTable::kPruned);
  EXPECT_FALSE(table.alive(c));
  table.Prune(7);  // pruned at first sighting: no record
  EXPECT_EQ(table.slot(7), CandidateTable::kPruned);
  EXPECT_EQ(table.size(), 1u);
  size_t live = 0;
  table.ForEachAlive([&](const CandidateRecord&) { ++live; });
  EXPECT_EQ(live, 0u);
}

TEST(CandidateTableTest, GreedyBookkeeping) {
  const auto sets = MakeSets({{100, 200, 300, 400, 500}});
  CandidateTable table(&sets, /*query_size=*/3);
  const uint32_t c = table.Admit(0, /*set_size=*/5);
  EXPECT_EQ(table.record(c).matched, 0u);
  EXPECT_TRUE(table.Match(c, 0, 100, 0.9));
  EXPECT_FALSE(table.Match(c, 0, 200, 0.8));  // query pos matched
  EXPECT_FALSE(table.Match(c, 1, 100, 0.8));  // token matched
  EXPECT_DOUBLE_EQ(table.record(c).partial_score, 0.9);
  EXPECT_TRUE(table.Match(c, 1, 200, 0.7));
  EXPECT_EQ(table.record(c).matched, 2u);
  EXPECT_DOUBLE_EQ(table.record(c).partial_score, 0.9 + 0.7);
}

TEST(CandidateTableTest, CapacityLimitsGreedyMatching) {
  const auto sets = MakeSets({{100, 101, 102}});
  CandidateTable table(&sets, /*query_size=*/10);
  const uint32_t c = table.Admit(0, /*set_size=*/2);  // capacity 2
  EXPECT_TRUE(table.Match(c, 0, 100, 1.0));
  EXPECT_TRUE(table.Match(c, 1, 101, 1.0));
  EXPECT_FALSE(table.Match(c, 2, 102, 1.0));  // capacity reached
}

TEST(CandidateTableTest, MatchedTokensStaySeparatePerCandidate) {
  // Both sets hold the same 80 tokens; a matches the first 40, b the last
  // 40. Each candidate's token bits must record exactly its own matches.
  std::vector<TokenId> ta, tb, all;
  for (TokenId i = 0; i < 40; ++i) {
    ta.push_back(1000 - 7 * i);
    tb.push_back(2000 + 3 * i);
  }
  all = ta;
  all.insert(all.end(), tb.begin(), tb.end());
  const auto sets = MakeSets({all, all});
  CandidateTable table(&sets, /*query_size=*/64);
  const uint32_t a = table.Admit(0, 80), b = table.Admit(1, 80);
  for (uint32_t i = 0; i < 40; ++i) {  // interleaved, unsorted arrival
    ASSERT_TRUE(table.Match(a, i, ta[i], 1.0));
    ASSERT_TRUE(table.Match(b, 63 - i, tb[i], 1.0));
  }
  for (uint32_t i = 0; i < 40; ++i) {
    CandidateTable probe = table;
    EXPECT_FALSE(probe.Match(a, 50, ta[i], 1.0));
    EXPECT_TRUE(probe.Match(a, 50, tb[i], 1.0));
    EXPECT_FALSE(probe.Match(b, 10, tb[i], 1.0));
    EXPECT_TRUE(probe.Match(b, 10, ta[i], 1.0));
  }
  EXPECT_EQ(table.record(a).matched, 40u);
  EXPECT_EQ(table.record(b).matched, 40u);
}

TEST(CandidateTableTest, BitWordsOfNeighboursDoNotOverlap) {
  // |Q| = 130 needs three words per query bit set, |C| = 200 four token
  // words; rows 64 and 129 and token positions 64 and 199 sit in later
  // words.
  const auto tokens = TokenRange(0, 200);
  const auto sets = MakeSets({tokens, tokens, tokens});
  CandidateTable table(&sets, /*query_size=*/130);
  const uint32_t a = table.Admit(0, 200), b = table.Admit(1, 200),
                 c = table.Admit(2, 200);
  const std::vector<std::pair<uint32_t, TokenId>> edges = {
      {0, 0}, {63, 63}, {64, 64}, {127, 127}, {128, 128}, {129, 199}};
  for (const auto& [row, token] : edges) {
    EXPECT_TRUE(table.AddRow(b, row, 0.5));
    EXPECT_TRUE(table.Match(b, row, token, 0.5));
  }
  for (const auto& [row, token] : edges) {
    EXPECT_FALSE(table.AddRow(b, row, 0.5));
    EXPECT_FALSE(table.Match(b, row, 150, 0.5));    // query bit
    EXPECT_FALSE(table.Match(b, 100, token, 0.5));  // token bit
  }
  EXPECT_EQ(table.record(a).rows_seen, 0u);
  EXPECT_EQ(table.record(c).rows_seen, 0u);
  for (const auto& [row, token] : edges) {
    EXPECT_TRUE(table.AddRow(a, row, 0.5));
    EXPECT_TRUE(table.Match(a, row, token, 0.5));
    EXPECT_TRUE(table.AddRow(c, row, 0.5));
    EXPECT_TRUE(table.Match(c, row, token, 0.5));
  }
}

TEST(CandidateTableTest, CompactKeepsLiveStateAndDropsPruned) {
  // |Q| = 100 and |C| = 200: two query words and four token words per
  // bit set. Candidates 0, 2 and 4 survive.
  std::vector<std::vector<TokenId>> members;
  for (TokenId id = 0; id < 10; ++id) {
    members.push_back(TokenRange(1000 * id, 200));
  }
  const auto sets = MakeSets(members);
  CandidateTable table(&sets, /*query_size=*/100);
  for (SetId id = 0; id < 5; ++id) {
    const uint32_t c = table.Admit(id, 200);
    for (uint32_t i = 0; i <= id; ++i) {
      table.AddRow(c, 90 + i, 0.5);
      table.Match(c, 90 + i, 1000 * id + 190 + i, 0.5);
    }
  }
  table.Prune(1);
  table.Prune(3);
  std::vector<std::pair<uint32_t, uint32_t>> moved;  // (to, from = set id)
  table.Compact([&](uint32_t from, uint32_t to) {
    moved.emplace_back(to, from);
  });
  const std::vector<std::pair<uint32_t, uint32_t>> expect = {
      {0, 0}, {1, 2}, {2, 4}};
  EXPECT_EQ(moved, expect);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.slot(1), CandidateTable::kPruned);
  EXPECT_EQ(table.slot(3), CandidateTable::kPruned);
  for (const auto& [c, id] : moved) {
    EXPECT_EQ(table.slot(id), c);
    EXPECT_EQ(table.record(c).rows_seen, id + 1);
    EXPECT_DOUBLE_EQ(table.record(c).partial_score, 0.5 * (id + 1));
    for (uint32_t i = 0; i <= id; ++i) {
      EXPECT_FALSE(table.AddRow(c, 90 + i, 0.5));                  // row
      EXPECT_FALSE(table.Match(c, 10, 1000 * id + 190 + i, 0.5));  // token
      EXPECT_FALSE(table.Match(c, 90 + i, 1000 * id + 5, 0.5));    // query
    }
    EXPECT_TRUE(table.Match(c, 10, 1000 * id + 5, 0.25));
    EXPECT_FALSE(table.Match(c, 11, 1000 * id + 5, 0.25));
  }
}

TEST(CandidateTableTest, RowBoundTracksFirstEdgePerRow) {
  const auto sets = MakeSets({TokenRange(0, 4)});
  CandidateTable table(&sets, /*query_size=*/3);
  const uint32_t c = table.Admit(0, /*set_size=*/4);
  EXPECT_TRUE(table.AddRow(c, 1, 0.95));
  EXPECT_FALSE(table.AddRow(c, 1, 0.90));  // row already retained
  EXPECT_TRUE(table.AddRow(c, 0, 0.85));
  const CandidateRecord& state = table.record(c);
  EXPECT_DOUBLE_EQ(state.row_sum, 1.80);
  EXPECT_EQ(state.rows_seen, 2u);
  EXPECT_EQ(state.remaining(), 1u);
  // UB at s = 0.8: 1.80 + 1 * 0.8.
  EXPECT_NEAR(state.UpperBound(0.8), 2.6, 1e-12);
}

TEST(CandidateTableTest, RowRetentionStopsAtCapacity) {
  const auto sets = MakeSets({TokenRange(0, 2)});
  CandidateTable table(&sets, /*query_size=*/5);
  const uint32_t c = table.Admit(0, /*set_size=*/2);
  EXPECT_TRUE(table.AddRow(c, 0, 1.0));
  EXPECT_TRUE(table.AddRow(c, 1, 0.9));
  EXPECT_FALSE(table.AddRow(c, 2, 0.8));  // capacity min(2, 5) = 2
  EXPECT_DOUBLE_EQ(table.record(c).UpperBound(0.8), 1.9);
  EXPECT_EQ(table.record(c).remaining(), 0u);
}

TEST(CandidateTableTest, IubPaperBoundCounterexample) {
  // The paper's Lemma 6 bound S_i + m_i*s fails on this instance (see
  // CandidateRecord); the row-based bound stays sound. Weights:
  //   (q0,t0)=1.0, (q0,t1)=0.99, (q1,t0)=0.99, (q1,t1)=0.85; SO = 1.98.
  testing::TableSimilarity sim;
  sim.Set(0, 10, 1.0);
  sim.Set(0, 11, 0.99);
  sim.Set(1, 10, 0.99);
  sim.Set(1, 11, 0.85);
  const std::vector<TokenId> q = {0, 1}, c = {10, 11};
  const Score so = matching::SemanticOverlap(q, c, sim, 0.5);
  ASSERT_NEAR(so, 1.98, 1e-12);

  // Simulate the stream: (q0,t0,1.0), (q0,t1,.99), (q1,t0,.99), (q1,t1,.85).
  const auto sets = MakeSets({c, c});
  CandidateTable table(&sets, 2);
  const uint32_t greedy = table.Admit(0, 2), rows = table.Admit(1, 2);
  // Greedy (lower bound) path:
  EXPECT_TRUE(table.Match(greedy, 0, 10, 1.0));
  // (q0,t1): q0 matched, invalid. (q1,t0): t0 matched, invalid.
  EXPECT_FALSE(table.Match(greedy, 0, 11, 0.99));
  EXPECT_FALSE(table.Match(greedy, 1, 10, 0.99));
  EXPECT_TRUE(table.Match(greedy, 1, 11, 0.85));
  const Score partial = table.record(greedy).partial_score;
  EXPECT_NEAR(partial, 1.85, 1e-12);
  // Paper's bound after the stream passes 0.85: S_i + m*s = 1.85 + 0 < SO!
  EXPECT_LT(partial, so);

  // Row-based bound path (what Koios uses):
  table.AddRow(rows, 0, 1.0);   // first q0 edge
  table.AddRow(rows, 1, 0.99);  // first q1 edge
  EXPECT_GE(table.record(rows).UpperBound(0.85) + 1e-12, so);  // 1.99 >= 1.98
  EXPECT_GE(partial, so / 2.0);  // greedy LB guarantee holds
}

TEST(CandidateTableTest, UpperBoundSoundOnRandomInstances) {
  // Property: replaying any descending edge stream, the row bound always
  // dominates the exact SO at every prefix similarity.
  util::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t nq = 1 + rng.NextBounded(5), nc = 1 + rng.NextBounded(5);
    testing::TableSimilarity sim;
    struct Edge {
      uint32_t q;
      TokenId t;
      Score s;
    };
    std::vector<Edge> edges;
    for (uint32_t qi = 0; qi < nq; ++qi) {
      for (uint32_t cj = 0; cj < nc; ++cj) {
        if (rng.NextBool(0.7)) {
          const Score s = 0.5 + 0.5 * rng.NextDouble();
          sim.Set(qi, 100 + cj, s);
          edges.push_back({qi, 100 + cj, s});
        }
      }
    }
    std::vector<TokenId> q(nq), c(nc);
    for (uint32_t i = 0; i < nq; ++i) q[i] = i;
    for (uint32_t j = 0; j < nc; ++j) c[j] = 100 + j;
    const Score so = matching::SemanticOverlap(q, c, sim, 0.5);

    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.s > b.s; });
    const auto sets = MakeSets({c});
    CandidateTable table(&sets, nq);
    const uint32_t cand = table.Admit(0, static_cast<uint32_t>(nc));
    for (const Edge& e : edges) {
      table.AddRow(cand, e.q, e.s);
      EXPECT_GE(table.record(cand).UpperBound(e.s) + 1e-9, so)
          << "unsound UB at trial " << trial;
    }
  }
}

}  // namespace
}  // namespace koios::core
