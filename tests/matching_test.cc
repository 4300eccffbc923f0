#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "koios/matching/greedy.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/util/rng.h"
#include "test_util.h"

namespace koios::matching {
namespace {

// ------------------------------------------------------------- Hungarian --

TEST(HungarianTest, EmptyMatrix) {
  WeightMatrix m(0, 0);
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_DOUBLE_EQ(r.score, 0.0);
  EXPECT_FALSE(r.early_terminated);
}

TEST(HungarianTest, SingleEdge) {
  WeightMatrix m(1, 1);
  m.At(0, 0) = 0.7;
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_DOUBLE_EQ(r.score, 0.7);
  ASSERT_EQ(r.match_of_row.size(), 1u);
  EXPECT_EQ(r.match_of_row[0], 0);
}

TEST(HungarianTest, PicksCrossAssignmentOverGreedy) {
  // Greedy takes (0,0)=1.0 then 0; optimum is (0,1)+(1,0) = 1.8.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = 0.9;
  m.At(1, 0) = 0.9;
  m.At(1, 1) = 0.0;
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_NEAR(r.score, 1.8, 1e-12);
  EXPECT_EQ(r.match_of_row[0], 1);
  EXPECT_EQ(r.match_of_row[1], 0);
  // Greedy confirms the example's suboptimality.
  EXPECT_NEAR(GreedyMatch(m).score, 1.0, 1e-12);
}

TEST(HungarianTest, RectangularMoreRows) {
  WeightMatrix m(3, 2);
  m.At(0, 0) = 0.5;
  m.At(1, 0) = 0.9;
  m.At(2, 1) = 0.8;
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_NEAR(r.score, 1.7, 1e-12);
  EXPECT_EQ(r.match_of_row[0], -1);  // row 0 loses column 0 to row 1
}

TEST(HungarianTest, RectangularMoreCols) {
  WeightMatrix m(2, 4);
  m.At(0, 3) = 0.6;
  m.At(1, 3) = 0.9;
  m.At(1, 2) = 0.5;
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_NEAR(r.score, 1.1, 1e-12);
}

TEST(HungarianTest, OptionalMatchingSkipsZeroEdges) {
  // A perfect matching would force a zero edge; score must not require it.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.9;  // (1,1) has weight 0
  const MatchResult r = HungarianMatcher::Solve(m);
  EXPECT_NEAR(r.score, 0.9, 1e-12);
  EXPECT_EQ(r.match_of_row[1], -1);
}

TEST(HungarianTest, LabelSumUpperBoundsScore) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);
    WeightMatrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.At(i, j) = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
      }
    }
    const MatchResult r = HungarianMatcher::Solve(m);
    EXPECT_GE(r.label_sum + 1e-9, r.score);
  }
}

TEST(HungarianTest, EarlyTerminationFiresWhenOptimumBelowThreshold) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.3;
  m.At(1, 1) = 0.3;
  const MatchResult r = HungarianMatcher::Solve(m, /*prune_threshold=*/5.0);
  EXPECT_TRUE(r.early_terminated);
}

TEST(HungarianTest, EarlyTerminationDoesNotFireWhenOptimumAbove) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.9;
  m.At(1, 1) = 0.9;
  const MatchResult r = HungarianMatcher::Solve(m, /*prune_threshold=*/1.0);
  EXPECT_FALSE(r.early_terminated);
  EXPECT_NEAR(r.score, 1.8, 1e-12);
}

TEST(HungarianTest, EarlyTerminationOnMatrixWithoutEdges) {
  // No component to solve: the bound is 0 from the start.
  WeightMatrix m(3, 4);
  EXPECT_TRUE(HungarianMatcher::Solve(m, /*prune_threshold=*/0.5)
                  .early_terminated);
  EXPECT_FALSE(HungarianMatcher::Solve(m, /*prune_threshold=*/0.0)
                   .early_terminated);
}

TEST(HungarianTest, EarlyTerminationNeverFalselyPrunes) {
  // Property: if ET fires with threshold t, the true optimum is < t.
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = 1 + rng.NextBounded(5);
    const size_t cols = 1 + rng.NextBounded(5);
    WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        m.At(i, j) = rng.NextBool(0.6) ? 0.5 + 0.5 * rng.NextDouble() : 0.0;
      }
    }
    const double exact = HungarianMatcher::Solve(m).score;
    const double threshold = rng.NextDouble() * 3.0;
    const MatchResult pruned = HungarianMatcher::Solve(m, threshold);
    if (pruned.early_terminated) {
      EXPECT_LT(exact, threshold + 1e-9)
          << "false prune at trial " << trial;
    } else {
      EXPECT_NEAR(pruned.score, exact, 1e-9);
    }
  }
}

// Brute-force optimal matching (larger side <= 8): permuting the larger
// side and pairing its first min(rows, cols) entries with the smaller side
// enumerates every injective map of the smaller side into the larger one,
// which covers every optional matching since weights are >= 0.
double BruteForceMatching(const WeightMatrix& m) {
  const bool rows_larger = m.rows() >= m.cols();
  const size_t larger = std::max(m.rows(), m.cols());
  const size_t smaller = std::min(m.rows(), m.cols());
  std::vector<size_t> perm(larger);
  std::iota(perm.begin(), perm.end(), size_t{0});
  double best = 0.0;
  do {
    double score = 0.0;
    for (size_t i = 0; i < smaller; ++i) {
      score += rows_larger ? m.At(perm[i], i) : m.At(i, perm[i]);
    }
    best = std::max(best, score);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(HungarianTest, MatchesPermutationOracleOnSquare) {
  util::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 2 + rng.NextBounded(4);  // 2..5
    WeightMatrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.At(i, j) = rng.NextBool(0.7) ? rng.NextDouble() : 0.0;
      }
    }
    EXPECT_NEAR(HungarianMatcher::Solve(m).score, BruteForceMatching(m), 1e-9)
        << "trial " << trial;
  }
}

// Seed reference: the dense solver before component splitting, reproduced
// from the seed sources — every matrix zero-padded to one max(rows, cols)
// square, Lemma 8 checked on its dual sum.
MatchResult SeedDenseSolve(const WeightMatrix& weights,
                           double prune_threshold) {
  constexpr double kSlackEps = 1e-12;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTerminationMargin = 1e-7;
  const size_t rows = weights.rows();
  const size_t cols = weights.cols();
  MatchResult result;
  result.match_of_row.assign(rows, -1);
  if (rows == 0 || cols == 0) return result;
  const size_t n = std::max(rows, cols);
  auto w = [&](size_t x, size_t y) -> double {
    return (x < rows && y < cols) ? weights.At(x, y) : 0.0;
  };
  std::vector<double> lx(n, 0.0), ly(n, 0.0);
  double label_sum = 0.0;
  for (size_t x = 0; x < n; ++x) {
    double mx = 0.0;
    for (size_t y = 0; y < n; ++y) mx = std::max(mx, w(x, y));
    lx[x] = mx;
    label_sum += mx;
  }
  std::vector<int32_t> match_x(n, -1), match_y(n, -1);
  std::vector<double> slack(n);
  std::vector<int32_t> slack_x(n), parent_y(n);
  std::vector<char> in_s(n), in_t(n);
  for (size_t root = 0; root < n; ++root) {
    if (prune_threshold >= 0.0 &&
        label_sum < prune_threshold - kTerminationMargin) {
      result.early_terminated = true;
      result.label_sum = label_sum;
      return result;
    }
    std::fill(in_s.begin(), in_s.end(), 0);
    std::fill(in_t.begin(), in_t.end(), 0);
    std::fill(parent_y.begin(), parent_y.end(), -1);
    in_s[root] = 1;
    for (size_t y = 0; y < n; ++y) {
      slack[y] = lx[root] + ly[y] - w(root, y);
      slack_x[y] = static_cast<int32_t>(root);
    }
    int32_t augment_y = -1;
    while (augment_y == -1) {
      int32_t y0 = -1;
      for (size_t y = 0; y < n; ++y) {
        if (!in_t[y] && slack[y] <= kSlackEps) {
          y0 = static_cast<int32_t>(y);
          break;
        }
      }
      if (y0 == -1) {
        double delta = kInf;
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) delta = std::min(delta, slack[y]);
        }
        size_t s_count = 0, t_count = 0;
        for (size_t v = 0; v < n; ++v) {
          if (in_s[v]) {
            lx[v] -= delta;
            ++s_count;
          }
          if (in_t[v]) {
            ly[v] += delta;
            ++t_count;
          }
        }
        label_sum -= delta * static_cast<double>(s_count - t_count);
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) slack[y] -= delta;
        }
        if (prune_threshold >= 0.0 &&
            label_sum < prune_threshold - kTerminationMargin) {
          result.early_terminated = true;
          result.label_sum = label_sum;
          return result;
        }
        continue;
      }
      in_t[y0] = 1;
      parent_y[y0] = slack_x[y0];
      if (match_y[y0] == -1) {
        augment_y = y0;
      } else {
        const int32_t x_next = match_y[y0];
        in_s[x_next] = 1;
        for (size_t y = 0; y < n; ++y) {
          if (in_t[y]) continue;
          const double new_slack = lx[x_next] + ly[y] - w(x_next, y);
          if (new_slack < slack[y]) {
            slack[y] = new_slack;
            slack_x[y] = x_next;
          }
        }
      }
    }
    int32_t y = augment_y;
    while (y != -1) {
      const int32_t x = parent_y[y];
      const int32_t prev_y = match_x[x];
      match_x[x] = y;
      match_y[y] = x;
      y = prev_y;
    }
    ++result.rounds;
  }
  double score = 0.0;
  for (size_t x = 0; x < rows; ++x) {
    const int32_t y = match_x[x];
    if (y >= 0 && static_cast<size_t>(y) < cols) {
      const double wxy = weights.At(x, static_cast<size_t>(y));
      if (wxy > 0.0) {
        score += wxy;
        result.match_of_row[x] = y;
      }
    }
  }
  result.score = score;
  result.label_sum = label_sum;
  return result;
}

struct BlockShape {
  size_t rows, cols;
};

// α-graph-shaped input: the blocks on the diagonal, each filled at
// `density` with weights in [0.8, 1] (a tenth of them exactly 1, as for
// shared tokens), then `zero_rows`/`zero_cols` empty lines, then rows and
// columns shuffled.
WeightMatrix BlockSparseMatrix(const std::vector<BlockShape>& blocks,
                               size_t zero_rows, size_t zero_cols,
                               double density, util::Rng& rng) {
  size_t rows = zero_rows, cols = zero_cols;
  for (const BlockShape& b : blocks) {
    rows += b.rows;
    cols += b.cols;
  }
  std::vector<size_t> row_at(rows), col_at(cols);
  std::iota(row_at.begin(), row_at.end(), size_t{0});
  std::iota(col_at.begin(), col_at.end(), size_t{0});
  for (size_t i = rows; i > 1; --i) {
    std::swap(row_at[i - 1], row_at[rng.NextBounded(i)]);
  }
  for (size_t i = cols; i > 1; --i) {
    std::swap(col_at[i - 1], col_at[rng.NextBounded(i)]);
  }
  WeightMatrix m(rows, cols);
  size_t r0 = 0, c0 = 0;
  for (const BlockShape& b : blocks) {
    for (size_t i = 0; i < b.rows; ++i) {
      for (size_t j = 0; j < b.cols; ++j) {
        if (!rng.NextBool(density)) continue;
        m.At(row_at[r0 + i], col_at[c0 + j]) =
            rng.NextBool(0.1) ? 1.0 : 0.8 + 0.2 * rng.NextDouble();
      }
    }
    r0 += b.rows;
    c0 += b.cols;
  }
  return m;
}

// The matching is one-to-one, uses only positive entries, and its weights
// summed in row order are `score` bit for bit.
void ExpectValidMatching(const WeightMatrix& m, const MatchResult& r) {
  ASSERT_EQ(r.match_of_row.size(), m.rows());
  std::vector<char> col_used(m.cols(), 0);
  double sum = 0.0;
  for (size_t row = 0; row < m.rows(); ++row) {
    const int32_t c = r.match_of_row[row];
    if (c < 0) continue;
    ASSERT_LT(static_cast<size_t>(c), m.cols());
    EXPECT_FALSE(col_used[c]) << "column " << c << " matched twice";
    col_used[c] = 1;
    EXPECT_GT(m.At(row, static_cast<size_t>(c)), 0.0);
    sum += m.At(row, static_cast<size_t>(c));
  }
  EXPECT_EQ(sum, r.score);
}

TEST(HungarianTest, ComponentSolveMatchesSeedKernel) {
  util::Rng rng(31);
  HungarianWorkspace workspace;  // warm across inputs of every size
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<BlockShape> blocks;
    const size_t num_blocks = 1 + rng.NextBounded(8);
    for (size_t b = 0; b < num_blocks; ++b) {
      switch (rng.NextBounded(4)) {
        case 0:  // 1 x k star
          blocks.push_back({1, 1 + rng.NextBounded(40)});
          break;
        case 1:  // k x 1 star
          blocks.push_back({1 + rng.NextBounded(40), 1});
          break;
        default:
          blocks.push_back({1 + rng.NextBounded(40), 1 + rng.NextBounded(40)});
      }
    }
    if (trial % 3 == 0) {  // one block of about 60 nodes
      blocks.push_back({28 + rng.NextBounded(5), 28 + rng.NextBounded(5)});
    }
    const double density = 0.15 + 0.5 * rng.NextDouble();
    const WeightMatrix m = BlockSparseMatrix(
        blocks, rng.NextBounded(6), rng.NextBounded(6), density, rng);

    const MatchResult seed = SeedDenseSolve(m, -1.0);
    const MatchResult split = HungarianMatcher::Solve(m, -1.0, &workspace);
    ASSERT_FALSE(split.early_terminated);
    EXPECT_NEAR(split.score, seed.score, 1e-9) << "trial " << trial;
    EXPECT_GE(split.label_sum + 1e-9, split.score);
    ExpectValidMatching(m, split);

    // One matrix, same bits: warm workspace, fresh workspace, no workspace.
    HungarianWorkspace fresh;
    EXPECT_EQ(HungarianMatcher::Solve(m, -1.0, &fresh).score, split.score);
    EXPECT_EQ(HungarianMatcher::Solve(m).score, split.score);

    std::vector<double> thresholds = {split.score + 1e-6, split.score - 1e-6};
    for (int t = 0; t < 6; ++t) {
      thresholds.push_back(1.5 * split.score * rng.NextDouble());
    }
    for (const double t : thresholds) {
      const MatchResult seed_t = SeedDenseSolve(m, t);
      const MatchResult split_t = HungarianMatcher::Solve(m, t, &workspace);
      EXPECT_EQ(split_t.early_terminated, seed_t.early_terminated)
          << "trial " << trial << " threshold " << t << " SO " << split.score;
      if (!split_t.early_terminated) {
        EXPECT_EQ(split_t.score, split.score);
      }
    }
  }
}

TEST(HungarianTest, ComponentSolveMatchesPermutationOracle) {
  // Small multi-component inputs, rectangular both ways, with stars and
  // empty lines; the larger side stays <= 8 for the exhaustive oracle.
  util::Rng rng(37);
  HungarianWorkspace workspace;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<BlockShape> blocks;
    size_t rows = 0, cols = 0;
    while (blocks.size() < 4) {
      const BlockShape b{1 + rng.NextBounded(3), 1 + rng.NextBounded(3)};
      if (rows + b.rows > 7 || cols + b.cols > 7) break;
      blocks.push_back(b);
      rows += b.rows;
      cols += b.cols;
    }
    const WeightMatrix m = BlockSparseMatrix(
        blocks, rng.NextBounded(2), rng.NextBounded(2), 0.7, rng);
    const MatchResult r = HungarianMatcher::Solve(m, -1.0, &workspace);
    EXPECT_NEAR(r.score, BruteForceMatching(m), 1e-9) << "trial " << trial;
    ExpectValidMatching(m, r);
  }
}

// ---------------------------------------------------------------- Greedy --

TEST(GreedyTest, EmptyEdges) {
  EXPECT_DOUBLE_EQ(GreedyMatchEdges({}).score, 0.0);
}

TEST(GreedyTest, RespectsOneToOne) {
  std::vector<WeightedEdge> edges = {
      {0, 0, 0.9}, {0, 1, 0.8}, {1, 0, 0.7}, {1, 1, 0.1}};
  const GreedyResult r = GreedyMatchEdges(edges);
  EXPECT_NEAR(r.score, 1.0, 1e-12);  // 0.9 + 0.1
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[0], (std::pair<uint32_t, uint32_t>{0, 0}));
}

TEST(GreedyTest, IgnoresNonPositiveWeights) {
  std::vector<WeightedEdge> edges = {{0, 0, 0.0}, {1, 1, -1.0}, {2, 2, 0.4}};
  const GreedyResult r = GreedyMatchEdges(edges);
  EXPECT_NEAR(r.score, 0.4, 1e-12);
  EXPECT_EQ(r.pairs.size(), 1u);
}

TEST(GreedyTest, WithinFactorTwoOfOptimal) {
  // Lemma 3: greedy >= SO / 2; also greedy <= SO.
  util::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = 1 + rng.NextBounded(6);
    const size_t cols = 1 + rng.NextBounded(6);
    WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        m.At(i, j) = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
      }
    }
    const double optimal = HungarianMatcher::Solve(m).score;
    const double greedy = GreedyMatch(m).score;
    EXPECT_LE(greedy, optimal + 1e-9);
    EXPECT_GE(greedy, optimal / 2.0 - 1e-9);
  }
}

// ------------------------------------------------------- SemanticOverlap --

TEST(SemanticOverlapTest, VanillaOverlapIsLowerBound) {
  // Lemma 1: |Q ∩ C| <= SO(Q, C) for any α <= 1.
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {1, 2, 10};
  const Score so = SemanticOverlap(q, c, sim, 0.8);
  EXPECT_GE(so, 2.0 - 1e-12);        // overlap {1, 2}
  EXPECT_NEAR(so, 2.9, 1e-12);       // plus edge (0, 10)
}

TEST(SemanticOverlapTest, AlphaClampsWeakEdges) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.75);
  const std::vector<TokenId> q = {0};
  const std::vector<TokenId> c = {10};
  EXPECT_NEAR(SemanticOverlap(q, c, sim, 0.7), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(SemanticOverlap(q, c, sim, 0.8), 0.0);
}

TEST(SemanticOverlapTest, SymmetricMeasure) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  sim.Set(1, 11, 0.8);
  sim.Set(0, 11, 0.85);
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {10, 11, 2};
  EXPECT_NEAR(SemanticOverlap(q, c, sim, 0.7),
              SemanticOverlap(c, q, sim, 0.7), 1e-12);
}

TEST(SemanticOverlapTest, GraphRestrictionKeepsOnlyIncidentNodes) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  const std::vector<TokenId> q = {0, 1, 2, 3, 4};
  const std::vector<TokenId> c = {10, 20, 21, 22};
  const BipartiteGraph g = BuildGraph(q, c, sim, 0.8);
  EXPECT_EQ(g.query_rows.size(), 1u);
  EXPECT_EQ(g.set_cols.size(), 1u);
  EXPECT_EQ(g.edges, 1u);
}

TEST(SemanticOverlapTest, BoundedByMinCardinality) {
  testing::TableSimilarity sim;
  for (TokenId a = 0; a < 3; ++a) {
    for (TokenId b = 10; b < 16; ++b) sim.Set(a, b, 0.95);
  }
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {10, 11, 12, 13, 14, 15};
  const Score so = SemanticOverlap(q, c, sim, 0.8);
  EXPECT_LE(so, 3.0 + 1e-12);
  EXPECT_NEAR(so, 3 * 0.95, 1e-12);
}

}  // namespace
}  // namespace koios::matching
