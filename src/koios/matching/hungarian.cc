#include "koios/matching/hungarian.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace koios::matching {

namespace {
constexpr double kSlackEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Early termination must never fire on an exact tie: when SO(C) == θlb the
// dual sum converges to θlb and rounding could dip below it. Requiring the
// sum to fall a margin *below* the threshold keeps ties alive (Lemma 2/8
// both use strict inequality) at the cost of not pruning sets within the
// margin of θlb.
constexpr double kTerminationMargin = 1e-7;

// Union-find root with path halving over the rows (0..rows-1) and columns
// (rows..rows+cols-1) of the α-graph.
int32_t FindRoot(std::vector<int32_t>& parent, int32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

}  // namespace

double WeightMatrix::MaxWeight() const {
  double max_w = 0.0;
  for (double x : w_) max_w = std::max(max_w, x);
  return max_w;
}

// Dense Kuhn–Munkres with slack arrays on the workspace's n x n sub-matrix
// (a component, zero-padded to a square). The early-termination check sees
// `other_bound + Σ l(v)`: the bound of every other component plus this
// one's dual sum. Returns false when that falls below `prune_limit`; the
// matching is then incomplete. *label_sum receives the last dual sum.
bool HungarianMatcher::SolveDense(HungarianWorkspace& ws, size_t n,
                                  double other_bound, double prune_limit,
                                  double* label_sum_out, size_t* rounds) {
  const double* sub = ws.sub_.data();
  auto w = [&](size_t x, size_t y) -> double { return sub[x * n + y]; };

  // Feasible labels: lx = row max, ly = 0. assign() reuses the arena's
  // capacity when it is already >= n.
  std::vector<double>& lx = ws.lx_;
  std::vector<double>& ly = ws.ly_;
  lx.assign(n, 0.0);
  ly.assign(n, 0.0);
  double label_sum = 0.0;
  for (size_t x = 0; x < n; ++x) {
    double mx = 0.0;
    for (size_t y = 0; y < n; ++y) mx = std::max(mx, w(x, y));
    lx[x] = mx;
    label_sum += mx;
  }

  std::vector<int32_t>& match_x = ws.match_x_;
  std::vector<int32_t>& match_y = ws.match_y_;
  match_x.assign(n, -1);
  match_y.assign(n, -1);
  std::vector<double>& slack = ws.slack_;
  std::vector<int32_t>& slack_x = ws.slack_x_;    // argmin row for slack[y]
  std::vector<int32_t>& parent_y = ws.parent_y_;  // alternating-tree parent
  std::vector<char>& in_s = ws.in_s_;
  std::vector<char>& in_t = ws.in_t_;
  slack.resize(n);
  slack_x.resize(n);
  parent_y.resize(n);
  in_s.resize(n);
  in_t.resize(n);

  for (size_t root = 0; root < n; ++root) {
    // Early termination (Lemma 8): Σ l(v) only decreases; if it is already
    // below the threshold, the optimum (≤ label_sum) cannot reach it.
    if (other_bound + label_sum < prune_limit) {
      *label_sum_out = label_sum;
      return false;
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
      // Find a tight, unexplored column.
      int32_t y0 = -1;
      for (size_t y = 0; y < n; ++y) {
        if (!in_t[y] && slack[y] <= kSlackEps) {
          y0 = static_cast<int32_t>(y);
          break;
        }
      }
      if (y0 == -1) {
        // Improve labels by δ = min slack over unexplored columns.
        double delta = kInf;
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) delta = std::min(delta, slack[y]);
        }
        assert(delta < kInf);
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
        // |S| = |T| + 1 in the alternating tree, so the sum decreases.
        label_sum -= delta * static_cast<double>(s_count - t_count);
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) slack[y] -= delta;
        }
        if (other_bound + label_sum < prune_limit) {
          *label_sum_out = label_sum;
          return false;
        }
        continue;
      }

      in_t[y0] = 1;
      parent_y[y0] = slack_x[y0];
      if (match_y[y0] == -1) {
        augment_y = y0;
      } else {
        // Extend the tree through y0's current partner.
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

    // Augment along the alternating path ending at augment_y.
    int32_t y = augment_y;
    while (y != -1) {
      const int32_t x = parent_y[y];
      const int32_t prev_y = match_x[x];
      match_x[x] = y;
      match_y[y] = x;
      y = prev_y;
    }
    ++*rounds;
  }
  *label_sum_out = label_sum;
  return true;
}

MatchResult HungarianMatcher::Solve(const WeightMatrix& weights,
                                    double prune_threshold,
                                    HungarianWorkspace* workspace) {
  const size_t rows = weights.rows();
  const size_t cols = weights.cols();
  MatchResult result;
  result.match_of_row.assign(rows, -1);
  if (rows == 0 || cols == 0) return result;

  // Arena: caller-provided (reused across the EM loop) or call-local.
  HungarianWorkspace local;
  HungarianWorkspace& ws = workspace != nullptr ? *workspace : local;
  ++ws.solve_count_;

  // Row maxima, the rows' initial Kuhn–Munkres labels. Their sum is the
  // bound a dense solve of the whole matrix starts from, so a matrix that
  // cannot reach the threshold is pruned before it is split.
  const double prune_limit =
      prune_threshold >= 0.0 ? prune_threshold - kTerminationMargin : -kInf;
  std::vector<double>& row_max = ws.row_max_;
  row_max.resize(rows);
  double initial_bound = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    // Four independent maxima, so the compiler can vectorize the scan (the
    // maximum of non-negative values does not depend on the order).
    double mx[4] = {0.0, 0.0, 0.0, 0.0};
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      for (size_t l = 0; l < 4; ++l) {
        mx[l] = std::max(mx[l], weights.At(r, c + l));
      }
    }
    for (; c < cols; ++c) mx[0] = std::max(mx[0], weights.At(r, c));
    row_max[r] = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
    initial_bound += row_max[r];
  }
  // On early termination the result keeps the bound that fell below the
  // threshold and no matching.
  auto terminate = [&result](double bound) {
    result.early_terminated = true;
    result.label_sum = bound;
    std::fill(result.match_of_row.begin(), result.match_of_row.end(), -1);
  };
  if (initial_bound < prune_limit) {
    terminate(initial_bound);
    return result;
  }

  // Connected components of the positive entries by union-find. Every set
  // is rooted at its smallest index, so a column joined to any row is
  // rooted at a row.
  std::vector<int32_t>& parent = ws.parent_;
  parent.resize(rows + cols);
  for (size_t v = 0; v < rows + cols; ++v) parent[v] = static_cast<int32_t>(v);
  for (size_t r = 0; r < rows; ++r) {
    if (row_max[r] <= 0.0) continue;
    int32_t root_r = static_cast<int32_t>(r);  // r's root: r is a root so far
    for (size_t c = 0; c < cols; ++c) {
      if (weights.At(r, c) <= 0.0) continue;
      const int32_t root_c = FindRoot(parent, static_cast<int32_t>(rows + c));
      if (root_c == root_r) continue;
      parent[std::max(root_r, root_c)] = std::min(root_r, root_c);
      root_r = std::min(root_r, root_c);
    }
  }

  // Number the components by smallest row, then bucket their rows and
  // columns (each list ascending) into flat CSR arrays. Zero rows and
  // zero columns belong to no component and stay unmatched.
  std::vector<int32_t>& comp_of = ws.comp_of_;
  comp_of.assign(rows + cols, -1);
  std::vector<size_t>& row_begin = ws.comp_row_begin_;
  std::vector<size_t>& col_begin = ws.comp_col_begin_;
  row_begin.assign(1, 0);
  col_begin.assign(1, 0);
  size_t num_comps = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (row_max[r] <= 0.0) continue;
    const int32_t root = FindRoot(parent, static_cast<int32_t>(r));
    if (comp_of[root] == -1) {
      comp_of[root] = static_cast<int32_t>(num_comps++);
      row_begin.push_back(0);
      col_begin.push_back(0);
    }
    comp_of[r] = comp_of[root];
    ++row_begin[comp_of[r] + 1];
  }
  for (size_t c = 0; c < cols; ++c) {
    const int32_t root = FindRoot(parent, static_cast<int32_t>(rows + c));
    if (comp_of[root] == -1) continue;  // no positive entry: its own root
    comp_of[rows + c] = comp_of[root];
    ++col_begin[comp_of[rows + c] + 1];
  }
  for (size_t k = 0; k < num_comps; ++k) {
    row_begin[k + 1] += row_begin[k];
    col_begin[k + 1] += col_begin[k];
  }
  std::vector<int32_t>& comp_rows = ws.comp_rows_;
  std::vector<int32_t>& comp_cols = ws.comp_cols_;
  comp_rows.resize(row_begin[num_comps]);
  comp_cols.resize(col_begin[num_comps]);
  std::vector<size_t>& fill = ws.fill_;
  fill.assign(row_begin.begin(), row_begin.end() - 1);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t k = comp_of[r];
    if (k >= 0) comp_rows[fill[k]++] = static_cast<int32_t>(r);
  }
  fill.assign(col_begin.begin(), col_begin.end() - 1);
  for (size_t c = 0; c < cols; ++c) {
    const int32_t k = comp_of[rows + c];
    if (k >= 0) comp_cols[fill[k]++] = static_cast<int32_t>(c);
  }

  // Lemma 8 over the whole graph: the exact optimum of every solved
  // component, plus the dual sum of the one being solved, plus the initial
  // dual sum (Σ row maxima) of every unsolved one. pending[k] is that last
  // term for components k.. (pending[0] is initial_bound summed by
  // component).
  std::vector<double>& pending = ws.pending_;
  pending.assign(num_comps + 1, 0.0);
  for (size_t k = num_comps; k-- > 0;) {
    double init = 0.0;
    for (size_t i = row_begin[k]; i < row_begin[k + 1]; ++i) {
      init += row_max[comp_rows[i]];
    }
    pending[k] = pending[k + 1] + init;
  }

  double solved = 0.0;     // Σ exact optima of the solved components
  double label_sum = 0.0;  // Σ final dual sums of the solved components
  for (size_t k = 0; k < num_comps; ++k) {
    const int32_t* krows = comp_rows.data() + row_begin[k];
    const int32_t* kcols = comp_cols.data() + col_begin[k];
    const size_t nr = row_begin[k + 1] - row_begin[k];
    const size_t nc = col_begin[k + 1] - col_begin[k];
    double optimum = 0.0;
    if (nr == 1 || nc == 1) {
      // A star: the optimum is its largest edge (first one on ties).
      int32_t best_r = krows[0], best_c = kcols[0];
      for (size_t i = 0; i < nr; ++i) {
        for (size_t j = 0; j < nc; ++j) {
          const double wij = weights.At(krows[i], kcols[j]);
          if (wij > optimum) {
            optimum = wij;
            best_r = krows[i];
            best_c = kcols[j];
          }
        }
      }
      result.match_of_row[best_r] = best_c;
      label_sum += optimum;
      ++result.rounds;
    } else {
      // Compact the component into a zero-padded n x n square.
      const size_t n = std::max(nr, nc);
      std::vector<double>& sub = ws.sub_;
      sub.assign(n * n, 0.0);
      for (size_t i = 0; i < nr; ++i) {
        for (size_t j = 0; j < nc; ++j) {
          sub[i * n + j] = weights.At(krows[i], kcols[j]);
        }
      }
      double comp_label_sum = 0.0;
      if (!SolveDense(ws, n, solved + pending[k + 1], prune_limit,
                      &comp_label_sum, &result.rounds)) {
        terminate(solved + comp_label_sum + pending[k + 1]);
        return result;
      }
      // Harvest: optional matching drops pad assignments and zero edges.
      for (size_t i = 0; i < nr; ++i) {
        const int32_t j = ws.match_x_[i];
        if (j >= 0 && static_cast<size_t>(j) < nc && sub[i * n + j] > 0.0) {
          optimum += sub[i * n + j];
          result.match_of_row[krows[i]] = kcols[j];
        }
      }
      label_sum += comp_label_sum;
    }
    solved += optimum;
    if (solved + pending[k + 1] < prune_limit) {
      terminate(solved + pending[k + 1]);
      return result;
    }
  }

  // The score is summed in row order, so one matrix always gives the same
  // bits whatever the component order.
  double score = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const int32_t c = result.match_of_row[r];
    if (c >= 0) score += weights.At(r, static_cast<size_t>(c));
  }
  result.score = score;
  result.label_sum = label_sum;
  return result;
}

}  // namespace koios::matching
