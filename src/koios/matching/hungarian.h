// Maximum-weight bipartite matching via the Hungarian (Kuhn–Munkres)
// algorithm with slack arrays, plus the early-termination filter of paper
// Lemma 8.
//
// The α-graph of a query and a set is sparse and falls apart into many
// small connected components, and a maximum-weight matching of a
// disconnected graph is the union of the per-component optima. Solve
// therefore finds the components of the positive entries, solves a
// component with one row or one column by its largest edge, and runs the
// dense O(n³) kernel on each other component's compacted sub-matrix, so
// the cost is a sum over components rather than one padded square.
//
// The kernel keeps a feasible node labeling l with Σ_v l(v) ≥ w(M*), and
// label updates only ever decrease the sum. Lemma 8's bound covers the
// whole graph: the exact optimum of each solved component, plus the label
// sum of the component being solved, plus the initial label sum (its row
// maxima) of each unsolved one. It starts at Σ row maxima, like one dense
// solve of the whole matrix, and matching aborts as soon as it drops below
// the current pruning threshold θlb.
//
// The paper's semantic overlap is an *optional* one-to-one matching with
// non-negative weights; padding a component's sub-matrix to a square with
// zeros makes the optimal perfect matching equal the optimal optional
// matching.
#ifndef KOIOS_MATCHING_HUNGARIAN_H_
#define KOIOS_MATCHING_HUNGARIAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "koios/util/types.h"

namespace koios::matching {

/// Dense rows x cols weight matrix, row-major. Weights must be >= 0.
class WeightMatrix {
 public:
  WeightMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), w_(rows * cols, 0.0) {}

  /// Re-shape to rows x cols, all zeros, reusing the existing allocation
  /// when it is large enough (the post-processing EM loop builds one matrix
  /// per candidate into a per-thread instance).
  void Reset(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    w_.assign(rows * cols, 0.0);
  }

  double& At(size_t r, size_t c) { return w_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return w_[r * cols_ + c]; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Largest entry (0 for an empty matrix).
  double MaxWeight() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> w_;
};

/// Reusable solve arena: the component split's labels and row/column
/// lists, the compacted sub-matrix and the kernel's arrays (sized by the
/// largest component), grown lazily by Solve and reused across calls so
/// the post-processing loop (one Solve per surviving candidate) stops
/// paying an allocation storm per matching. One workspace per thread —
/// Solve never shares one across concurrent calls; the pooled EM batches
/// keep a thread_local instance.
class HungarianWorkspace {
 public:
  /// Number of Solve calls that used this workspace (0 = fresh). The
  /// em_workspace_reuses stat counts calls beyond each workspace's first.
  size_t solve_count() const { return solve_count_; }

 private:
  friend class HungarianMatcher;
  // Component split: union-find parents over rows then columns, component
  // ids, and per-component CSR lists of rows and columns.
  std::vector<int32_t> parent_, comp_of_, comp_rows_, comp_cols_;
  std::vector<size_t> comp_row_begin_, comp_col_begin_, fill_;
  // Row maxima, and pending_[k] = Σ row maxima of components k..
  std::vector<double> row_max_, pending_;
  // One component's sub-matrix, zero-padded to a square, and the kernel.
  std::vector<double> sub_;
  std::vector<double> lx_, ly_, slack_;
  std::vector<int32_t> match_x_, match_y_, slack_x_, parent_y_;
  std::vector<char> in_s_, in_t_;
  size_t solve_count_ = 0;
};

struct MatchResult {
  /// Sum of matched edge weights (the semantic overlap when the matrix is
  /// the α-clamped similarity matrix of Q x C).
  Score score = 0.0;
  /// True if matching was aborted by the early-termination filter; `score`
  /// is then meaningless (the set's SO is certified < prune_threshold).
  bool early_terminated = false;
  /// match_of_row[r] = matched column, or -1 if row r is unmatched or its
  /// matched edge has zero weight (optional matching semantics).
  std::vector<int32_t> match_of_row;
  /// Number of augmentations over all components (for the micro
  /// benchmarks); a one-row or one-column component counts as one.
  size_t rounds = 0;
  /// Σ of the components' final Σ l(v), the Kuhn–Munkres dual bound on the
  /// matching weight; on early termination, the bound that fell below the
  /// threshold.
  double label_sum = 0.0;
};

class HungarianMatcher {
 public:
  /// Computes a maximum-weight optional matching of `weights`, one
  /// connected component at a time in order of smallest row. The score is
  /// summed in row order over match_of_row, so one matrix always gives the
  /// same bits.
  ///
  /// If `prune_threshold` >= 0, the run aborts once the whole-graph dual
  /// bound certifies that the optimum is below the threshold (Lemma 8); the
  /// result then has early_terminated = true.
  ///
  /// `workspace` (nullable) supplies the solve arrays; passing one across
  /// calls eliminates the per-candidate allocations of the arena.
  static MatchResult Solve(const WeightMatrix& weights,
                           double prune_threshold = -1.0,
                           HungarianWorkspace* workspace = nullptr);

 private:
  static bool SolveDense(HungarianWorkspace& ws, size_t n, double other_bound,
                         double prune_limit, double* label_sum,
                         size_t* rounds);
};

}  // namespace koios::matching

#endif  // KOIOS_MATCHING_HUNGARIAN_H_
