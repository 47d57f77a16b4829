// Bounded-variable simplex for linear programs in the form
//     minimize c^T x   subject to   A x {<=,>=,=} b,   lo <= x <= hi,
// kept alive between solves so a caller can change bounds or append rows
// and reoptimize from the last basis.
//
// This is the LP relaxation engine under the branch-and-bound MIP solver
// that substitutes for CPLEX in the paper's Sect. 4.1/4.4 encodings.
//
// Every row i gets a logical column s_i = a_i . x whose bounds encode the
// row's sense (<= b: (-inf, b]; >= b: [b, inf); = b: [b, b]), so the
// constraint set is [A -I](x, s) = 0 with bounds on every column. The
// basis is kept in product form around its only non-trivial block: with R
// the rows whose logical is nonbasic (tight) and S the basic structural
// columns, |R| = |S| = k and the basis inverse is determined by
// K = A[R, S]^-1. k never exceeds the number of structural columns, so a
// pivot costs O(k^2 + nnz(A)) however many rows have been appended. K is
// updated by rank-one and bordering formulas and reinverted from the
// original rows when a primal residual check exceeds tolerance.
//
// Solve() starts from the current basis. If that basis is dual feasible
// (always so after bound changes or appended rows, since the objective
// never changes) it runs dual simplex; otherwise primal simplex, phase 1 on
// the sum of infeasibilities then phase 2. Both price by largest violation
// and fall back to Bland's rule after a degenerate stretch (anti-cycling).
#ifndef CLOUDIA_SOLVER_LP_SIMPLEX_H_
#define CLOUDIA_SOLVER_LP_SIMPLEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace cloudia::lp {

enum class RowSense { kLe, kGe, kEq };

/// One linear constraint: sum(coeffs) sense rhs. Coefficients are sparse
/// (var index, value) pairs; duplicate indices are summed.
struct Row {
  std::vector<std::pair<int, double>> coeffs;
  RowSense sense = RowSense::kLe;
  double rhs = 0.0;
};

/// minimize objective . x subject to rows, x >= 0.
struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars
  std::vector<Row> rows;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusName(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< size num_vars (meaningful when kOptimal)
  int iterations = 0;
};

/// A live LP: fixed objective, bounds that may change, rows that may be
/// appended. Deterministic.
class Simplex {
 public:
  /// One structural column per objective entry, each with bounds [0, inf).
  explicit Simplex(std::vector<double> objective);

  /// Sets the bounds of structural column `var`; requires lo <= hi. Keeps
  /// the basis: a nonbasic column moves to the matching finite bound.
  void SetBounds(int var, double lo, double hi);

  /// Appends a row with its logical column basic, which extends the current
  /// basis (and keeps it dual feasible).
  void AddRow(const Row& row);

  /// Optimizes from the current basis. kIterationLimit when
  /// `max_iterations` pivots are spent or `deadline` expires (checked every
  /// few iterations); the basis stays valid for a later call.
  LpStatus Solve(int max_iterations = 200000,
                 Deadline deadline = Deadline::Infinite());

  /// Objective and structural values of the last solve's basis.
  double objective() const;
  std::vector<double> x() const;
  /// Pivots and bound flips over the lifetime of this LP.
  int64_t iterations() const { return iterations_; }

 private:
  enum class State : uint8_t { kBasic, kLower, kUpper, kFree };
  struct RowView {
    const int* idx;
    const double* val;
    size_t size;
  };
  enum class Phase { kOptimal, kInfeasible, kUnbounded, kLimit, kPrimal };

  int num_rows() const { return static_cast<int>(row_start_.size()) - 1; }
  int Logical(int row) const { return n_ + row; }
  RowView RowAt(int row) const {
    const size_t begin = row_start_[static_cast<size_t>(row)];
    return {row_idx_.data() + begin, row_val_.data() + begin,
            row_start_[static_cast<size_t>(row) + 1] - begin};
  }
  // Calls f(col) for every nonbasic column: structural columns outside S,
  // then the logicals of the tight rows.
  template <typename F>
  void ForEachNonbasic(F f) const {
    for (int j = 0; j < n_; ++j) {
      if (pos_s_[static_cast<size_t>(j)] < 0) f(j);
    }
    for (int i : tight_r_) f(Logical(i));
  }
  double NonbasicValue(int col) const;
  State NonbasicState(int col, State preferred) const;
  bool Limited(int64_t limit, const Deadline& deadline) const;

  // Primal values of all columns from the nonbasic values and K; returns the
  // largest residual over the tight rows.
  double ComputePrimal();
  // Keeps the primal values accurate: reinverts K when the residual check
  // fails (or after a stretch of updates) and recomputes.
  void RefreshPrimal();
  // Reduced costs d of the nonbasic columns for column costs `costs` (size
  // n_ + m); `logical_costs` says whether any basic logical has a cost.
  void ComputeDuals(const std::vector<double>& costs, bool logical_costs);
  // Largest bound violation of basic column `col` (0 when feasible), signed
  // negative when below lo.
  double Infeasibility(int col) const;
  // Moves boxed nonbasic columns to the bound their reduced cost prefers;
  // false when a one-sided or free column is dual infeasible.
  bool MakeDualFeasible();

  Phase DualSimplex(int64_t limit, const Deadline& deadline);
  Phase PrimalSimplex(int64_t limit, const Deadline& deadline);

  // w = K a[R, q] for structural q (indexed by S position).
  void KTimesColumn(int q, std::vector<double>* w) const;
  // z = a[row, S] K (indexed by R position).
  void RowTimesK(int row, std::vector<double>* z) const;
  // Column of the basis inverse times entering column q, for every basic
  // column: alpha_[col].
  void Ftran(int q);
  // Basis change: q enters, basic column `leave` leaves to `leave_state`.
  void Pivot(int q, int leave, State leave_state);
  bool Reinvert();
  void ResetToSlackBasis();

  double& K(int p, int t) { return k_[Index(p, t)]; }
  double K(int p, int t) const { return k_[Index(p, t)]; }
  size_t Index(int p, int t) const {
    return static_cast<size_t>(p) * static_cast<size_t>(k_stride_) + static_cast<size_t>(t);
  }

  int n_ = 0;
  std::vector<double> cost_;   // size n_ + m (logicals cost 0)
  std::vector<double> lo_, hi_;
  std::vector<State> state_;
  std::vector<double> value_;
  std::vector<double> d_;      // reduced costs
  // Rows in compressed sparse row form, duplicates merged.
  std::vector<size_t> row_start_ = {0};
  std::vector<int> row_idx_;
  std::vector<double> row_val_;
  std::vector<std::vector<std::pair<int, double>>> cols_;  // (row, coeff)
  std::vector<int> basic_s_;   // S: basic structural columns
  std::vector<int> tight_r_;   // R: rows whose logical is nonbasic
  std::vector<int> pos_s_;     // column -> position in S, or -1
  std::vector<int> pos_r_;     // row -> position in R, or -1
  std::vector<double> k_;      // K = A[R, S]^-1, row p (S), column t (R)
  int k_stride_ = 0;           // row stride of k_, >= k
  int updates_since_reinvert_ = 0;
  int64_t iterations_ = 0;
  // Scratch.
  std::vector<double> work_, work2_, alpha_;
};

/// Solves the LP once from the all-logical basis. Stops with
/// kIterationLimit when `deadline` expires mid-solve, so callers with
/// wall-clock budgets never stall inside a single large relaxation.
LpSolution SolveLp(const LpProblem& problem, int max_iterations = 200000,
                   Deadline deadline = Deadline::Infinite());

}  // namespace cloudia::lp

#endif  // CLOUDIA_SOLVER_LP_SIMPLEX_H_
