// Differential tests for the live LP: reoptimizing from the last basis after
// bound changes or appended rows must agree with a cold solve of the same
// LP, including when the change makes the LP infeasible or unbounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "solver/lp/simplex.h"

namespace cloudia::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A random LP over boxed columns with small integer data: some
// coefficients zero, every row sense.
struct RandomLp {
  std::vector<double> objective;
  std::vector<double> lo, hi;
  std::vector<Row> rows;
};

Row RandomRow(int n, Rng& rng) {
  Row row;
  for (int j = 0; j < n; ++j) {
    if (rng.Below(3) == 0) continue;
    row.coeffs.push_back({j, static_cast<double>(rng.Below(7)) - 3.0});
  }
  row.sense = static_cast<RowSense>(rng.Below(3));
  row.rhs = static_cast<double>(rng.Below(9)) - 2.0;
  return row;
}

RandomLp MakeRandomLp(Rng& rng) {
  RandomLp lp;
  const int n = 2 + rng.Below(6);
  const int m = 1 + rng.Below(6);
  for (int j = 0; j < n; ++j) {
    lp.objective.push_back(static_cast<double>(rng.Below(11)) - 5.0);
    lp.lo.push_back(0.0);
    lp.hi.push_back(1.0 + rng.Below(4));
  }
  for (int i = 0; i < m; ++i) lp.rows.push_back(RandomRow(n, rng));
  return lp;
}

Simplex Build(const RandomLp& p) {
  Simplex lp(p.objective);
  for (size_t j = 0; j < p.lo.size(); ++j) {
    lp.SetBounds(static_cast<int>(j), p.lo[j], p.hi[j]);
  }
  for (const Row& row : p.rows) lp.AddRow(row);
  return lp;
}

// Every row and bound holds at x within tol.
bool Satisfies(const RandomLp& p, const std::vector<double>& x, double tol) {
  for (size_t j = 0; j < x.size(); ++j) {
    if (x[j] < p.lo[j] - tol || x[j] > p.hi[j] + tol) return false;
  }
  for (const Row& row : p.rows) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.coeffs) lhs += coeff * x[static_cast<size_t>(var)];
    if (row.sense != RowSense::kGe && lhs > row.rhs + tol) return false;
    if (row.sense != RowSense::kLe && lhs < row.rhs - tol) return false;
  }
  return true;
}

// The warm LP agrees with a cold solve of `p`: same status and, when
// optimal, the same objective within 1e-9 at a feasible point.
void ExpectMatchesCold(Simplex& warm, const RandomLp& p, int trial, int step) {
  LpStatus warm_status = warm.Solve();
  Simplex cold = Build(p);
  LpStatus cold_status = cold.Solve();
  ASSERT_NE(cold_status, LpStatus::kIterationLimit);
  ASSERT_EQ(warm_status, cold_status) << "trial " << trial << " step " << step;
  if (cold_status != LpStatus::kOptimal) return;
  EXPECT_NEAR(warm.objective(), cold.objective(),
              1e-9 * std::max(1.0, std::fabs(cold.objective())))
      << "trial " << trial << " step " << step;
  EXPECT_TRUE(Satisfies(p, warm.x(), 1e-9)) << "trial " << trial << " step " << step;
}

TEST(SimplexWarmTest, BoundChangesMatchColdSolve) {
  Rng rng(101);
  int infeasible_children = 0;
  int unbounded_children = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomLp p = MakeRandomLp(rng);
    Simplex warm = Build(p);
    ExpectMatchesCold(warm, p, trial, 0);
    // A branch-and-bound-like walk: tighten one column's bounds at a time,
    // sometimes to a single value, sometimes back to a wide box.
    for (int step = 1; step <= 6; ++step) {
      const int j = rng.Below(static_cast<int>(p.lo.size()));
      const size_t v = static_cast<size_t>(j);
      const int width = static_cast<int>(std::min(p.hi[v], 4.0) - p.lo[v]);
      switch (rng.Below(3)) {
        case 0:
          p.hi[v] = p.lo[v] + static_cast<double>(rng.Below(width + 1));
          break;
        case 1:
          p.lo[v] = std::min(p.hi[v], 4.0) - static_cast<double>(rng.Below(width + 1));
          break;
        default:
          // Restore a wide box, or drop the upper bound altogether (the LP
          // may then be unbounded).
          p.lo[v] = 0.0;
          p.hi[v] = rng.Below(2) == 0 ? 4.0 : kInf;
          break;
      }
      warm.SetBounds(j, p.lo[v], p.hi[v]);
      Simplex probe = Build(p);
      const LpStatus status = probe.Solve();
      infeasible_children += status == LpStatus::kInfeasible;
      unbounded_children += status == LpStatus::kUnbounded;
      ExpectMatchesCold(warm, p, trial, step);
    }
  }
  // The walk must actually exercise infeasible and unbounded children.
  EXPECT_GT(infeasible_children, 50);
  EXPECT_GT(unbounded_children, 20);
}

TEST(SimplexWarmTest, AppendedRowsMatchColdSolve) {
  Rng rng(202);
  int infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomLp p = MakeRandomLp(rng);
    Simplex warm = Build(p);
    ExpectMatchesCold(warm, p, trial, 0);
    for (int step = 1; step <= 4; ++step) {
      const int added = 1 + rng.Below(3);
      for (int r = 0; r < added; ++r) {
        Row row = RandomRow(static_cast<int>(p.lo.size()), rng);
        warm.AddRow(row);
        p.rows.push_back(row);
      }
      ExpectMatchesCold(warm, p, trial, step);
      Simplex probe = Build(p);
      if (probe.Solve() == LpStatus::kInfeasible) ++infeasible;
    }
  }
  EXPECT_GT(infeasible, 50);
}

TEST(SimplexWarmTest, UnboundedColumnsAfterRestoringBounds) {
  // min -x0 - x1 with x0 + x1 <= 3 and x0 unbounded above: restoring an
  // infinite bound leaves a nonbasic column dual infeasible, which the
  // engine must repair with primal simplex.
  Simplex lp({-1.0, -1.0});
  lp.AddRow({{{0, 1.0}, {1, 1.0}}, RowSense::kLe, 3.0});
  lp.SetBounds(0, 0.0, 1.0);
  lp.SetBounds(1, 0.0, 1.0);
  ASSERT_EQ(lp.Solve(), LpStatus::kOptimal);
  EXPECT_NEAR(lp.objective(), -2.0, 1e-12);
  lp.SetBounds(0, 0.0, kInf);
  ASSERT_EQ(lp.Solve(), LpStatus::kOptimal);
  EXPECT_NEAR(lp.objective(), -3.0, 1e-12);
  lp.SetBounds(1, 0.0, kInf);
  lp.AddRow({{{1, 1.0}}, RowSense::kGe, 5.0});
  EXPECT_EQ(lp.Solve(), LpStatus::kInfeasible);
}

}  // namespace
}  // namespace cloudia::lp
