#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "solver/mip/branch_and_bound.h"
#include "solver/mip/model.h"

namespace cloudia::mip {
namespace {

TEST(MipModelTest, VarAndRowBookkeeping) {
  MipModel m;
  int x = m.AddBinaryVar(2.0, "x");
  int y = m.AddContinuousVar(1.0, "y");
  EXPECT_EQ(m.num_vars(), 2);
  EXPECT_EQ(m.num_rows(), 0);  // x <= 1 is a bound, not a row
  EXPECT_EQ(m.upper(x), 1.0);
  EXPECT_EQ(m.upper(y), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(m.is_integer(x));
  EXPECT_FALSE(m.is_integer(y));
  EXPECT_EQ(m.name(x), "x");
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({1.0, 3.0}), 5.0);
}

TEST(MipModelTest, FeasibilityCheck) {
  MipModel m;
  m.AddBinaryVar(1.0);
  m.AddBinaryVar(1.0);
  m.AddConstraint({{{0, 1.0}, {1, 1.0}}, lp::RowSense::kLe, 1.0});
  EXPECT_TRUE(m.IsFeasible({1.0, 0.0}));
  EXPECT_FALSE(m.IsFeasible({1.0, 1.0}));   // violates row
  EXPECT_FALSE(m.IsFeasible({0.5, 0.0}));   // fractional integer var
  EXPECT_FALSE(m.IsFeasible({-1.0, 0.0}));  // negative
}

TEST(MipTest, IntegerRounding) {
  // min x s.t. 2x >= 3, x integer -> 2 (LP gives 1.5).
  MipModel m;
  m.AddIntegerVar(1.0);
  m.AddConstraint({{{0, 2.0}}, lp::RowSense::kGe, 3.0});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
  EXPECT_NEAR(r.best_bound, r.objective, 1e-6);
}

TEST(MipTest, LpFeasibleButIntegerInfeasible) {
  // 2x = 1 with x integer.
  MipModel m;
  m.AddIntegerVar(1.0);
  m.AddConstraint({{{0, 2.0}}, lp::RowSense::kEq, 1.0});
  MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(MipTest, KnapsackMatchesBruteForce) {
  // max value s.t. weight <= W over binaries == min of negated values.
  const std::vector<double> value = {10, 13, 7, 8, 12, 4};
  const std::vector<double> weight = {5, 7, 3, 4, 6, 2};
  const double capacity = 13;
  MipModel m;
  for (double v : value) m.AddBinaryVar(-v);
  lp::Row cap;
  for (size_t i = 0; i < weight.size(); ++i) {
    cap.coeffs.push_back({static_cast<int>(i), weight[i]});
  }
  cap.sense = lp::RowSense::kLe;
  cap.rhs = capacity;
  m.AddConstraint(cap);

  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);

  double best = 0;
  for (int mask = 0; mask < (1 << 6); ++mask) {
    double w = 0, v = 0;
    for (int i = 0; i < 6; ++i) {
      if (mask & (1 << i)) {
        w += weight[static_cast<size_t>(i)];
        v += value[static_cast<size_t>(i)];
      }
    }
    if (w <= capacity) best = std::max(best, v);
  }
  EXPECT_NEAR(-r.objective, best, 1e-6);
}

TEST(MipTest, AssignmentWithRandomCosts) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 4;
    std::vector<std::vector<double>> cost(
        n, std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : cost) {
      for (double& c : row) c = std::floor(rng.Uniform(1, 20));
    }
    MipModel m;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        m.AddBinaryVar(cost[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
    }
    for (int i = 0; i < n; ++i) {
      lp::Row r;
      for (int j = 0; j < n; ++j) r.coeffs.push_back({n * i + j, 1.0});
      r.sense = lp::RowSense::kEq;
      r.rhs = 1.0;
      m.AddConstraint(r);
    }
    for (int j = 0; j < n; ++j) {
      lp::Row r;
      for (int i = 0; i < n; ++i) r.coeffs.push_back({n * i + j, 1.0});
      r.sense = lp::RowSense::kEq;
      r.rhs = 1.0;
      m.AddConstraint(r);
    }
    MipResult r = SolveMip(m);
    ASSERT_EQ(r.status, MipStatus::kOptimal);

    // Brute force over permutations.
    std::vector<int> perm(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    double best = 1e18;
    do {
      double c = 0;
      for (int i = 0; i < n; ++i) {
        c += cost[static_cast<size_t>(i)][static_cast<size_t>(perm[static_cast<size_t>(i)])];
      }
      best = std::min(best, c);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(MipTest, WarmStartSeedsIncumbent) {
  // min -x - y, x,y binary, x + y <= 1. Optimum -1. Warm start (0, 0): obj 0.
  MipModel m;
  m.AddBinaryVar(-1.0);
  m.AddBinaryVar(-1.0);
  m.AddConstraint({{{0, 1.0}, {1, 1.0}}, lp::RowSense::kLe, 1.0});
  MipOptions opts;
  opts.warm_start = {0.0, 0.0};
  MipResult r = SolveMip(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
  ASSERT_GE(r.incumbent_trace.size(), 2u);
  EXPECT_NEAR(r.incumbent_trace.front().objective, 0.0, 1e-9);
  // Trace is strictly improving.
  for (size_t i = 1; i < r.incumbent_trace.size(); ++i) {
    EXPECT_LT(r.incumbent_trace[i].objective,
              r.incumbent_trace[i - 1].objective);
  }
}

TEST(MipTest, InfeasibleWarmStartIsRejected) {
  MipModel m;
  m.AddBinaryVar(-1.0);
  m.AddConstraint({{{0, 1.0}}, lp::RowSense::kLe, 0.0});  // forces x = 0
  MipOptions opts;
  opts.warm_start = {1.0};
  MipResult r = SolveMip(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(MipTest, LazyConstraintsEnforced) {
  // min -x - y with x, y in [0, 2] integer; hidden constraint x + y <= 3
  // supplied lazily. Optimum -3.
  MipModel m;
  m.AddIntegerVar(-1.0);
  m.AddIntegerVar(-1.0);
  m.AddConstraint({{{0, 1.0}}, lp::RowSense::kLe, 2.0});
  m.AddConstraint({{{1, 1.0}}, lp::RowSense::kLe, 2.0});
  MipOptions opts;
  int calls = 0;
  opts.lazy = [&calls](const std::vector<double>& x,
                       bool /*integral*/) -> std::vector<lp::Row> {
    ++calls;
    if (x[0] + x[1] > 3.0 + 1e-9) {
      return {{{{0, 1.0}, {1, 1.0}}, lp::RowSense::kLe, 3.0}};
    }
    return {};
  };
  MipResult r = SolveMip(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
  EXPECT_GT(calls, 0);
  EXPECT_GE(r.lazy_rows_added, 1);
}

TEST(MipTest, NodeLimitYieldsFeasibleOrLimit) {
  MipModel m;
  for (int i = 0; i < 10; ++i) m.AddBinaryVar(-(1.0 + 0.1 * i));
  lp::Row cap;
  for (int i = 0; i < 10; ++i) cap.coeffs.push_back({i, 1.0 + 0.37 * i});
  cap.sense = lp::RowSense::kLe;
  cap.rhs = 7.0;
  m.AddConstraint(cap);
  MipOptions opts;
  opts.max_nodes = 1;
  MipResult r = SolveMip(m, opts);
  EXPECT_TRUE(r.status == MipStatus::kFeasible ||
              r.status == MipStatus::kLimitNoSolution);
  EXPECT_LE(r.nodes, 2);
}

TEST(MipTest, DeadlineRespected) {
  MipModel m;
  for (int i = 0; i < 12; ++i) m.AddBinaryVar(-1.0 - 0.01 * i);
  MipOptions opts;
  opts.deadline = Deadline::After(0);
  MipResult r = SolveMip(m, opts);
  EXPECT_TRUE(r.status == MipStatus::kFeasible ||
              r.status == MipStatus::kLimitNoSolution);
}

TEST(MipTest, ContinuousOnlyProblemSolvedAtRoot) {
  MipModel m;
  m.AddContinuousVar(1.0);
  m.AddConstraint({{{0, 1.0}}, lp::RowSense::kGe, 2.5});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-9);
  EXPECT_EQ(r.nodes, 1);
}

TEST(MipTest, StatusNames) {
  EXPECT_STREQ(MipStatusName(MipStatus::kOptimal), "Optimal");
  EXPECT_STREQ(MipStatusName(MipStatus::kLimitNoSolution), "LimitNoSolution");
}

}  // namespace
}  // namespace cloudia::mip
