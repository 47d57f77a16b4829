// Differential and determinism tests for the MIP solver: unclustered LLNDP
// and LPNDP optima must equal brute-force enumeration bit for bit (costs
// drawn from a coarse grid produce exact ties), and the search's work counts
// must repeat exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deploy/mip_llndp.h"
#include "deploy/mip_lpndp.h"
#include "deploy_test_util.h"
#include "graph/templates.h"
#include "solver/mip/branch_and_bound.h"

namespace cloudia::deploy {
namespace {

// Costs on a 0.25 ms grid: many links share a cost, so optima are tied.
CostMatrix GridCosts(int m, Rng& rng) {
  CostMatrix c(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i != j) c.At(i, j) = 0.25 * static_cast<double>(1 + rng.Below(5));
    }
  }
  return c;
}

CostMatrix MakeCosts(int m, bool ties, Rng& rng) {
  return ties ? GridCosts(m, rng) : RandomCosts(m, rng);
}

TEST(MipDifferentialTest, LlndpMatchesBruteForceBitForBit) {
  Rng master(41);
  for (int trial = 0; trial < 24; ++trial) {
    const bool ties = trial % 2 == 0;
    const int n = 3 + static_cast<int>(master.Below(3));
    const int m = n + 1 + static_cast<int>(master.Below(2));
    graph::CommGraph g = graph::RandomSymmetric(n, 2.0, master);
    CostMatrix costs = MakeCosts(m, ties, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLlndpMip(g, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    EXPECT_EQ(r->cost, BruteForceOptimum(g, costs, Objective::kLongestLink))
        << "trial " << trial << (ties ? " (grid costs)" : "");
  }
}

TEST(MipDifferentialTest, LpndpMatchesBruteForceBitForBit) {
  Rng master(43);
  for (int trial = 0; trial < 24; ++trial) {
    const bool ties = trial % 2 == 0;
    const int n = 3 + static_cast<int>(master.Below(3));
    const int m = n + 1 + static_cast<int>(master.Below(2));
    graph::CommGraph g = graph::RandomDag(n, 0.5, master);
    CostMatrix costs = MakeCosts(m, ties, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLpndpMip(g, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    EXPECT_EQ(r->cost, BruteForceOptimum(g, costs, Objective::kLongestPath))
        << "trial " << trial << (ties ? " (grid costs)" : "");
  }
}

// A bottleneck assignment (the LLNDP encoding in miniature): place 4 nodes of
// a 2x2 mesh on 6 sites, minimize the largest link cost, with the link rows
// separated lazily.
mip::MipResult SolveBottleneckAssignment() {
  Rng rng(47);
  const graph::CommGraph g = graph::Mesh2D(2, 2);
  const CostMatrix costs = RandomCosts(6, rng);
  const int n = g.num_nodes();
  const int m = costs.size();
  mip::MipModel model;
  for (int v = 0; v < n * m; ++v) model.AddBinaryVar(0.0);
  const int c = model.AddContinuousVar(1.0, "c");
  for (int i = 0; i < n; ++i) {
    lp::Row row{{}, lp::RowSense::kEq, 1.0};
    for (int j = 0; j < m; ++j) row.coeffs.push_back({i * m + j, 1.0});
    model.AddConstraint(std::move(row));
  }
  for (int j = 0; j < m; ++j) {
    lp::Row row{{}, lp::RowSense::kLe, 1.0};
    for (int i = 0; i < n; ++i) row.coeffs.push_back({i * m + j, 1.0});
    model.AddConstraint(std::move(row));
  }
  mip::MipOptions options;
  options.lazy = [&](const std::vector<double>& x, bool) {
    std::vector<lp::Row> violated;
    for (const graph::Edge& e : g.edges()) {
      for (int j = 0; j < m; ++j) {
        for (int j2 = 0; j2 < m; ++j2) {
          const int a = e.src * m + j;
          const int b = e.dst * m + j2;
          const double w = costs.At(j, j2);
          if (j != j2 && w * (x[static_cast<size_t>(a)] + x[static_cast<size_t>(b)] - 1.0) -
                                 x[static_cast<size_t>(c)] > 1e-6) {
            violated.push_back({{{c, 1.0}, {a, -w}, {b, -w}}, lp::RowSense::kGe, -w});
          }
        }
      }
    }
    if (violated.size() > 8) violated.resize(8);
    return violated;
  };
  return mip::SolveMip(model, options);
}

TEST(MipWorkCountTest, RepeatSolvesReportIdenticalCounts) {
  const mip::MipResult first = SolveBottleneckAssignment();
  const mip::MipResult second = SolveBottleneckAssignment();
  ASSERT_EQ(first.status, mip::MipStatus::kOptimal);
  EXPECT_GT(first.nodes, 1);
  EXPECT_GT(first.lp_iterations, 0);
  EXPECT_GT(first.lazy_rows_added, 0);
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(second.nodes, first.nodes);
  EXPECT_EQ(second.lp_iterations, first.lp_iterations);
  EXPECT_EQ(second.lazy_rows_added, first.lazy_rows_added);
  EXPECT_EQ(second.objective, first.objective);
}

}  // namespace
}  // namespace cloudia::deploy
