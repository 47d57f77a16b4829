// Golden regression: every deterministic registered solver must return
// exactly these costs on fixed-seed instances. The values were recorded from
// the nested-vector CostMatrix implementation immediately before the flat
// row-major migration, so bitwise equality here proves the migration (and
// the incremental delta evaluation inside local search) changed no result.
//
// R2 and the portfolio are deliberately absent: both run until a wall-clock
// deadline, so their trajectories are machine-dependent by design. The same
// filter drops MIP cases that exhaust the budget instead of proving
// optimality (mesh3x4/tree3x2): only runs that terminate on their own are
// reproducible.
//
// MIP is pinned only where the answer cannot depend on how the LP engine
// breaks ties: on the unclustered matrix (`cost_clusters = 0`) a proven
// optimum has exactly one cost. On a clustered matrix several deployments
// share the clustered optimum and their actual costs differ, so that case
// asserts the property instead: the returned deployment is clustered-optimal
// by brute force.
#include <gtest/gtest.h>

#include <string>

#include "deploy/solve.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

struct GoldenCase {
  const char* fixture;
  const char* method;
  double cost;
};

// Recorded 2026-07 from the pre-migration evaluator (seed state at commit
// "Race registered solvers concurrently..."); %.17g round-trips doubles.
constexpr GoldenCase kGolden[] = {
    {"mesh3x4-ll", "g1", 1.2673762788870306},
    {"mesh3x4-ll", "g2", 1.1860050071579844},
    {"mesh3x4-ll", "r1", 1.1696751548310433},
    {"mesh3x4-ll", "cp", 0.77676741626981083},
    {"mesh3x4-ll", "local", 0.64643780479241519},
    {"tree3x2-lp", "g1", 1.3711792659825517},
    {"tree3x2-lp", "g2", 1.3711792659825517},
    {"tree3x2-lp", "r1", 1.5873182779479917},
    {"tree3x2-lp", "local", 0.80656054056313198},
    {"bip2x4-ll", "g1", 1.3435908923006501},
    {"bip2x4-ll", "g2", 1.2673762788870306},
    {"bip2x4-ll", "r1", 1.1232986803465945},
    {"bip2x4-ll", "cp", 1.1540856223671832},
    {"bip2x4-ll", "local", 1.1232986803465945},
};

struct Fixture {
  graph::CommGraph graph;
  int m;
  Objective objective;
};

Fixture MakeFixture(const std::string& name) {
  if (name == "mesh3x4-ll") {
    return {graph::Mesh2D(3, 4), 14, Objective::kLongestLink};
  }
  if (name == "tree3x2-lp") {
    return {graph::AggregationTree(3, 3), 15, Objective::kLongestPath};
  }
  if (name == "tree2x3-lp") {
    return {graph::AggregationTree(2, 3), 7, Objective::kLongestPath};
  }
  CLOUDIA_CHECK(name == "bip2x4-ll");
  return {graph::Bipartite(2, 4), 8, Objective::kLongestLink};
}

Result<NdpSolveResult> SolveFixture(const Fixture& fx, const CostMatrix& costs,
                                    const char* method, int cost_clusters) {
  NdpSolveOptions opts;
  opts.objective = fx.objective;
  opts.seed = 7;
  opts.time_budget_s = 60.0;
  opts.cost_clusters = cost_clusters;
  opts.r1_samples = 200;
  SolveContext context(Deadline::After(60.0));
  return SolveNodeDeploymentByName(fx.graph, costs, method, opts, context);
}

// Proven MIP optima on the unclustered matrix, recorded from the dense
// two-phase tableau engine; both equal brute-force enumeration.
constexpr GoldenCase kMipExactGolden[] = {
    {"bip2x4-ll", "mip", 1.1232986803465945},
    {"tree2x3-lp", "mip", 1.3406002661685839},
};

TEST(SolverGoldenTest, DeterministicSolversAreBitIdenticalToPreMigration) {
  for (const GoldenCase& c : kGolden) {
    Fixture fx = MakeFixture(c.fixture);
    Rng rng(42);
    CostMatrix costs = RandomCosts(fx.m, rng);
    auto r = SolveFixture(fx, costs, c.method, /*cost_clusters=*/4);
    ASSERT_TRUE(r.ok()) << c.fixture << "/" << c.method << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->cost, c.cost)
        << c.fixture << "/" << c.method
        << ": cost drifted from the pre-migration recording";
  }
}

TEST(SolverGoldenTest, UnclusteredMipOptimaAreBitIdentical) {
  for (const GoldenCase& c : kMipExactGolden) {
    Fixture fx = MakeFixture(c.fixture);
    Rng rng(42);
    CostMatrix costs = RandomCosts(fx.m, rng);
    auto r = SolveFixture(fx, costs, c.method, /*cost_clusters=*/0);
    ASSERT_TRUE(r.ok()) << c.fixture << ": " << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << c.fixture;
    EXPECT_EQ(r->cost, c.cost) << c.fixture << ": proven optimum drifted";
  }
}

TEST(SolverGoldenTest, ClusteredMipReturnsAClusteredOptimum) {
  Fixture fx = MakeFixture("bip2x4-ll");
  Rng rng(42);
  CostMatrix costs = RandomCosts(fx.m, rng);
  auto r = SolveFixture(fx, costs, "mip", /*cost_clusters=*/4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->proven_optimal);
  auto clustered = ClusterCostMatrix(costs, 4);
  ASSERT_TRUE(clustered.ok());
  // Brute force over all 8!/2! = 20,160 placements of 6 nodes on 8 instances.
  EXPECT_EQ(LongestLinkCost(fx.graph, r->deployment, *clustered),
            BruteForceOptimum(fx.graph, *clustered, Objective::kLongestLink));
}

}  // namespace
}  // namespace cloudia::deploy
