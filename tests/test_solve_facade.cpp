#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "deploy/solve.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

class SolveFacadeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SolveFacadeTest, LongestLinkProducesValidDeployment) {
  Rng master(1);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  CostMatrix costs = RandomCosts(12, master);
  NdpSolveOptions opts;
  opts.objective = Objective::kLongestLink;
  opts.time_budget_s = 0.3;
  opts.r1_samples = 200;
  opts.threads = 2;
  opts.seed = 11;
  auto r = SolveNodeDeploymentByName(mesh, costs, GetParam(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
  EXPECT_DOUBLE_EQ(r->cost, LongestLinkCost(mesh, r->deployment, costs));
  EXPECT_FALSE(r->trace.empty());
}

TEST_P(SolveFacadeTest, LongestPathProducesValidDeployment) {
  if (GetParam() == "cp") GTEST_SKIP() << "CP is LLNDP-only";
  Rng master(2);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(9, master);
  NdpSolveOptions opts;
  opts.objective = Objective::kLongestPath;
  opts.time_budget_s = 0.3;
  opts.r1_samples = 200;
  opts.threads = 2;
  opts.seed = 13;
  auto r = SolveNodeDeploymentByName(tree, costs, GetParam(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidateDeployment(tree, r->deployment, costs,
                                 Objective::kLongestPath)
                  .ok());
  auto check = LongestPathCost(tree, r->deployment, costs);
  EXPECT_DOUBLE_EQ(r->cost, *check);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolveFacadeTest,
                         ::testing::Values("g1", "g2", "r1", "r2", "cp", "mip"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return SolverDisplayName(info.param);
                         });

TEST(SolveFacadeTest2, CpRejectsLongestPath) {
  Rng master(3);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(9, master);
  NdpSolveOptions opts;
  opts.objective = Objective::kLongestPath;
  auto r = SolveNodeDeploymentByName(tree, costs, "cp", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveFacadeTest2, LongestPathRejectsCyclicGraph) {
  Rng master(4);
  graph::CommGraph ring = graph::Ring(5);
  CostMatrix costs = RandomCosts(7, master);
  NdpSolveOptions opts;
  opts.objective = Objective::kLongestPath;
  EXPECT_FALSE(SolveNodeDeploymentByName(ring, costs, "r1", opts).ok());
}

TEST(SolveFacadeTest2, CpBeatsOrMatchesLightweightOnSmallMesh) {
  // Qualitative Fig. 14 shape at toy scale: CP <= R1, G2 <= G1 on average.
  Rng master(5);
  double cp = 0, r1 = 0, g1 = 0, g2 = 0;
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  for (int trial = 0; trial < 8; ++trial) {
    CostMatrix costs = RandomCosts(11, master);
    NdpSolveOptions opts;
    opts.objective = Objective::kLongestLink;
    opts.seed = master.Next();
    opts.time_budget_s = 1.0;
    auto rcp = SolveNodeDeploymentByName(mesh, costs, "cp", opts);
    opts.r1_samples = 1000;
    auto rr1 = SolveNodeDeploymentByName(mesh, costs, "r1", opts);
    auto rg1 = SolveNodeDeploymentByName(mesh, costs, "g1", opts);
    auto rg2 = SolveNodeDeploymentByName(mesh, costs, "g2", opts);
    ASSERT_TRUE(rcp.ok() && rr1.ok() && rg1.ok() && rg2.ok());
    cp += rcp->cost;
    r1 += rr1->cost;
    g1 += rg1->cost;
    g2 += rg2->cost;
  }
  EXPECT_LE(cp, r1 + 1e-9);
  EXPECT_LE(g2, g1 + 1e-9);
  EXPECT_LE(cp, g2 + 1e-9);
}

TEST(SolveFacadeTest2, DisplayNames) {
  EXPECT_EQ(SolverDisplayName("g1"), "G1");
  EXPECT_EQ(SolverDisplayName("r2"), "R2");
  EXPECT_EQ(SolverDisplayName("cp"), "CP");
  EXPECT_EQ(SolverDisplayName("mip"), "MIP");
}

TEST(SolveFacadeTest2, ValidateSolveOptionsNamesEveryFieldAndItsRange) {
  EXPECT_TRUE(ValidateSolveOptions(NdpSolveOptions()).ok());
  struct Case {
    const char* expected;
    std::function<void(NdpSolveOptions&)> corrupt;
  };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {
      {"budget=nan: time budget must be finite and >= 0 seconds "
       "(valid range: [0, inf))",
       [&](NdpSolveOptions& o) { o.time_budget_s = nan; }},
      {"budget=-1: time budget must be finite and >= 0 seconds",
       [](NdpSolveOptions& o) { o.time_budget_s = -1; }},
      {"budget=inf:", [&](NdpSolveOptions& o) { o.time_budget_s = inf; }},
      {"threads=-2: thread count cannot be negative (valid range: [0, inf)",
       [](NdpSolveOptions& o) { o.threads = -2; }},
      {"clusters=-1: cost cluster count must be >= 0 (valid range: [0, inf)",
       [](NdpSolveOptions& o) { o.cost_clusters = -1; }},
      {"r1-samples=0: R1 needs at least one sample (valid range: [1, inf))",
       [](NdpSolveOptions& o) { o.r1_samples = 0; }},
      {"hier-clusters=-3: cluster count must be >= 0 (valid range: [0, inf)",
       [](NdpSolveOptions& o) { o.hier_clusters = -3; }},
      {"hier-polish-steps=-1: step budget must be >= 0 (valid range: [0, "
       "inf))",
       [](NdpSolveOptions& o) { o.hier_polish_steps = -1; }},
      {"price weight -1 is invalid: weights must be finite and >= 0 (valid "
       "range: [0, inf))",
       [](NdpSolveOptions& o) { o.objective.price_weight = -1; }},
      {"migration weight nan is invalid: weights must be finite and >= 0",
       [&](NdpSolveOptions& o) { o.objective.migration_weight = nan; }},
  };
  for (const Case& c : cases) {
    NdpSolveOptions options;
    c.corrupt(options);
    Status s = ValidateSolveOptions(options);
    ASSERT_FALSE(s.ok()) << c.expected;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find(c.expected), std::string::npos)
        << s.message();
  }
}

TEST(SolveFacadeTest2, UnknownMethodErrorListsRegisteredSolvers) {
  Rng master(1);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  NdpSolveOptions opts;
  SolveContext context(Deadline::After(0.1));
  auto r = SolveNodeDeploymentByName(mesh, costs, "flying-solver", opts,
                                     context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // Not a bare "unknown method": the message names the typo and every
  // registered solver, so a caller can self-correct.
  const std::string& message = r.status().message();
  EXPECT_NE(message.find("flying-solver"), std::string::npos) << message;
  EXPECT_NE(message.find("known:"), std::string::npos) << message;
  for (const char* name :
       {"cp", "mip", "g1", "g2", "r1", "r2", "local", "portfolio"}) {
    EXPECT_NE(message.find(name), std::string::npos)
        << "missing '" << name << "' in: " << message;
  }
}

}  // namespace
}  // namespace cloudia::deploy
