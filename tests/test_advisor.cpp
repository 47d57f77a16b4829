#include <gtest/gtest.h>

#include <set>

#include "cloudia/advisor.h"
#include "graph/templates.h"
#include "workloads/behavioral.h"

namespace cloudia {
namespace {

AdvisorConfig FastConfig() {
  AdvisorConfig cfg;
  cfg.solve.time_budget_s = 2.0;
  cfg.session.measure_duration_s = 20.0;  // virtual seconds; keeps tests quick
  cfg.session.seed = 7;
  cfg.solve.seed = 7;
  return cfg;
}

TEST(AdvisorTest, EndToEndPipelineProducesConsistentReport) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 11);
  graph::CommGraph app = graph::Mesh2D(5, 6);  // 30 nodes
  Advisor advisor(&cloud, FastConfig());
  auto report = advisor.Run(app);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->allocated.size(), 33u);  // 30 * 1.1
  EXPECT_EQ(report->placement.size(), 30u);
  EXPECT_EQ(report->default_placement.size(), 30u);
  EXPECT_EQ(report->terminated.size(), 3u);

  // Placement instances are distinct and drawn from the allocation.
  std::set<int> ids;
  std::set<int> allocated_ids;
  for (const auto& inst : report->allocated) allocated_ids.insert(inst.id);
  for (const auto& inst : report->placement) {
    EXPECT_TRUE(ids.insert(inst.id).second);
    EXPECT_TRUE(allocated_ids.count(inst.id));
  }
  // Terminated = allocated \ placed.
  for (const auto& inst : report->terminated) {
    EXPECT_FALSE(ids.count(inst.id));
  }
  EXPECT_GT(report->measure_virtual_s, 0);
  EXPECT_GE(report->predicted_improvement, 0.0);
  EXPECT_LE(report->optimized_cost_ms, report->default_cost_ms + 1e-9);
}

TEST(AdvisorTest, OptimizedDeploymentImprovesRealWorkload) {
  // The whole point of the paper: the advisor's plan must beat the default
  // deployment on actual application runtime, not just on predicted cost.
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 13);
  graph::CommGraph app = graph::Mesh2D(5, 6);
  AdvisorConfig cfg = FastConfig();
  cfg.solve.time_budget_s = 3.0;
  Advisor advisor(&cloud, cfg);
  auto report = advisor.Run(app);
  ASSERT_TRUE(report.ok());

  wl::BehavioralConfig wcfg;
  // Long enough that the deployment signal dominates burst-window noise.
  wcfg.ticks = 4000;
  wcfg.seed = 99;
  auto optimized =
      wl::RunBehavioralSimulation(cloud, app, report->placement, wcfg);
  auto fallback =
      wl::RunBehavioralSimulation(cloud, app, report->default_placement, wcfg);
  ASSERT_TRUE(optimized.ok() && fallback.ok());
  EXPECT_LT(optimized->primary_ms, fallback->primary_ms)
      << "optimized deployment should reduce time-to-solution";
}

TEST(AdvisorTest, RejectsDegenerateInput) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 17);
  auto one = graph::CommGraph::Create(1, {});
  Advisor advisor(&cloud, FastConfig());
  EXPECT_FALSE(advisor.Run(*one).ok());

  AdvisorConfig bad = FastConfig();
  bad.session.over_allocation = -0.5;
  Advisor advisor2(&cloud, bad);
  graph::CommGraph app = graph::Mesh2D(2, 2);
  EXPECT_FALSE(advisor2.Run(app).ok());

  // The report describes the graph Run() was given, so a second graph in
  // the solve spec is rejected rather than silently solved instead.
  AdvisorConfig other_graph = FastConfig();
  other_graph.solve.app = &app;
  Advisor advisor3(&cloud, other_graph);
  EXPECT_FALSE(advisor3.Run(app).ok());
}

TEST(AdvisorTest, ZeroOverAllocationStillImprovesViaInjection) {
  // Paper Fig. 13: even with no extra instances, a better injection of
  // nodes onto the same instances already helps (16% there).
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 19);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  AdvisorConfig cfg = FastConfig();
  cfg.session.over_allocation = 0.0;
  Advisor advisor(&cloud, cfg);
  auto report = advisor.Run(app);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->allocated.size(), 20u);
  EXPECT_TRUE(report->terminated.empty());
  EXPECT_LE(report->optimized_cost_ms, report->default_cost_ms + 1e-9);
}

TEST(AdvisorTest, WorksWithAllSearchMethods) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 23);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  for (const char* method : {"g1", "g2", "r1", "r2", "cp", "mip"}) {
    AdvisorConfig cfg = FastConfig();
    cfg.solve.method = method;
    cfg.solve.time_budget_s = 1.0;
    Advisor advisor(&cloud, cfg);
    auto report = advisor.Run(app);
    ASSERT_TRUE(report.ok()) << method;
    EXPECT_EQ(report->placement.size(), 12u) << method;
  }
}

TEST(AdvisorTest, LongestPathObjectiveWithTree) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 29);
  graph::CommGraph tree = graph::AggregationTree(3, 3);  // 13 nodes
  AdvisorConfig cfg = FastConfig();
  cfg.solve.objective = deploy::Objective::kLongestPath;
  cfg.solve.method = "mip";
  cfg.solve.cost_clusters = 0;  // paper: clustering does not help LPNDP
  cfg.solve.time_budget_s = 2.0;
  Advisor advisor(&cloud, cfg);
  auto report = advisor.Run(tree);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(report->optimized_cost_ms, report->default_cost_ms + 1e-9);
}

TEST(AdvisorTest, ReportToStringMentionsKeyNumbers) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 31);
  graph::CommGraph app = graph::Mesh2D(3, 3);
  Advisor advisor(&cloud, FastConfig());
  auto report = advisor.Run(app);
  ASSERT_TRUE(report.ok());
  std::string s = report->ToString();
  EXPECT_NE(s.find("optimized cost"), std::string::npos);
  EXPECT_NE(s.find("predicted reduction"), std::string::npos);
}

}  // namespace
}  // namespace cloudia
