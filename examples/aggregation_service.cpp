// Service scenario (paper Sect. 6.1.2): a two-level top-k aggregation tree
// (1 root + 7 aggregators + 42 leaves = 50 nodes). The longest-path
// objective models the critical path of service calls; the deployment is
// searched with the LPNDP MIP encoding.
//
//   $ ./build/examples/aggregation_service [seed]
#include <cstdio>
#include <cstdlib>

#include "cloudia/advisor.h"
#include "graph/templates.h"
#include "workloads/aggregation.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2;
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);
  cloudia::graph::CommGraph tree = cloudia::graph::AggregationTree(7, 3);
  std::printf("aggregation tree: %d nodes, %d edges\n", tree.num_nodes(),
              tree.num_edges());

  cloudia::AdvisorConfig config;
  config.session.measure_duration_s = 90.0;
  config.session.seed = seed;
  config.solve.objective = cloudia::deploy::Objective::kLongestPath;
  config.solve.method = "mip";
  config.solve.cost_clusters = 0;  // clustering does not help LPNDP (Fig. 9)
  config.solve.time_budget_s = 10.0;
  config.solve.seed = seed;

  cloudia::Advisor advisor(&cloud, config);
  auto report = advisor.Run(tree);
  if (!report.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  cloudia::wl::AggregationConfig q;
  q.queries = 2000;
  q.seed = seed + 100;
  auto tuned =
      cloudia::wl::RunAggregationQueries(cloud, tree, report->placement, q);
  auto fallback = cloudia::wl::RunAggregationQueries(
      cloud, tree, report->default_placement, q);
  if (!tuned.ok() || !fallback.ok()) {
    std::fprintf(stderr, "query simulation failed\n");
    return 1;
  }
  double reduction =
      100.0 * (fallback->primary_ms - tuned->primary_ms) / fallback->primary_ms;
  std::printf("top-k query response time over %d queries:\n", q.queries);
  std::printf("  default deployment : mean %6.3f ms   p99 %6.3f ms\n",
              fallback->primary_ms, fallback->p99_ms);
  std::printf("  ClouDiA deployment : mean %6.3f ms   p99 %6.3f ms\n",
              tuned->primary_ms, tuned->p99_ms);
  std::printf("  reduction          : %5.1f %%\n", reduction);
  return 0;
}
