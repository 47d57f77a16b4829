// HPC scenario (paper Sect. 6.1.1): a fish-school behavioral simulation
// partitioned over a 10x10 mesh. Compares time-to-solution of the default
// deployment against the ClouDiA-optimized one on the same allocation.
//
//   $ ./build/examples/behavioral_simulation [seed]
#include <cstdio>
#include <cstdlib>

#include "cloudia/advisor.h"
#include "graph/templates.h"
#include "workloads/behavioral.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);
  cloudia::graph::CommGraph mesh = cloudia::graph::Mesh2D(10, 10);

  cloudia::AdvisorConfig config;
  config.session.measure_duration_s = 120.0;
  config.session.seed = seed;
  config.solve.method = "cp";  // longest link, k = 20 cost clusters
  config.solve.time_budget_s = 10.0;
  config.solve.seed = seed;

  cloudia::Advisor advisor(&cloud, config);
  auto report = advisor.Run(mesh);
  if (!report.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  cloudia::wl::BehavioralConfig sim;
  sim.ticks = 2000;  // the paper runs 100K ticks; per-tick time is what counts
  sim.seed = seed + 100;
  auto tuned =
      cloudia::wl::RunBehavioralSimulation(cloud, mesh, report->placement, sim);
  auto fallback = cloudia::wl::RunBehavioralSimulation(
      cloud, mesh, report->default_placement, sim);
  if (!tuned.ok() || !fallback.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }
  double reduction =
      100.0 * (fallback->primary_ms - tuned->primary_ms) / fallback->primary_ms;
  std::printf("time-to-solution, %d ticks:\n", sim.ticks);
  std::printf("  default deployment : %8.1f ms (%.3f ms/tick)\n",
              fallback->primary_ms, fallback->primary_ms / sim.ticks);
  std::printf("  ClouDiA deployment : %8.1f ms (%.3f ms/tick)\n",
              tuned->primary_ms, tuned->primary_ms / sim.ticks);
  std::printf("  reduction          : %5.1f %%  (paper Fig. 12: 15-55%%)\n",
              reduction);
  return 0;
}
