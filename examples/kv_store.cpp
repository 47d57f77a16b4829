// Key-value store scenario (paper Sect. 6.1.3): 10 front-end servers fan
// queries out to 90 storage nodes. Neither longest link nor longest path
// matches mean response time exactly; the paper (and this example) still
// uses longest link and gets a solid improvement by avoiding bad links.
//
//   $ ./build/examples/kv_store [seed]
#include <cstdio>
#include <cstdlib>

#include "cloudia/advisor.h"
#include "graph/templates.h"
#include "workloads/kvstore.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);
  cloudia::graph::CommGraph store = cloudia::graph::Bipartite(10, 90);

  cloudia::AdvisorConfig config;
  config.session.measure_duration_s = 120.0;
  config.session.seed = seed;
  config.solve.method = "cp";  // longest link, k = 20 cost clusters
  config.solve.time_budget_s = 10.0;
  config.solve.seed = seed;

  cloudia::Advisor advisor(&cloud, config);
  auto report = advisor.Run(store);
  if (!report.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  cloudia::wl::KvStoreConfig q;
  q.queries = 4000;
  q.touched_per_query = 16;
  q.seed = seed + 100;
  auto tuned = cloudia::wl::RunKvStoreQueries(cloud, store, report->placement, q);
  auto fallback =
      cloudia::wl::RunKvStoreQueries(cloud, store, report->default_placement, q);
  if (!tuned.ok() || !fallback.ok()) {
    std::fprintf(stderr, "query simulation failed\n");
    return 1;
  }
  double reduction =
      100.0 * (fallback->primary_ms - tuned->primary_ms) / fallback->primary_ms;
  std::printf("multi-get response time over %d queries (fan-out %d):\n",
              q.queries, q.touched_per_query);
  std::printf("  default deployment : mean %6.3f ms   p99 %6.3f ms\n",
              fallback->primary_ms, fallback->p99_ms);
  std::printf("  ClouDiA deployment : mean %6.3f ms   p99 %6.3f ms\n",
              tuned->primary_ms, tuned->p99_ms);
  std::printf("  reduction          : %5.1f %%  (paper: 15-31%% for KV store)\n",
              reduction);
  return 0;
}
