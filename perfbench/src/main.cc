// perfbench: end-to-end advisor benchmark (see README.md).
//
//   perfbench --workload advise-cold|solve-exact|serve-mix --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--raw-out PATH]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// metrics. The last stdout line is one JSON object; the exit code is 1 when
// any output check failed and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

void ReportLayers(Report& report, const RunConfig& config,
                  const LayerMetrics& l, const Ledger& ledger) {
  auto frac = [](int num, int den) {
    return den > 0 ? static_cast<double>(num) / den : 0.0;
  };
  report.Metric("netsim.allocate_s", l.netsim_allocate_s, "s");
  report.Metric("measure.busy_s", l.measure_busy_s, "s");
  report.Metric("measure.rtt_samples",
                static_cast<double>(l.measure_rtt_samples), "count");
  report.Metric("measure.ns_per_sample",
                l.measure_rtt_samples > 0
                    ? 1e9 * l.measure_busy_s /
                          static_cast<double>(l.measure_rtt_samples)
                    : 0.0,
                "ns");
  report.Metric("measure.virtual_s", l.measure_virtual_s, "s");
  report.Metric("measure.coverage", l.measure_coverage, "frac");
  report.Metric("matrix.build_s", l.matrix_build_s, "s");

  report.Metric("solve.cp.busy_s", l.cp_busy_s, "s");
  report.Metric("solve.cp.iterations", static_cast<double>(l.cp_iterations),
                "count");
  report.Metric("solve.cp.proven_frac", frac(l.cp_proven, l.cp_solves),
                "frac");
  report.Metric("solve.mip.busy_s", l.mip_busy_s, "s");
  report.Metric("solve.mip.bb_nodes", static_cast<double>(l.mip_bb_nodes),
                "count");
  report.Metric("solve.mip.nodes_per_s",
                l.mip_busy_s > 0
                    ? static_cast<double>(l.mip_bb_nodes) / l.mip_busy_s
                    : 0.0,
                "1/s");
  report.Metric("solve.mip.proven_frac", frac(l.mip_proven, l.mip_solves),
                "frac");
  report.Metric("solve.local.busy_s", l.local_busy_s, "s");
  report.Metric("solve.g2.busy_s", l.g2_busy_s, "s");
  report.Metric("solve.hier.busy_s", l.hier_busy_s, "s");
  report.Metric("solve.hier.decompose_s", l.hier_decompose_s, "s");
  report.Metric("solve.hier.shard_s", l.hier_shard_s, "s");
  report.Metric("solve.hier.polish_s", l.hier_polish_s, "s");
  report.Metric("solve.hier.shards", static_cast<double>(l.hier_shards),
                "count");

  report.Metric("service.queue_wait_p50_s", l.service_queue_wait_p50_s, "s");
  report.Metric("service.queue_wait_tail_s", l.service_queue_wait_tail_s,
                "s");
  report.Metric("service.solve_p50_s", l.service_solve_p50_s, "s");
  report.Metric("service.miss_wait_p50_s", l.service_miss_wait_p50_s, "s");
  report.Metric("cache.hit_ratio", l.cache_hit_ratio, "frac");
  report.Metric("cache.measurements",
                static_cast<double>(l.cache_measurements), "count");
  report.Metric("cache.single_flight_waits",
                static_cast<double>(l.cache_single_flight_waits), "count");
  report.Metric("cache.evictions", static_cast<double>(l.cache_evictions),
                "count");
  report.Metric("cache.refreshes", static_cast<double>(l.cache_refreshes),
                "count");
  report.Metric("service.coalesced", static_cast<double>(l.service_coalesced),
                "count");
  report.Metric("service.warm_starts",
                static_cast<double>(l.service_warm_starts), "count");
  report.Metric("service.expired", static_cast<double>(l.service_expired),
                "count");

  report.Metric("redeploy.busy_s", l.redeploy_busy_s, "s");
  report.Metric("redeploy.checks", static_cast<double>(l.redeploy_checks),
                "count");
  report.Metric("redeploy.escalations",
                static_cast<double>(l.redeploy_escalations), "count");
  report.Metric("redeploy.remeasures",
                static_cast<double>(l.redeploy_remeasures), "count");
  report.Metric("redeploy.migrations",
                static_cast<double>(l.redeploy_migrations), "count");

  report.Metric("loadgen.late_max_s", l.loadgen_late_max_s, "s");
  report.Metric("loadgen.slo_miss_frac", l.slo_miss_frac, "frac");
  report.Metric("trace.overhead_frac", l.trace_overhead_frac, "frac");

  const auto self = ledger.SelfByLayer();
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer : {"request", "netsim", "measure", "deploy", "solver",
                            "hier", "service", "redeploy"}) {
    auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    report.Metric(std::string("ledger.") + layer + ".self_frac",
                  total > 0 ? s / total : 0.0, "frac");
  }

  ledger.Print(config.workload);
  if (!config.trace_path.empty()) {
    if (ledger.WriteChromeTrace(config.trace_path)) {
      std::printf("chrome trace: %s\n", config.trace_path.c_str());
    } else {
      report.Fail("trace_export", "cannot write " + config.trace_path);
    }
  }
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "advise-cold|solve-exact|serve-mix --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--raw-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 600)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else if (flag == "--raw-out") {
      config.raw_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  if (config.workload == "advise-cold") {
    perfbench::RunAdviseCold(config, report);
  } else if (config.workload == "solve-exact") {
    perfbench::RunSolveExact(config, report);
  } else if (config.workload == "serve-mix") {
    perfbench::RunServeMix(config, report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  std::printf("requests: %lld attempted, %lld failed (fail_frac %.4f)\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0);
  report.Print();
  if (!config.raw_path.empty() && !report.WriteRaw(config.raw_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 config.raw_path.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}
