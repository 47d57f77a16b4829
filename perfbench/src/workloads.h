// The three workloads and the per-layer metric set of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench.h"
#include "ledger.h"

namespace perfbench {

/// Every per-layer metric of a traced run. Each workload fills what its
/// requests load; the rest stay 0, so every traced run reports the same
/// names (see README.md for which end-to-end metric each should move).
struct LayerMetrics {
  double netsim_allocate_s = 0;
  double measure_busy_s = 0;
  int64_t measure_rtt_samples = 0;
  double measure_virtual_s = 0;
  double measure_coverage = 0;
  double matrix_build_s = 0;

  double cp_busy_s = 0;
  int64_t cp_iterations = 0;
  int cp_solves = 0;
  int cp_proven = 0;
  double mip_busy_s = 0;
  int64_t mip_bb_nodes = 0;
  int mip_solves = 0;
  int mip_proven = 0;
  double local_busy_s = 0;
  double g2_busy_s = 0;
  double hier_busy_s = 0;
  double hier_decompose_s = 0;
  double hier_shard_s = 0;
  double hier_polish_s = 0;
  int64_t hier_shards = 0;

  double service_queue_wait_p50_s = 0;
  double service_queue_wait_tail_s = 0;
  double service_solve_p50_s = 0;
  double service_miss_wait_p50_s = 0;
  double cache_hit_ratio = 0;
  int64_t cache_measurements = 0;
  int64_t cache_single_flight_waits = 0;
  int64_t cache_evictions = 0;
  int64_t cache_refreshes = 0;
  int64_t service_coalesced = 0;
  int64_t service_warm_starts = 0;
  int64_t service_expired = 0;

  double redeploy_busy_s = 0;
  int64_t redeploy_checks = 0;
  int64_t redeploy_escalations = 0;
  int64_t redeploy_remeasures = 0;
  int64_t redeploy_migrations = 0;

  double loadgen_late_max_s = 0;
  double slo_miss_frac = 0;
  double trace_overhead_frac = 0;
};

/// Reports every LayerMetrics field plus the ledger's per-layer self-time
/// shares, prints the ledger, and writes its Chrome trace when asked.
void ReportLayers(Report& report, const RunConfig& config,
                  const LayerMetrics& layers, const Ledger& ledger);

void RunAdviseCold(const RunConfig& config, Report& report);
void RunSolveExact(const RunConfig& config, Report& report);
void RunServeMix(const RunConfig& config, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
