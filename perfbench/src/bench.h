// Shared pieces of the end-to-end advisor benchmark: run configuration,
// the seeded input generator, the result report (metrics + named output
// checks), latency statistics, and the output checks every workload runs
// on the plans it gets back.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "deploy/cost.h"
#include "deploy/cost_matrix.h"
#include "graph/comm_graph.h"
#include "netsim/provider.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace of the traced run; empty = not written.
  std::string trace_path;
  /// Raw end-to-end samples (JSON) for merging several runs; empty = none.
  std::string raw_path;
};

/// SplitMix64 stream owned by the benchmark, so the generated inputs depend
/// only on the seed and never on the library's own RNG.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Metrics and output-check failures of one run. A failed check makes the
/// run incorrect; the driver exits non-zero on any.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check under its name (printed to stderr).
  void Fail(const std::string& check, const std::string& detail);
  bool correct() const { return errors_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints every metric as "name = value unit", then the final JSON line.
  void Print() const;
  /// Writes the raw end-to-end samples behind the metrics (see
  /// ReportEndToEnd) as one JSON object; false on I/O failure.
  bool WriteRaw(const std::string& path) const;

  // Raw end-to-end samples, kept by ReportEndToEnd.
  double setup_s = 0.0;
  std::vector<double> latencies;
  std::vector<double> costs;
  double wall_s = 0.0;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
};

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median with linear interpolation; 0 for an empty sample.
double Median(std::vector<double> values);

/// The highest order statistic with at least 10 samples above it, as the
/// percentile it sits at (falls back to the maximum below 11 samples).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process (MB), from /proc/self/status.
double PeakRssMb();

/// Reports the end-to-end metrics every workload shares -- setup_s,
/// req_p50_s, req_tail_s (its percentile printed), throughput_rps,
/// cost_ms_mean, peak_rss_mb -- and keeps the raw samples.
void ReportEndToEnd(Report& report, const std::string& workload,
                    double setup_s,
                    std::vector<double> latencies, std::vector<double> costs,
                    double wall_s);

/// Provider profile by the short names used in the workloads.
cloudia::net::ProviderProfile Provider(const std::string& name);

/// Application graph templates as the CLIs build them: "mesh" (nearest
/// rows x cols factorization), "tree" (3-ary aggregation tree of at most
/// `nodes` nodes), "ring".
cloudia::graph::CommGraph MakeGraph(const std::string& kind, int nodes);

/// Over-allocation share that makes a session allocate exactly `instances`
/// for an application of `nodes` nodes.
double OverAllocationFor(int nodes, int instances);

// --- output checks ----------------------------------------------------------

/// Fraction of off-diagonal entries that hold a real measurement (finite,
/// positive, not the unmeasured sentinel).
double MatrixCoverage(const cloudia::deploy::CostMatrix& costs);

/// check "plan_valid": deploy::ValidateDeployment accepts the plan;
/// check "cost_reevaluated": the reported cost equals LongestLinkCost /
/// LongestPathCost of the plan on `costs`. Returns the re-evaluated cost.
double CheckPlan(Report& report, const std::string& where,
                 const cloudia::graph::CommGraph& app,
                 const cloudia::deploy::Deployment& plan,
                 const cloudia::deploy::CostMatrix& costs,
                 cloudia::deploy::Objective objective, double reported_cost);

/// check "matrix_coverage": every off-diagonal link is measured.
void CheckCoverage(Report& report, const std::string& where,
                   const cloudia::deploy::CostMatrix& costs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
