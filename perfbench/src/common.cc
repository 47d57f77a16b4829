#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "graph/templates.h"

namespace perfbench {

namespace net = cloudia::net;
namespace deploy = cloudia::deploy;
namespace graph = cloudia::graph;

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& check, const std::string& detail) {
  errors_.push_back(check + ": " + detail);
  std::fprintf(stderr, "CHECK FAILED [%s] %s\n", check.c_str(),
               detail.c_str());
}

void Report::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("  %-28s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!errors_.empty()) {
    std::printf("output checks: %zu FAILED (first: %s)\n", errors_.size(),
                errors_.front().c_str());
  } else {
    std::printf("output checks: all passed\n");
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  return out + "]";
}

}  // namespace

bool Report::WriteRaw(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
               "\"wall_s\": %.17g, \"peak_rss_mb\": %.17g, \"setup_s\": %.17g, "
               "\"latencies_s\": %s, \"costs_ms\": %s}\n",
               correct() ? "true" : "false", static_cast<long long>(attempted),
               static_cast<long long>(failed), wall_s, PeakRssMb(),
               setup_s, JsonArray(latencies).c_str(),
               JsonArray(costs).c_str());
  return std::fclose(f) == 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void ReportEndToEnd(Report& report, const std::string& workload,
                    double setup_s,
                    std::vector<double> latencies, std::vector<double> costs,
                    double wall_s) {
  const Tail tail = TailOf(latencies);
  std::printf("%s: %zu requests in %.3f s; req_tail_s is p%.1f (%zu samples)\n",
              workload.c_str(), latencies.size(), wall_s, tail.percentile,
              tail.samples);
  report.Metric("setup_s", setup_s, "s");
  report.Metric("req_p50_s", Median(latencies), "s");
  report.Metric("req_tail_s", tail.value, "s");
  report.Metric("throughput_rps",
                wall_s > 0 ? static_cast<double>(latencies.size()) / wall_s
                           : 0.0,
                "1/s");
  report.Metric("cost_ms_mean", Mean(costs), "ms");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.setup_s = setup_s;
  report.latencies = std::move(latencies);
  report.costs = std::move(costs);
  report.wall_s = wall_s;
}

net::ProviderProfile Provider(const std::string& name) {
  if (name == "gce") return net::GoogleComputeEngineProfile();
  if (name == "rackspace") return net::RackspaceCloudProfile();
  return net::AmazonEc2Profile();
}

graph::CommGraph MakeGraph(const std::string& kind, int nodes) {
  if (kind == "tree") {
    int levels = 1, count = 1, width = 3;
    while (count + width <= nodes) {
      count += width;
      width *= 3;
      ++levels;
    }
    return graph::AggregationTree(3, levels);
  }
  if (kind == "ring") return graph::Ring(std::max(3, nodes));
  int rows = 1;
  for (int r = 2; r * r <= nodes; ++r) {
    if (nodes % r == 0) rows = r;
  }
  return graph::Mesh2D(rows, nodes / rows);
}

double OverAllocationFor(int nodes, int instances) {
  // floor(nodes * share) == instances - nodes, with half a unit of margin
  // against rounding.
  return (static_cast<double>(instances - nodes) + 0.5) /
         static_cast<double>(nodes);
}

double MatrixCoverage(const deploy::CostMatrix& costs) {
  const int m = costs.size();
  if (m < 2) return 0.0;
  int64_t good = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j) continue;
      const double c = costs.At(i, j);
      if (std::isfinite(c) && c > 0 && c < deploy::kUnmeasuredCostMs) ++good;
    }
  }
  return static_cast<double>(good) / (static_cast<double>(m) * (m - 1));
}

double CheckPlan(Report& report, const std::string& where,
                 const graph::CommGraph& app, const deploy::Deployment& plan,
                 const deploy::CostMatrix& costs, deploy::Objective objective,
                 double reported_cost) {
  cloudia::Status valid =
      deploy::ValidateDeployment(app, plan, costs, objective);
  if (!valid.ok()) {
    report.Fail("plan_valid", where + ": " + valid.ToString());
    return reported_cost;
  }
  double cost = 0.0;
  if (objective == deploy::Objective::kLongestLink) {
    cost = deploy::LongestLinkCost(app, plan, costs);
  } else {
    auto path = deploy::LongestPathCost(app, plan, costs);
    if (!path.ok()) {
      report.Fail("cost_reevaluated", where + ": " + path.status().ToString());
      return reported_cost;
    }
    cost = *path;
  }
  // Longest link is a max over matrix entries, so it must match exactly;
  // longest path sums edges and may differ in summation order only.
  const double tolerance =
      objective == deploy::Objective::kLongestLink ? 0.0 : 1e-9 * cost;
  if (!(std::fabs(cost - reported_cost) <= tolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: reported %.17g ms, re-evaluated %.17g ms",
                  where.c_str(), reported_cost, cost);
    report.Fail("cost_reevaluated", buf);
  }
  return cost;
}

void CheckCoverage(Report& report, const std::string& where,
                   const deploy::CostMatrix& costs) {
  const double coverage = MatrixCoverage(costs);
  if (coverage != 1.0) {
    report.Fail("matrix_coverage",
                where + ": coverage " + std::to_string(coverage));
  }
}

}  // namespace perfbench
