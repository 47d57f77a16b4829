// serve-mix: open loop. Seeded Poisson arrivals at 6 requests/s go
// into service::AdvisorService (3 worker threads; the generator is a
// fourth). Requests draw 12 environments Zipf-skewed against the default
// 8-slot cost-matrix cache, so there are misses and evictions; most use
// fast heuristics, the rest "auto" (routed to CP under a 0.2 s budget);
// every 8th request is a byte-identical twin of the previous one; about 8%
// are redeploy requests on 3 opted-in environments with aggressive drift,
// whose re-measures are fed back into the cache. Latency is timed from each
// request's due time. Per-layer numbers come from the service's public
// results: ServiceResult, RedeployResult, stats() and cache_stats().
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "service/advisor_service.h"
#include "service/environment.h"
#include "workloads.h"

namespace perfbench {

namespace deploy = cloudia::deploy;
namespace graph = cloudia::graph;
namespace obs = cloudia::obs;
namespace service = cloudia::service;

namespace {

/// Offered load. At 8 requests/s the workers ran at 0.61-0.73 utilization
/// on the reference VM, and queueing amplified host slowdowns into a tail
/// that moved by 27% between runs; 6 requests/s keeps them near half busy.
constexpr double kRatePerS = 6.0;
constexpr int kThreads = 3;
constexpr int kEnvironments = 12;
constexpr int kSizes[] = {22, 33, 44};
const char* const kProviders[] = {"ec2", "gce", "rackspace"};
const char* const kGraphs[] = {"mesh", "tree", "ring"};
/// Fast heuristics in their block proportions.
const char* const kFastMethods[] = {"local", "g2",    "local", "r1",
                                    "local", "g2",    "local", "local"};
/// Environments opted into online redeployment (indexes into the 12): the
/// three 22-instance ones, so re-measures stay short next to deploys.
constexpr int kRedeployEnvs[] = {0, 1, 2};
constexpr double kSolveBudgetS = 0.2;
/// Each request must start within this many seconds of submission.
constexpr double kStartDeadlineS = 5.0;
/// Fixed latency limit for slo_miss_frac (about the reference p90).
constexpr double kSloS = 1.0;
/// The run is invalid when the generator ran later than this share of the
/// mean inter-arrival gap.
constexpr double kMaxLateShare = 1.0;
/// Environments whose matrices set-up loads into the cache.
constexpr int kCacheWarm = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct ServeEnv {
  service::EnvironmentSpec spec;
  int size_index = 0;
  bool redeploy = false;
};

/// The tenant catalog by popularity rank: {provider, size index}.
/// Popularity falls with size: ranks 0-2 are the 22-instance tenants, 3-5
/// the 33-instance ones, 6-7 two 44-instance ones; the four tail ranks are
/// all gce/44, so their (always missing) requests form one slow group.
constexpr int kCatalog[kEnvironments][2] = {
    {0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1},
    {0, 2}, {2, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}};
int EnvSizeIndex(int rank) { return kCatalog[rank][1]; }
const char* EnvProvider(int rank) { return kProviders[kCatalog[rank][0]]; }

struct ServeRequest {
  double due_s = 0.0;
  int env = 0;
  bool redeploy = false;
  std::string method;
  int graph = 0;
  uint64_t seed = 1;
  std::string Class() const {
    return (redeploy ? std::string("redeploy") : method) + "/" +
           std::to_string(kSizes[EnvSizeIndex(env)]);
  }
};

bool IsRedeployEnv(int env) {
  return std::find(std::begin(kRedeployEnvs), std::end(kRedeployEnvs), env) !=
         std::end(kRedeployEnvs);
}

/// The service's tenants: a fixed catalog, so the workload seed changes
/// only the traffic (arrivals, methods, graphs, environment draws).
std::vector<ServeEnv> MakeEnvironments() {
  std::vector<ServeEnv> envs;
  for (int i = 0; i < kEnvironments; ++i) {
    ServeEnv env;
    env.size_index = EnvSizeIndex(i);
    env.spec.provider = EnvProvider(i);
    env.spec.instances = kSizes[env.size_index];
    env.spec.seed = 101 + static_cast<uint64_t>(i);
    env.redeploy = IsRedeployEnv(i);
    envs.push_back(env);
  }
  return envs;
}

/// One block of traffic: kBlockRequests arrivals over kBlockS seconds
/// (the Poisson process conditioned on its count). The mix is fixed, so
/// every seed serves the same composition; the seed draws the order, the
/// arrival instants and the solver seeds:
///   - deploy requests on the 12 environments, Zipf-skewed;
///   - of those, kBlockFast use fast heuristics (kFastMethods), the rest
///     "auto" (budget-bound CP); graphs rotate over mesh, tree and ring;
///   - kBlockRedeploys redeploy requests, rotating over kRedeployEnvs;
///   - every 8th request a byte-identical twin of the deploy before it.
constexpr int kBlockRequests = 48;
constexpr double kBlockS = kBlockRequests / kRatePerS;
constexpr int kBlockRedeploys = 4;
constexpr int kBlockDeploys = 38;
/// About 30% of "auto" solves prove optimality before the budget, so with
/// 12 fast slots 47-48% of requests finished under 0.2 s and the median
/// sat on the edge of the budget-bound mode (0.15 s in one of 5 seeds).
constexpr int kBlockFast = 8;
/// Deploy requests per environment in one block: Zipf(1.3) over ranks
/// 0..7, and kBlockTail more, one on each of the four tail environments.
/// A 40 s run then holds 20 tail misses, more than the 11 slowest requests
/// req_tail_s looks at, so that order statistic falls inside one group.
constexpr int kZipfCounts[] = {14, 7, 4, 3, 2, 2, 1, 1};
constexpr int kBlockTail = 4;

std::vector<ServeRequest> MakeSchedule(uint64_t seed, double seconds) {
  Gen gen(seed);
  const int blocks = std::max(1, static_cast<int>(seconds / kBlockS + 0.5));
  std::vector<ServeRequest> schedule;
  for (int b = 0; b < blocks; ++b) {
    std::vector<ServeRequest> block;
    int deploys = 0;
    auto add_deploy = [&](int env) {
      ServeRequest r;
      r.env = env;
      // kBlockFast of the kBlockDeploys slots, spread evenly over the
      // popularity-ordered slots, use fast heuristics; the rest "auto".
      const int fast_before = deploys * kBlockFast / kBlockDeploys;
      const int fast_after = (deploys + 1) * kBlockFast / kBlockDeploys;
      r.method = fast_after > fast_before ? kFastMethods[fast_before % 8]
                                          : "auto";
      r.graph = deploys % 3;
      ++deploys;
      block.push_back(r);
    };
    for (int e = 0; e < 8; ++e) {
      for (int k = 0; k < kZipfCounts[e]; ++k) add_deploy(e);
    }
    for (int k = 0; k < kBlockTail; ++k) {
      add_deploy(8 + (b * kBlockTail + k) % (kEnvironments - 8));
    }
    for (int k = 0; k < kBlockRedeploys; ++k) {
      ServeRequest r;
      r.redeploy = true;
      r.env = kRedeployEnvs[(b * kBlockRedeploys + k) % 3];
      r.method = "local";
      block.push_back(r);
    }
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1],
                block[static_cast<size_t>(gen.Below(static_cast<int>(i)))]);
    }
    for (ServeRequest& r : block) r.seed = gen.Next() % 1000003;
    // Arrival instants: sorted uniform draws over the block's window.
    const size_t arrivals = kBlockRequests - kBlockRequests / 8;
    std::vector<double> due(arrivals);
    for (double& t : due) t = (b + gen.Unit()) * kBlockS;
    std::sort(due.begin(), due.end());
    for (size_t i = 0; i < arrivals; ++i) {
      block[i].due_s = due[i];
      schedule.push_back(block[i]);
      if ((i + 1) % 7 == 0) {
        // Twin of the latest deploy request, due at the same instant.
        for (size_t j = schedule.size(); j-- > 0;) {
          if (!schedule[j].redeploy) {
            ServeRequest twin = schedule[j];
            twin.due_s = due[i];
            schedule.push_back(twin);
            break;
          }
        }
      }
    }
  }
  return schedule;
}

service::RedeployPolicy DriftPolicy(const service::EnvironmentSpec& spec) {
  service::RedeployPolicy policy;
  policy.check_interval_s = 1800.0;
  policy.checks = 8;
  policy.dynamics.epoch_minutes = 30.0;
  policy.dynamics.episode_rate = 0.35;
  policy.dynamics.severity_hi = 3.0;
  policy.dynamics.severity_lo = 2.2;
  policy.dynamics.recovery_per_epoch = 0.1;
  policy.dynamics.relocation_window_hours = 1.0;
  policy.dynamics.relocation_prob = 0.05;
  policy.dynamics.seed = spec.seed + 1;
  policy.planner.time_budget_s = kSolveBudgetS;
  return policy;
}

/// Application graphs per (size, kind); they must outlive the service.
struct Graphs {
  std::vector<graph::CommGraph> all;
  const graph::CommGraph& At(int size_index, int kind) const {
    return all[static_cast<size_t>(size_index * 3 + kind)];
  }
};

Graphs MakeGraphs() {
  Graphs graphs;
  for (int size : kSizes) {
    for (const char* kind : kGraphs) {
      graphs.all.push_back(MakeGraph(kind, size * 10 / 11));
    }
  }
  return graphs;
}

service::AdvisorService::Options ServiceOptions() {
  service::AdvisorService::Options options;
  options.threads = kThreads;
  options.default_method = "cp";
  return options;
}

struct Sent {
  const ServeRequest* request = nullptr;
  double submit_s = 0.0;  // relative to the run start
  bool is_redeploy = false;
  std::optional<service::RequestHandle> handle;
  std::optional<service::RedeployHandle> redeploy_handle;
};

/// Reference matrices of the environments never refreshed by redeploys,
/// measured after the timed phase (in parallel) for the cost checks.
std::map<int, deploy::CostMatrix> ReferenceMatrices(
    const std::vector<ServeEnv>& envs, const std::vector<int>& wanted,
    Report& report) {
  std::vector<std::pair<int, cloudia::Result<service::MeasuredEnvironment>>>
      measured;
  for (int e : wanted) {
    measured.emplace_back(e, cloudia::Status::Internal("not measured"));
  }
  std::vector<std::thread> workers;
  const size_t lanes = static_cast<size_t>(kThreads);
  for (size_t lane = 0; lane < lanes; ++lane) {
    workers.emplace_back([&, lane] {
      for (size_t i = lane; i < measured.size(); i += lanes) {
        measured[i].second = service::MeasureEnvironment(
            envs[static_cast<size_t>(measured[i].first)].spec);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::map<int, deploy::CostMatrix> out;
  for (auto& [e, result] : measured) {
    if (!result.ok()) {
      report.Fail("reference_measure", result.status().ToString());
      continue;
    }
    CheckCoverage(report, "serve-mix env " + std::to_string(e), result->costs);
    out.emplace(e, std::move(result->costs));
  }
  return out;
}

}  // namespace

void RunServeMix(const RunConfig& config, Report& report) {
  // Set-up: schedule, graphs, environments, and a service with its
  // redeploy opt-ins whose cache is warmed with the kCacheWarm most popular
  // environments (one g2 request each), so the timed phase starts in the
  // steady state instead of a cold-cache transient. It runs kSetups times
  // (each service torn down before the next); setup_s is the median and
  // the last service serves the timed phase.
  std::vector<ServeRequest> schedule;
  std::vector<ServeEnv> envs;
  Graphs graphs;
  std::unique_ptr<service::AdvisorService> advisor;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    advisor.reset();
    const double t0 = NowS();
    schedule = MakeSchedule(config.seed, config.seconds);
    envs = MakeEnvironments();
    graphs = MakeGraphs();
    advisor = std::make_unique<service::AdvisorService>(ServiceOptions());
    for (const ServeEnv& env : envs) {
      if (env.redeploy) {
        advisor->EnableRedeployment(env.spec, DriftPolicy(env.spec));
      }
    }
    std::vector<service::RequestHandle> warm;
    for (int e = 0; e < kCacheWarm; ++e) {
      service::DeploymentRequest req;
      req.environment = envs[static_cast<size_t>(e)].spec;
      req.app = &graphs.At(envs[static_cast<size_t>(e)].size_index, 0);
      req.solve.method = "g2";
      warm.push_back(advisor->Submit(std::move(req)));
    }
    for (const service::RequestHandle& h : warm) {
      if (!h.Wait().status.ok()) {
        report.Fail("setup", "cache warm-up: " + h.Wait().status.ToString());
      }
    }
    setups.push_back(NowS() - t0);
  }
  const double setup_s = Median(setups);
  // Counters of the timed phase exclude the warm-up.
  const service::AdvisorService::Stats stats0 = advisor->stats();
  const auto cache0 = advisor->cache_stats();

  std::unique_ptr<obs::Tracer> tracer;
  if (config.trace) tracer = std::make_unique<obs::Tracer>();
  double tracer_s = 0.0;  // time spent recording generator spans

  // Open-loop generator: sleep until each due time, then submit.
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin = Clock::now();
  const double start = NowS();
  double late_max = 0.0;
  for (const ServeRequest& r : schedule) {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.due_s)));
    const double t_submit = NowS() - start;
    late_max = std::max(late_max, t_submit - r.due_s);
    const double t_span = NowS();
    obs::Span span(tracer.get(), r.redeploy ? "submit_redeploy" : "submit",
                   "service");
    if (tracer != nullptr) {
      tracer->AddArg(span.id(), obs::Arg("class", "loadgen"));
      tracer_s += NowS() - t_span;
    }
    const ServeEnv& env = envs[static_cast<size_t>(r.env)];
    const graph::CommGraph* app = &graphs.At(env.size_index, r.graph);
    Sent s;
    s.request = &r;
    s.submit_s = t_submit;
    if (r.redeploy) {
      service::RedeployRequest req;
      req.environment = env.spec;
      req.app = app;
      req.solve.method = r.method;
      req.solve.time_budget_s = kSolveBudgetS;
      req.solve.threads = 1;
      req.solve.seed = r.seed;
      req.max_migrations = 4;
      s.is_redeploy = true;
      s.redeploy_handle = advisor->SubmitRedeploy(std::move(req));
    } else {
      service::DeploymentRequest req;
      req.environment = env.spec;
      req.app = app;
      req.solve.method = r.method;
      req.solve.time_budget_s = kSolveBudgetS;
      req.solve.seed = r.seed;
      req.deadline_s = kStartDeadlineS;
      // Interactive heuristics run ahead of queued "auto" solves.
      req.priority = r.method == "auto" ? 0 : 1;
      s.handle = advisor->Submit(std::move(req));
    }
    const double t_end = NowS();
    span.End();
    if (tracer != nullptr) tracer_s += NowS() - t_end;
    sent.push_back(std::move(s));
  }

  // Collect every outcome (latency from the due time).
  LayerMetrics layers;
  std::vector<double> latencies, costs, queue_waits, solve_times, miss_waits;
  std::vector<double> drifting_costs;
  std::map<std::string, std::vector<double>> by_class;
  int64_t slo_misses = 0, succeeded = 0;
  double busy_s = 0.0;  // worker time, from the results' own timings
  std::vector<std::pair<double, std::string>> slowest;
  double last_done = 0.0;
  Ledger ledger;
  int64_t next_id = int64_t{1} << 40;  // clear of the tracer's span ids
  for (const Sent& s : sent) {
    const ServeRequest& r = *s.request;
    ++report.attempted;
    const double lateness = s.submit_s - r.due_s;
    cloudia::Status status = cloudia::Status::OK();
    double total_s = 0.0;
    if (s.is_redeploy) {
      const service::RedeployResult& rr = s.redeploy_handle->Wait();
      status = rr.status;
      total_s = rr.total_s;
      if (status.ok()) {
        layers.redeploy_busy_s += rr.total_s;
        busy_s += rr.total_s;
        layers.redeploy_checks += rr.checks_run;
        layers.redeploy_escalations += rr.escalations;
        layers.redeploy_remeasures += rr.remeasures;
        layers.redeploy_migrations += rr.migrations;
      }
    } else {
      const service::ServiceResult& res = s.handle->Wait();
      status = res.status;
      total_s = res.total_s;
      if (status.ok()) {
        // Plan quality is compared on the tenants whose matrix is fixed:
        // a redeploy tenant's cached matrix is replaced by drifted
        // re-measures at times that depend on the schedule and the host.
        if (!IsRedeployEnv(r.env)) {
          costs.push_back(res.solve.cost_ms);
        } else {
          drifting_costs.push_back(res.solve.cost_ms);
        }
        if (!res.coalesced) busy_s += res.total_s - res.queue_wait_s;
        queue_waits.push_back(res.queue_wait_s);
        solve_times.push_back(res.solve.wall_s);
        const double miss =
            std::max(0.0, res.total_s - res.queue_wait_s - res.solve.wall_s);
        if (!res.cache_hit) miss_waits.push_back(miss);
        const std::string& m = res.routed_method;
        if (m == "cp") {
          layers.cp_busy_s += res.solve.wall_s;
          layers.cp_iterations += res.solve.result.iterations;
          ++layers.cp_solves;
          layers.cp_proven += res.solve.result.proven_optimal ? 1 : 0;
        } else if (m == "local") {
          layers.local_busy_s += res.solve.wall_s;
        } else if (m == "g2") {
          layers.g2_busy_s += res.solve.wall_s;
        }
        // Ledger: the request's due-to-done interval with its queue,
        // miss (measurement) and solve phases as children.
        const double t_submit = start + s.submit_s;
        const int64_t root = next_id++;
        ledger.Add({"serve." + r.method, "request", r.Class(), root, 0,
                    start + r.due_s, lateness + res.total_s});
        ledger.Add({"queue", "service", "", next_id++, root, t_submit,
                    res.queue_wait_s});
        if (!res.cache_hit) {
          ledger.Add({"measure.miss", "measure", "", next_id++, root,
                      t_submit + res.queue_wait_s, miss});
        }
        const bool heuristic = m == "g2" || m == "local" || m == "r1";
        ledger.Add({"solve." + m, heuristic ? "deploy" : "solver", "",
                    next_id++, root, t_submit + res.total_s - res.solve.wall_s,
                    res.solve.wall_s});
      }
    }
    if (s.is_redeploy && status.ok()) {
      const int64_t root = next_id++;
      ledger.Add({"serve.redeploy", "request", r.Class(), root, 0,
                  start + r.due_s, lateness + total_s});
      ledger.Add({"redeploy", "redeploy", "", next_id++, root,
                  start + s.submit_s, total_s});
    }
    const double latency = lateness + total_s;
    if (!status.ok()) {
      ++report.failed;
      ++slo_misses;
      if (status.code() == cloudia::StatusCode::kTimeout) {
        ++layers.service_expired;
      }
      std::fprintf(stderr, "%s failed: %s\n", r.Class().c_str(),
                   status.ToString().c_str());
      continue;
    }
    ++succeeded;
    if (latency > kSloS) ++slo_misses;
    latencies.push_back(latency);
    slowest.emplace_back(latency, r.Class());
    by_class[r.Class()].push_back(latency);
    last_done = std::max(last_done, s.submit_s + total_s);
  }
  const double wall = last_done;

  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    std::printf("latency quartiles %.4f / %.4f / %.4f s; utilization %.2f\n",
                sorted[sorted.size() / 4], sorted[sorted.size() / 2],
                sorted[sorted.size() * 3 / 4],
                wall > 0 ? busy_s / (kThreads * wall) : 0.0);
  }
  std::sort(slowest.rbegin(), slowest.rend());
  std::printf("slowest:");
  for (size_t i = 0; i < slowest.size() && i < 11; ++i) {
    std::printf(" %s=%.3f", slowest[i].second.c_str(), slowest[i].first);
  }
  std::printf("\n");
  const double mean_gap = 1.0 / kRatePerS;
  std::printf("loadgen: %zu sent, %lld succeeded, %lld failed; late max "
              "%.4f s (limit %.4f s)\n",
              sent.size(), static_cast<long long>(succeeded),
              static_cast<long long>(report.failed), late_max,
              kMaxLateShare * mean_gap);
  if (late_max > kMaxLateShare * mean_gap) {
    report.Fail("loadgen_health", "generator ran " + std::to_string(late_max) +
                                      " s late; the run is invalid");
  }
  service::AdvisorService::Stats stats = advisor->stats();
  auto cache = advisor->cache_stats();
  stats.coalesced -= stats0.coalesced;
  stats.warm_starts -= stats0.warm_starts;
  stats.expired -= stats0.expired;
  cache.hits -= cache0.hits;
  cache.misses -= cache0.misses;
  cache.measurements -= cache0.measurements;
  cache.coalesced -= cache0.coalesced;
  cache.evictions -= cache0.evictions;
  cache.refreshes -= cache0.refreshes;
  std::printf("service: %llu measurements, %llu evictions, %llu refreshes, "
              "%llu coalesced, %llu warm starts\n",
              static_cast<unsigned long long>(cache.measurements),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.refreshes),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.warm_starts));
  for (const auto& [cls, values] : by_class) {
    std::printf("  class %-16s %3zu requests, median %.4f s\n", cls.c_str(),
                values.size(), Median(values));
  }
  std::printf("plan cost: mean %.4f ms over %zu fixed-matrix deploys, "
              "%.4f ms over %zu redeploy-tenant deploys\n",
              Mean(costs), costs.size(), Mean(drifting_costs),
              drifting_costs.size());

  // Output checks: every plan valid, and on environments no redeploy
  // refreshed, its cost re-evaluated on the independently measured matrix.
  std::vector<int> wanted;
  for (int e = 0; e < kEnvironments; ++e) {
    if (!IsRedeployEnv(e)) wanted.push_back(e);
  }
  const std::map<int, deploy::CostMatrix> reference =
      ReferenceMatrices(envs, wanted, report);
  for (const Sent& s : sent) {
    if (s.is_redeploy) continue;
    const service::ServiceResult& res = s.handle->Wait();
    if (!res.status.ok()) continue;
    const ServeRequest& r = *s.request;
    const ServeEnv& env = envs[static_cast<size_t>(r.env)];
    const graph::CommGraph& app = graphs.At(env.size_index, r.graph);
    auto it = reference.find(r.env);
    const deploy::CostMatrix placeholder(env.spec.instances, 1.0);
    const std::string where = "serve " + r.Class() + " env " +
                              std::to_string(r.env) + " seed " +
                              std::to_string(r.seed);
    if (it != reference.end()) {
      CheckPlan(report, where, app, res.solve.result.deployment, it->second,
                deploy::Objective::kLongestLink, res.solve.cost_ms);
    } else {
      cloudia::Status valid = deploy::ValidateDeployment(
          app, res.solve.result.deployment, placeholder,
          deploy::Objective::kLongestLink);
      if (!valid.ok()) report.Fail("plan_valid", where + ": " + valid.ToString());
    }
  }

  const double slo_miss_frac =
      report.attempted > 0 ? static_cast<double>(slo_misses) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::printf("slo_miss_frac %.4f (limit %.2f s, failures count as misses)\n",
              slo_miss_frac, kSloS);
  if (!config.trace) {
    ReportEndToEnd(report, "serve-mix", setup_s, latencies, costs, wall);
    return;
  }
  layers.service_queue_wait_p50_s = Median(queue_waits);
  layers.service_queue_wait_tail_s = TailOf(queue_waits).value;
  layers.service_solve_p50_s = Median(solve_times);
  layers.service_miss_wait_p50_s = Median(miss_waits);
  const uint64_t lookups = cache.hits + cache.misses;
  layers.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  layers.cache_measurements = static_cast<int64_t>(cache.measurements);
  layers.cache_single_flight_waits = static_cast<int64_t>(cache.coalesced);
  layers.cache_evictions = static_cast<int64_t>(cache.evictions);
  layers.cache_refreshes = static_cast<int64_t>(cache.refreshes);
  layers.service_coalesced = static_cast<int64_t>(stats.coalesced);
  layers.service_warm_starts = static_cast<int64_t>(stats.warm_starts);
  layers.service_expired = static_cast<int64_t>(stats.expired);
  layers.loadgen_late_max_s = late_max;
  layers.slo_miss_frac = slo_miss_frac;
  double request_s = 0.0;
  for (double l : latencies) request_s += l;
  layers.trace_overhead_frac = request_s > 0 ? tracer_s / request_s : 0.0;
  ledger.AddTracer(*tracer);
  ReportLayers(report, config, layers, ledger);
}

}  // namespace perfbench
