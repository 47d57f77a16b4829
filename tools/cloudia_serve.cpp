// cloudia_serve -- line-delimited request front end for the concurrent
// service::AdvisorService.
//
// Reads one deployment request per line from a file (or stdin), submits them
// all to the service, and streams results back in submission order. Requests
// against the same environment share one measurement through the service's
// cost-matrix cache; byte-identical requests are coalesced onto one solve.
//
// Request lines are whitespace-separated key=value tokens; '#' starts a
// comment. Example (see examples/service_requests.txt):
//
//   provider=ec2 instances=33 graph=mesh nodes=30 method=auto budget=2
//       priority=1 seed=7
//
// Usage:
//   cloudia_serve --file=examples/service_requests.txt --threads=4
//   cloudia_serve --file=- < requests.txt        # stdin
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "deploy/solver_registry.h"
#include "graph/templates.h"
#include "obs/obs.h"
#include "service/advisor_service.h"
#include "tool_util.h"

namespace {

using namespace cloudia;

void PrintUsage() {
  std::printf(
      "usage: cloudia_serve [flags]\n"
      "\n"
      "Reads line-delimited deployment requests and streams results.\n"
      "\n"
      "flags:\n"
      "  --file=PATH          request file; '-' = stdin (default '-')\n"
      "  --threads=N          global worker budget (default: hardware;\n"
      "                       1 = deterministic schedule)\n"
      "  --cache-capacity=N   cost-matrix cache slots (default 8)\n"
      "  --cache-ttl=SECONDS  cache entry TTL (default: never expires)\n"
      "  --portfolio-threshold=N  'auto' requests with >= N application\n"
      "                       nodes run the portfolio solver (default 100)\n"
      "  --default-method=M   solver for small 'auto' requests (default cp)\n"
      "  --batch              submit every line before executing, so the\n"
      "                       schedule is a pure function of the file\n"
      "  --trace=FILE         write a Chrome trace_event JSON of the run\n"
      "                       (open in chrome://tracing or Perfetto)\n"
      "  --metrics=FILE       write final counters as bench-schema JSON\n"
      "  (an unknown flag is rejected)\n"
      "\n"
      "request line keys (whitespace-separated key=value; '#' comments):\n"
      "  verb=deploy|redeploy (default deploy)\n"
      "  verb=stats (alone on its line) prints the service metrics snapshot\n"
      "      at that position in the result stream -- every request above it\n"
      "      is already reflected, none below it is\n"
      "  provider=ec2|gce|rackspace   instances=N     env-seed=N\n"
      "  protocol=token|uncoordinated|staged   metric=mean|mean-sd|p99\n"
      "  duration=VIRTUAL_SECONDS (finite, <= 86400; <= 0 selects the\n"
      "      paper's 5 min per 100 instances)   probe-bytes=B (finite, >= 0)\n"
      "  graph=mesh|tree|bipartite|ring   nodes=N\n"
      "  method=auto|%s\n"
      "  objective=longest-link|longest-path   budget=S (finite, >= 0)\n"
      "  clusters=K\n"
      "  price-weight=W (ms per $/h on summed instance price; finite, >= 0;\n"
      "      the service prices the pool via the provider's price model)\n"
      "  migration-weight=W (ms per node placed away from the default)\n"
      "  r1-samples=N   threads=N   portfolio=A,B,...   seed=N\n"
      "  hier-clusters=K   hier-shard-solver=NAME   hier-polish-steps=N\n"
      "  priority=P (higher first)    deadline=S (must start within)\n"
      "\n"
      "redeploy lines additionally accept (and opt the environment into\n"
      "online redeployment: solve a baseline, run drift checks over virtual\n"
      "time, re-measure + plan migrations on escalation, refresh the cache):\n"
      "  k=N (migration budget per plan; default 4)   checks=N (default 8)\n"
      "  check-interval=VIRTUAL_SECONDS (default 1800)\n"
      "  drift-rate=P (congestion episodes per rack pair per epoch, 0.35)\n"
      "  drift-severity=X (episode RTT multiplier upper bound, 3.0)\n"
      "  drift-seed=N (default env-seed+1)   relocation-prob=P (0.05/hour)\n",
      tools::KnownSolverNames(", ").c_str());
}

using tools::GraphByName;
using tools::SplitCommaList;

// One parsed request line -> DeploymentRequest. The graph store keeps every
// distinct (graph, nodes) template alive for the service's lifetime.
struct GraphStore {
  const graph::CommGraph* Get(const std::string& name, int nodes) {
    auto key = std::make_pair(name, nodes);
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    graphs.push_back(GraphByName(name, nodes));
    index[key] = &graphs.back();
    return &graphs.back();
  }
  std::deque<graph::CommGraph> graphs;  // deque: stable addresses
  std::map<std::pair<std::string, int>, const graph::CommGraph*> index;
};

// One parsed line: a deployment request, or a redeploy request plus the
// per-environment policy its knobs describe (a redeploy line *is* the
// environment's opt-in when driven from a file).
struct ParsedRequest {
  bool is_redeploy = false;
  service::DeploymentRequest deploy;
  service::RedeployRequest redeploy;
  service::RedeployPolicy policy;
};

Result<ParsedRequest> ParseRequestLine(const std::string& line,
                                       GraphStore& graphs) {
  ParsedRequest parsed;
  service::DeploymentRequest& req = parsed.deploy;
  std::string graph_name = "mesh";
  int nodes = 30;
  int instances = 0;  // 0 = nodes + 10% over-allocation
  req.solve.method = "auto";

  // Redeploy defaults (only read when verb=redeploy).
  parsed.redeploy.max_migrations = 4;
  parsed.redeploy.checks = 8;
  parsed.policy.check_interval_s = 1800.0;
  parsed.policy.dynamics.epoch_minutes = 30.0;
  parsed.policy.dynamics.episode_rate = 0.35;
  parsed.policy.dynamics.severity_hi = 3.0;
  parsed.policy.dynamics.recovery_per_epoch = 0.1;
  parsed.policy.dynamics.relocation_window_hours = 1.0;
  parsed.policy.dynamics.relocation_prob = 0.05;
  parsed.policy.planner.time_budget_s = 1.0;
  bool drift_seed_set = false;
  /// Redeploy-only keys seen on the line; a deploy line using one is a
  /// mistake (the knob would be silently dropped), so it fails like any
  /// other unknown key instead.
  std::string redeploy_only_key;

  std::istringstream tokens(line);
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') break;
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("token '" + token +
                                     "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // The whole token must parse: std::stoi/std::stod stop at the first
    // bad character, which would read "nodes=4abc" as 4.
    auto as_int = [&]() -> Result<int> {
      try {
        size_t used = 0;
        int v = std::stoi(value, &used);
        if (used == value.size()) return v;
      } catch (...) {
      }
      return Status::InvalidArgument(key + "=" + value + ": not an integer");
    };
    auto as_double = [&]() -> Result<double> {
      try {
        size_t used = 0;
        double v = std::stod(value, &used);
        if (used == value.size()) return v;
      } catch (...) {
      }
      return Status::InvalidArgument(key + "=" + value + ": not a number");
    };
    // NaN fails every range check downstream, so "duration=nan" would
    // silently measure for the default duration; the range itself is
    // checked (and named) by the measurement protocols.
    auto as_finite_double = [&]() -> Result<double> {
      CLOUDIA_ASSIGN_OR_RETURN(double v, as_double());
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(key + "=" + value +
                                       ": must be a finite number");
      }
      return v;
    };
    if (key == "verb") {
      if (value == "deploy") {
        parsed.is_redeploy = false;
      } else if (value == "redeploy") {
        parsed.is_redeploy = true;
      } else {
        return Status::InvalidArgument("unknown verb '" + value +
                                       "' (known: deploy, redeploy)");
      }
    } else if (key == "k") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.redeploy.max_migrations, as_int());
      if (parsed.redeploy.max_migrations < -1) {
        return Status::InvalidArgument(
            "k=" + value + ": migration budget must be >= -1 (-1 = unlimited)");
      }
    } else if (key == "checks") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.redeploy.checks, as_int());
      if (parsed.redeploy.checks < 1) {
        return Status::InvalidArgument("checks=" + value + ": need >= 1");
      }
    } else if (key == "check-interval") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.policy.check_interval_s, as_double());
      if (parsed.policy.check_interval_s <= 0) {
        return Status::InvalidArgument("check-interval=" + value +
                                       ": need > 0 virtual seconds");
      }
    } else if (key == "drift-rate") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.policy.dynamics.episode_rate,
                               as_double());
      if (parsed.policy.dynamics.episode_rate < 0 ||
          parsed.policy.dynamics.episode_rate > 1) {
        return Status::InvalidArgument("drift-rate=" + value +
                                       ": a probability in [0, 1]");
      }
    } else if (key == "drift-severity") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.policy.dynamics.severity_hi,
                               as_double());
      if (parsed.policy.dynamics.severity_hi < 1.0) {
        return Status::InvalidArgument(
            "drift-severity=" + value +
            ": an RTT multiplier, must be >= 1");
      }
    } else if (key == "drift-seed") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(int v, as_int());
      if (v < 0) {
        return Status::InvalidArgument("drift-seed=" + value +
                                       ": must be >= 0");
      }
      parsed.policy.dynamics.seed = static_cast<uint64_t>(v);
      drift_seed_set = true;
    } else if (key == "relocation-prob") {
      redeploy_only_key = key;
      CLOUDIA_ASSIGN_OR_RETURN(parsed.policy.dynamics.relocation_prob,
                               as_double());
      if (parsed.policy.dynamics.relocation_prob < 0 ||
          parsed.policy.dynamics.relocation_prob > 1) {
        return Status::InvalidArgument("relocation-prob=" + value +
                                       ": a probability in [0, 1]");
      }
    } else if (key == "provider") {
      CLOUDIA_RETURN_IF_ERROR(
          service::ProviderProfileByName(value).status());
      req.environment.provider = value;
    } else if (key == "instances") {
      CLOUDIA_ASSIGN_OR_RETURN(instances, as_int());
    } else if (key == "env-seed") {
      CLOUDIA_ASSIGN_OR_RETURN(int v, as_int());
      req.environment.seed = static_cast<uint64_t>(v);
    } else if (key == "protocol") {
      if (value == "token") {
        req.environment.protocol = measure::Protocol::kTokenPassing;
      } else if (value == "uncoordinated") {
        req.environment.protocol = measure::Protocol::kUncoordinated;
      } else if (value == "staged") {
        req.environment.protocol = measure::Protocol::kStaged;
      } else {
        return Status::InvalidArgument(
            "unknown protocol '" + value +
            "' (known: token, uncoordinated, staged)");
      }
    } else if (key == "metric") {
      if (value == "mean") {
        req.environment.metric = measure::CostMetric::kMean;
      } else if (value == "mean-sd") {
        req.environment.metric = measure::CostMetric::kMeanPlusStdDev;
      } else if (value == "p99") {
        req.environment.metric = measure::CostMetric::kP99;
      } else {
        return Status::InvalidArgument("unknown metric '" + value +
                                       "' (known: mean, mean-sd, p99)");
      }
    } else if (key == "duration") {
      CLOUDIA_ASSIGN_OR_RETURN(req.environment.measure_duration_s,
                               as_finite_double());
    } else if (key == "probe-bytes") {
      CLOUDIA_ASSIGN_OR_RETURN(req.environment.probe_bytes,
                               as_finite_double());
    } else if (key == "graph") {
      graph_name = value;
    } else if (key == "nodes") {
      CLOUDIA_ASSIGN_OR_RETURN(nodes, as_int());
      // Validate before the template builders, whose CHECKs would abort
      // the whole server on a bad line instead of skipping it.
      if (nodes < 2) {
        return Status::InvalidArgument("nodes=" + value +
                                       ": a graph needs >= 2 nodes");
      }
    } else if (key == "method") {
      // Validate now so a typo is reported with the available solver names
      // instead of failing deep inside the service.
      if (value != "auto" && !value.empty()) {
        CLOUDIA_RETURN_IF_ERROR(
            deploy::SolverRegistry::Global().Require(value).status());
      }
      req.solve.method = value;
    } else if (key == "objective") {
      CLOUDIA_ASSIGN_OR_RETURN(deploy::Objective primary,
                               deploy::ParseObjective(value));
      req.solve.objective.primary = primary;
    } else if (key == "price-weight") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.objective.price_weight, as_double());
    } else if (key == "migration-weight") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.objective.migration_weight,
                               as_double());
    } else if (key == "budget") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.time_budget_s, as_double());
    } else if (key == "clusters") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.cost_clusters, as_int());
    } else if (key == "r1-samples") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.r1_samples, as_int());
    } else if (key == "threads") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.threads, as_int());
    } else if (key == "portfolio") {
      CLOUDIA_ASSIGN_OR_RETURN(
          req.solve.portfolio_members,
          deploy::ValidatePortfolioMembers(deploy::SolverRegistry::Global(),
                                           SplitCommaList(value)));
    } else if (key == "seed") {
      CLOUDIA_ASSIGN_OR_RETURN(int v, as_int());
      req.solve.seed = static_cast<uint64_t>(v);
    } else if (key == "hier-clusters") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.hier_clusters, as_int());
    } else if (key == "hier-shard-solver") {
      // Same early validation as method=: typos surface with the solver list.
      CLOUDIA_RETURN_IF_ERROR(
          deploy::SolverRegistry::Global().Require(value).status());
      req.solve.hier_shard_solver = value;
    } else if (key == "hier-polish-steps") {
      CLOUDIA_ASSIGN_OR_RETURN(req.solve.hier_polish_steps, as_int());
    } else if (key == "priority") {
      CLOUDIA_ASSIGN_OR_RETURN(req.priority, as_int());
    } else if (key == "deadline") {
      CLOUDIA_ASSIGN_OR_RETURN(req.deadline_s, as_double());
    } else {
      return Status::InvalidArgument("unknown request key '" + key + "'");
    }
  }

  CLOUDIA_RETURN_IF_ERROR(deploy::ValidateSolveOptions(req.solve));
  req.app = graphs.Get(graph_name, nodes);
  nodes = req.app->num_nodes();
  req.environment.instances =
      instances > 0 ? instances : nodes + std::max(1, nodes / 10);
  if (req.environment.instances < nodes) {
    return Status::InvalidArgument(
        "instances=" + std::to_string(req.environment.instances) +
        " cannot hold the " + std::to_string(nodes) + "-node graph");
  }
  if (!parsed.is_redeploy && !redeploy_only_key.empty()) {
    return Status::InvalidArgument(
        "key '" + redeploy_only_key +
        "' requires verb=redeploy (a deploy request would silently drop it)");
  }
  if (parsed.is_redeploy) {
    parsed.redeploy.environment = req.environment;
    parsed.redeploy.app = req.app;
    parsed.redeploy.solve = req.solve;  // solve.objective governs the plans
    if (!drift_seed_set) {
      parsed.policy.dynamics.seed = req.environment.seed + 1;
    }
    const double hi = parsed.policy.dynamics.severity_hi;
    parsed.policy.dynamics.severity_lo = 1.0 + 0.6 * (hi - 1.0);
  }
  return parsed;
}

// True when the line is exactly "verb=stats" (plus optional trailing
// comment): a metrics snapshot point, not a request.
bool IsStatsLine(const std::string& line) {
  std::istringstream tokens(line);
  std::string token;
  if (!(tokens >> token) || token != "verb=stats") return false;
  if (tokens >> token) return token[0] == '#';
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (flags->Has("help")) {
    PrintUsage();
    return 0;
  }
  auto threads = flags->GetInt("threads", 0);
  auto capacity = flags->GetInt("cache-capacity", 8);
  auto ttl = flags->GetDouble("cache-ttl", 0.0);
  auto threshold = flags->GetInt("portfolio-threshold", 100);
  if (!threads.ok() || !capacity.ok() || !ttl.ok() || !threshold.ok()) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  if (!tools::ValidateThreads(*threads)) return 2;
  const bool batch = flags->GetBool("batch", false);
  const std::string path = flags->GetString("file", "-");
  const std::string default_method = flags->GetString("default-method", "cp");
  const std::string trace_path = flags->GetString("trace", "");
  const std::string metrics_path = flags->GetString("metrics", "");
  if (!tools::RejectUnknownFlags(*flags)) return 2;

  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open request file '%s'\n", path.c_str());
      return 2;
    }
    in = &file;
  }

  // The registry is always attached (near-free when idle) so `verb=stats`
  // lines and --metrics have data; tracing stays opt-in via --trace.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;

  service::AdvisorService::Options options;
  options.threads = static_cast<int>(*threads);
  options.cache_capacity = static_cast<size_t>(*capacity);
  if (*ttl > 0) options.cache_ttl_s = *ttl;
  options.portfolio_node_threshold = static_cast<int>(*threshold);
  options.default_method = default_method;
  options.start_paused = batch;
  options.obs.metrics = &registry;
  if (!trace_path.empty()) options.obs.tracer = &tracer;
  service::AdvisorService advisor(options);

  GraphStore graphs;
  // Results print in submission order; deploy and redeploy handles live in
  // separate vectors, `order` interleaves them.
  struct Submitted {
    enum Kind { kDeploy, kRedeploy, kStats };
    Kind kind;
    size_t index;
  };
  std::vector<service::RequestHandle> handles;
  std::vector<service::RedeployHandle> redeploy_handles;
  std::vector<Submitted> order;
  /// Env key -> (policy, line that registered it); guards --batch conflicts.
  std::map<std::string, std::pair<service::RedeployPolicy, int>>
      redeploy_policies;
  std::string line;
  int line_no = 0;
  int parse_errors = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    // Skip blanks and comment lines.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (IsStatsLine(line)) {
      order.push_back({Submitted::kStats, 0});
      continue;
    }
    auto request = ParseRequestLine(line, graphs);
    if (!request.ok()) {
      std::fprintf(stderr, "line %d: %s\n", line_no,
                   request.status().ToString().c_str());
      ++parse_errors;
      continue;
    }
    if (request->is_redeploy) {
      // The line is the environment's opt-in: register its drift policy.
      // Policies are per *environment* (last registration wins inside the
      // service), so in --batch mode a second line with different drift
      // knobs would silently re-scenario the first line's request -- fail
      // the conflicting line instead. Identical duplicates are fine.
      const std::string env_key = request->redeploy.environment.Key();
      auto [it, inserted] = redeploy_policies.try_emplace(
          env_key, std::make_pair(request->policy, line_no));
      if (!inserted && !(it->second.first == request->policy)) {
        std::fprintf(stderr,
                     "line %d: environment already opted into redeployment "
                     "with a different drift policy on line %d\n",
                     line_no, it->second.second);
        ++parse_errors;
        continue;
      }
      advisor.EnableRedeployment(request->redeploy.environment,
                                 request->policy);
      order.push_back({Submitted::kRedeploy, redeploy_handles.size()});
      redeploy_handles.push_back(
          advisor.SubmitRedeploy(std::move(request->redeploy)));
    } else {
      order.push_back({Submitted::kDeploy, handles.size()});
      handles.push_back(advisor.Submit(std::move(request->deploy)));
    }
  }
  if (batch) advisor.Resume();

  int failed_requests = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i].kind == Submitted::kStats) {
      // Results are waited on in submission order, so by the time a stats
      // line prints, every request above it has completed (and is counted)
      // while none below it has been waited on.
      for (size_t j = 0; j < i; ++j) {
        if (order[j].kind == Submitted::kDeploy) {
          handles[order[j].index].Wait();
        } else if (order[j].kind == Submitted::kRedeploy) {
          redeploy_handles[order[j].index].Wait();
        }
      }
      const std::string snapshot = registry.SnapshotLine();
      std::printf("req %3zu: stats     %s\n", i + 1,
                  snapshot.empty() ? "(no metrics)" : snapshot.c_str());
      continue;
    }
    if (order[i].kind == Submitted::kRedeploy) {
      const service::RedeployResult& r =
          redeploy_handles[order[i].index].Wait();
      if (!r.status.ok()) {
        std::printf("req %3zu: redeploy FAILED %s\n", i + 1,
                    r.status.ToString().c_str());
        ++failed_requests;
        continue;
      }
      std::printf(
          "req %3zu: redeploy  drift=%s checks=%d escalations=%d "
          "migrations=%d stale=%.4fms replanned=%.4fms retained=%4.1f%% "
          "wall=%.2fs\n",
          i + 1, r.drift_detected ? "yes" : "no", r.checks_run,
          r.escalations, r.migrations, r.stale_cost_ms, r.final_cost_ms,
          r.stale_cost_ms > 0
              ? 100.0 * (r.stale_cost_ms - r.final_cost_ms) / r.stale_cost_ms
              : 0.0,
          r.total_s);
      continue;
    }
    const service::ServiceResult& r = handles[order[i].index].Wait();
    if (!r.status.ok()) {
      std::printf("req %3zu: FAILED %s\n", i + 1,
                  r.status.ToString().c_str());
      ++failed_requests;
      continue;
    }
    std::printf(
        "req %3zu: %-9s cost=%.4fms default=%.4fms improvement=%4.1f%% "
        "%s%s%swall=%.2fs\n",
        i + 1, r.routed_method.c_str(), r.solve.cost_ms,
        r.solve.default_cost_ms, 100.0 * r.solve.predicted_improvement,
        r.cache_hit ? "cache-hit "
                    : (r.measurement_shared ? "shared-measure " : "measured "),
        r.coalesced ? "coalesced " : "", r.warm_started ? "warm " : "",
        r.total_s);
  }

  service::AdvisorService::Stats s = advisor.stats();
  service::CostMatrixCache::Stats cs = advisor.cache_stats();
  std::printf(
      "served %llu requests (%llu coalesced, %llu failed, %llu cancelled, "
      "%llu expired); %llu measurements for %llu matrix lookups "
      "(%llu hits), %llu warm starts\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.coalesced),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(cs.measurements),
      static_cast<unsigned long long>(cs.hits + cs.misses),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(s.warm_starts));
  if (s.redeploys > 0) {
    std::printf(
        "online redeployment: %llu requests (%llu detected drift); "
        "%llu refreshed matrices fed back into the cache\n",
        static_cast<unsigned long long>(s.redeploys),
        static_cast<unsigned long long>(s.redeploys_drifted),
        static_cast<unsigned long long>(s.matrix_refreshes));
  }
  int io_errors = 0;
  if (!trace_path.empty()) {
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("wrote %zu trace events to %s\n", tracer.event_count(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      ++io_errors;
    }
  }
  if (!metrics_path.empty()) {
    if (registry.WriteJson(metrics_path, "cloudia_serve")) {
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      ++io_errors;
    }
  }
  // Repo convention: runtime failures exit 1 too, so scripts and CI notice
  // failed requests, not only unparsable ones.
  return parse_errors == 0 && failed_requests == 0 && io_errors == 0 ? 0 : 1;
}
