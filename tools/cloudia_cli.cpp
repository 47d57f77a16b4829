// cloudia_cli -- command-line front end for the deployment advisor.
//
// Modes:
//   advise    run the full pipeline against the simulated cloud and print
//             the deployment plan (optionally saving the measured costs)
//   measure   only measure; save the cost matrix to --out
//   solve     load a saved cost matrix (--costs) and search a deployment
//             for a templated application graph
//
// Examples:
//   cloudia_cli advise --nodes=100 --graph=mesh --method=cp --budget=10
//   cloudia_cli measure --instances=50 --minutes=5 --out=costs.txt
//   cloudia_cli solve --costs=costs.txt --graph=tree --objective=longest-path
#include <cstdio>
#include <string>

#include "cloudia/session.h"
#include "common/flags.h"
#include "deploy/solver_registry.h"
#include "graph/templates.h"
#include "measure/io.h"
#include "measure/protocols.h"
#include "obs/obs.h"
#include "tool_util.h"

namespace {

using namespace cloudia;

using tools::GraphByName;
using tools::RejectUnknownFlags;

// Observability sinks requested with --trace/--metrics. Sinks are attached
// only when their flag is given, so the default run pays nothing; Dump()
// writes whatever was requested after the work finishes.
struct ObsSinks {
  std::string trace_path;
  std::string metrics_path;
  obs::Tracer tracer;
  obs::MetricsRegistry registry;

  explicit ObsSinks(const Flags& flags)
      : trace_path(flags.GetString("trace", "")),
        metrics_path(flags.GetString("metrics", "")) {}
  obs::ObsConfig Config() {
    obs::ObsConfig config;
    if (!trace_path.empty()) config.tracer = &tracer;
    if (!metrics_path.empty()) config.metrics = &registry;
    return config;
  }
  /// Writes the requested files; returns false (with stderr) on I/O error.
  bool Dump() {
    if (!trace_path.empty()) {
      if (!tracer.WriteChromeTrace(trace_path)) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     trace_path.c_str());
        return false;
      }
      std::printf("wrote %zu trace events to %s\n", tracer.event_count(),
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!registry.WriteJson(metrics_path, "cloudia_cli")) {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     metrics_path.c_str());
        return false;
      }
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    return true;
  }
};

void PrintUsage() {
  std::printf(
      "usage: cloudia_cli <advise|measure|solve> [flags]\n"
      "\n"
      "common flags:\n"
      "  --seed=N             RNG seed (default 1)\n"
      "  --provider=NAME      ec2 | gce | rackspace (default ec2)\n"
      "  --graph=NAME         mesh | tree | bipartite | ring (default mesh)\n"
      "  --nodes=N            application nodes (default 30; shapes snap to\n"
      "                       the nearest template size)\n"
      "  --objective=NAME     longest-link | longest-path\n"
      "  --price-weight=W     weight on summed instance price, ms per $/h\n"
      "                       (default 0 = latency only; finite, >= 0).\n"
      "                       advise prices the allocated pool via the\n"
      "                       provider's price model; solve derives prices\n"
      "                       from the provider profile per matrix row\n"
      "  --migration-weight=W weight (ms per move) on nodes placed away\n"
      "                       from the default placement (default 0)\n"
      "  --method=NAME        %s\n"
      "  --budget=SECONDS     search budget (default 10; finite, >= 0)\n"
      "  --clusters=K         cost clusters for cp/mip (default 20)\n"
      "  --threads=N          worker threads for r2/portfolio (default:\n"
      "                       hardware concurrency)\n"
      "  --portfolio=A,B,...  member solvers for --method=portfolio\n"
      "                       (default cp,mip,local,r2)\n"
      "  --hier-clusters=K    instance clusters for --method=hier\n"
      "                       (default 0 = latency-threshold auto)\n"
      "  --hier-shard-solver=NAME\n"
      "                       per-shard solver for hier (default local)\n"
      "  --hier-polish-steps=N\n"
      "                       boundary-polish step budget (default 2000)\n"
      "  --trace=FILE         write a Chrome trace_event JSON of the run\n"
      "                       (open in chrome://tracing or Perfetto)\n"
      "  --metrics=FILE       write collected counters as bench-schema JSON\n"
      "advise flags:\n"
      "  --over-allocation=F  extra instance fraction (default 0.10)\n"
      "  --minutes=M          virtual measurement minutes (default auto)\n"
      "  --out=FILE           save the measured mean-cost matrix\n"
      "measure flags (plus --seed, --provider):\n"
      "  --instances=N        instances to allocate (default 50)\n"
      "  --minutes=M          virtual measurement minutes (default 5)\n"
      "  --out=FILE           where to save the matrix (default costs.txt)\n"
      "solve flags:\n"
      "  --costs=FILE         cost matrix produced by 'measure'\n"
      "\n"
      "A flag a mode does not read is rejected as unknown.\n",
      tools::KnownSolverNames(" | ").c_str());
}

net::ProviderProfile ProviderByName(const std::string& name) {
  if (name == "gce") return net::GoogleComputeEngineProfile();
  if (name == "rackspace") return net::RackspaceCloudProfile();
  return net::AmazonEc2Profile();
}

// Fills the solve knobs that advise and solve share, with the CLI's
// defaults, and validates the whole spec: flag syntax, registry names,
// method/objective compatibility and every knob's range.
Result<SolveSpec> SolveSpecFromFlags(const Flags& flags) {
  SolveSpec spec;
  CLOUDIA_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 1));
  spec.seed = static_cast<uint64_t>(seed);
  CLOUDIA_ASSIGN_OR_RETURN(spec.time_budget_s,
                           flags.GetDouble("budget", 10.0));
  CLOUDIA_ASSIGN_OR_RETURN(spec.cost_clusters, flags.GetInt("clusters", 20));
  CLOUDIA_ASSIGN_OR_RETURN(spec.threads, flags.GetInt("threads", 0));
  CLOUDIA_ASSIGN_OR_RETURN(spec.hier_clusters,
                           flags.GetInt("hier-clusters", 0));
  CLOUDIA_ASSIGN_OR_RETURN(spec.hier_polish_steps,
                           flags.GetInt("hier-polish-steps", 2000));
  spec.hier_shard_solver = flags.GetString("hier-shard-solver", "");
  if (!spec.hier_shard_solver.empty()) {
    CLOUDIA_RETURN_IF_ERROR(deploy::SolverRegistry::Global()
                                .Require(spec.hier_shard_solver)
                                .status());
  }
  CLOUDIA_ASSIGN_OR_RETURN(spec.objective.price_weight,
                           flags.GetDouble("price-weight", 0.0));
  CLOUDIA_ASSIGN_OR_RETURN(spec.objective.migration_weight,
                           flags.GetDouble("migration-weight", 0.0));
  CLOUDIA_ASSIGN_OR_RETURN(
      spec.objective.primary,
      deploy::ParseObjective(flags.GetString("objective", "longest-link")));
  CLOUDIA_ASSIGN_OR_RETURN(
      spec.portfolio_members,
      deploy::ValidatePortfolioMembers(
          deploy::SolverRegistry::Global(),
          tools::SplitCommaList(flags.GetString("portfolio", ""))));
  CLOUDIA_ASSIGN_OR_RETURN(const deploy::NdpSolver* solver,
                           deploy::SolverRegistry::Global().Require(
                               flags.GetString("method", "cp")));
  if (!solver->Supports(spec.objective.primary)) {
    return Status::InvalidArgument(
        std::string(solver->display_name()) + " does not support the " +
        deploy::ObjectiveName(spec.objective.primary) + " objective");
  }
  spec.method = solver->name();
  CLOUDIA_RETURN_IF_ERROR(deploy::ValidateSolveOptions(spec));
  return spec;
}

int RunAdvise(const Flags& flags) {
  auto spec = SolveSpecFromFlags(flags);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto nodes = flags.GetInt("nodes", 30);
  auto over = flags.GetDouble("over-allocation", 0.10);
  auto minutes = flags.GetDouble("minutes", 0.0);
  if (!nodes.ok() || !over.ok() || !minutes.ok()) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  const std::string provider = flags.GetString("provider", "ec2");
  const std::string graph_name = flags.GetString("graph", "mesh");
  const std::string out = flags.GetString("out", "");
  ObsSinks sinks(flags);
  if (!RejectUnknownFlags(flags)) return 2;

  net::CloudSimulator cloud(ProviderByName(provider), spec->seed);
  graph::CommGraph app = GraphByName(graph_name, static_cast<int>(*nodes));
  std::printf("application graph: %s\n", app.ToString().c_str());

  SessionOptions options;
  options.over_allocation = *over;
  options.measure_duration_s = *minutes * 60.0;
  options.seed = spec->seed;
  options.obs = sinks.Config();

  // Staged pipeline so the measured matrix is still around for --out.
  DeploymentSession session(&cloud, &app, options);
  Status measured = session.Measure();
  if (!measured.ok()) {
    std::fprintf(stderr, "measurement failed: %s\n",
                 measured.ToString().c_str());
    return 1;
  }
  if (!out.empty()) {
    Status saved = measure::SaveCostMatrix(
        out, session.costs(), measure::CostMetricName(options.metric));
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved measured cost matrix to %s\n", out.c_str());
  }

  if (spec->objective.price_weight > 0) {
    // Price the allocated pool with the provider's per-host price model.
    spec->objective.instance_prices =
        cloud.InstancePrices(session.allocated());
  }
  auto solve = session.Solve(*spec);
  if (!solve.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 solve.status().ToString().c_str());
    session.Terminate();  // release the whole pool before giving up
    return 1;
  }
  auto terminated = session.Terminate(*solve);
  if (!terminated.ok()) {
    std::fprintf(stderr, "terminate failed: %s\n",
                 terminated.status().ToString().c_str());
    return 1;
  }
  if (!sinks.Dump()) return 1;

  std::printf("ClouDiA deployment report\n");
  std::printf("  allocated instances : %zu\n", session.allocated().size());
  std::printf("  application nodes   : %zu\n", solve->placement.size());
  std::printf("  terminated extras   : %zu\n", terminated->size());
  std::printf("  measurement time    : %.1f s (virtual)\n",
              session.measure_virtual_s());
  std::printf("  search time         : %.2f s (wall, %s)\n", solve->wall_s,
              solve->method.c_str());
  std::printf("  default cost        : %.4f ms\n", solve->default_cost_ms);
  std::printf("  optimized cost      : %.4f ms%s\n", solve->cost_ms,
              solve->result.proven_optimal ? " (proven optimal)" : "");
  std::printf("  predicted reduction : %.1f %%\n",
              100.0 * solve->predicted_improvement);
  if (spec->objective.price_weight > 0) {
    double plan_price = 0.0;
    for (int idx : solve->result.deployment) {
      plan_price += spec->objective.instance_prices[static_cast<size_t>(idx)];
    }
    std::printf("  plan price          : %.4f $/hour (weight %g)\n",
                plan_price, spec->objective.price_weight);
  }
  if (spec->objective.migration_weight > 0) {
    int moves = 0;
    for (size_t i = 0; i < solve->result.deployment.size(); ++i) {
      moves += solve->result.deployment[i] != static_cast<int>(i) ? 1 : 0;
    }
    std::printf("  moves vs default    : %d (weight %g ms/move)\n", moves,
                spec->objective.migration_weight);
  }
  std::printf("plan:\n");
  for (size_t i = 0; i < solve->placement.size(); ++i) {
    std::printf("  node %3zu -> instance %3d (%s)\n", i,
                solve->placement[i].id,
                net::IpToString(solve->placement[i].internal_ip).c_str());
  }
  return 0;
}

int RunMeasure(const Flags& flags) {
  auto seed = flags.GetInt("seed", 1);
  auto instances = flags.GetInt("instances", 50);
  auto minutes = flags.GetDouble("minutes", 5.0);
  std::string out = flags.GetString("out", "costs.txt");
  const std::string provider = flags.GetString("provider", "ec2");
  if (!seed.ok() || !instances.ok() || !minutes.ok()) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  if (!RejectUnknownFlags(flags)) return 2;
  net::CloudSimulator cloud(ProviderByName(provider),
                            static_cast<uint64_t>(*seed));
  auto alloc = cloud.Allocate(static_cast<int>(*instances));
  if (!alloc.ok()) {
    std::fprintf(stderr, "%s\n", alloc.status().ToString().c_str());
    return 1;
  }
  measure::ProtocolOptions opts;
  opts.duration_s = *minutes * 60.0;
  opts.seed = static_cast<uint64_t>(*seed) + 1;
  auto measured = measure::RunStaged(cloud, *alloc, opts);
  if (!measured.ok()) {
    std::fprintf(stderr, "%s\n", measured.status().ToString().c_str());
    return 1;
  }
  auto costs = measure::BuildCostMatrix(*measured, measure::CostMetric::kMean);
  if (!costs.ok()) {
    std::fprintf(stderr, "%s\n", costs.status().ToString().c_str());
    return 1;
  }
  Status saved = measure::SaveCostMatrix(out, *costs, "Mean");
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("measured %lld samples over %.1f virtual minutes; saved %s\n",
              static_cast<long long>(measured->total_samples()),
              measured->virtual_time_ms / 6e4, out.c_str());
  return 0;
}

int RunSolve(const Flags& flags) {
  auto spec = SolveSpecFromFlags(flags);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  const std::string path = flags.GetString("costs", "");
  if (path.empty()) {
    std::fprintf(stderr, "--costs=FILE is required for 'solve'\n");
    return 2;
  }
  auto loaded = measure::LoadCostMatrix(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const int m = loaded->costs.size();
  auto nodes = flags.GetInt("nodes", m * 9 / 10);
  if (!nodes.ok()) {
    std::fprintf(stderr, "%s\n", nodes.status().ToString().c_str());
    return 2;
  }
  const std::string provider = flags.GetString("provider", "ec2");
  graph::CommGraph app = GraphByName(flags.GetString("graph", "mesh"),
                                     static_cast<int>(*nodes));
  ObsSinks sinks(flags);
  if (!RejectUnknownFlags(flags)) return 2;
  if (app.num_nodes() > m) {
    std::fprintf(stderr, "graph needs %d nodes but matrix has %d instances\n",
                 app.num_nodes(), m);
    return 2;
  }
  if (spec->objective.price_weight > 0) {
    // A saved matrix carries no host identities; derive a deterministic
    // price per matrix row from the provider profile's price model.
    const net::ProviderProfile profile = ProviderByName(provider);
    spec->objective.instance_prices.reserve(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      spec->objective.instance_prices.push_back(
          net::InstancePrice(profile, i));
    }
  }
  const obs::ObsConfig obs_config = sinks.Config();
  deploy::SolveContext context(Deadline::After(spec->time_budget_s));
  context.set_max_threads(spec->threads);
  obs::Span solve_span(obs_config.tracer, "cli.solve", "cli");
  if (obs_config.tracer != nullptr) {
    context.set_obs(obs_config.tracer, solve_span.id(), spec->method);
  }
  auto result = deploy::SolveNodeDeploymentByName(
      app, loaded->costs, spec->method, *spec, context);
  solve_span.End();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!sinks.Dump()) return 1;
  std::printf("graph %s, %s / %s: cost %.4f ms%s after %.1f s\n",
              app.ToString().c_str(),
              deploy::SolverRegistry::Global().Find(spec->method)->display_name(),
              deploy::ObjectiveName(spec->objective.primary), result->cost,
              result->proven_optimal ? " (optimal)" : "",
              result->trace.empty() ? 0.0 : result->trace.back().seconds);
  for (size_t i = 0; i < result->deployment.size(); ++i) {
    std::printf("  node %3zu -> instance %3d\n", i, result->deployment[i]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = cloudia::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (flags->positional().empty() || flags->Has("help")) {
    PrintUsage();
    return flags->Has("help") ? 0 : 2;
  }
  const std::string& mode = flags->positional()[0];
  if (mode == "advise") return RunAdvise(*flags);
  if (mode == "measure") return RunMeasure(*flags);
  if (mode == "solve") return RunSolve(*flags);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  PrintUsage();
  return 2;
}
