// solve-exact: closed loop, one client, solver threads = 1. Set-up
// measures the environments' cost matrices (counted in setup_s); every
// request then solves one problem to a proven optimum under a fixed cap
// through deploy::SolveNodeDeploymentByName ("cp", "mip") or
// hier::SolveHierarchical. Time to proof moves directly with propagation
// and LP speed, where a budget-bound solve would hide a gain inside its
// fixed wall time. A solve that hits the cap is recorded at the cap.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "deploy/solve.h"
#include "graph/templates.h"
#include "hier/cost_source.h"
#include "hier/solver.h"
#include "measure/probe_engine.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace deploy = cloudia::deploy;
namespace graph = cloudia::graph;
namespace hier = cloudia::hier;
namespace measure = cloudia::measure;
namespace net = cloudia::net;
namespace obs = cloudia::obs;

namespace {

const char* const kProviders[] = {"ec2", "gce", "rackspace"};
constexpr int kCpPool = 14;
constexpr int kMipPool = 8;
constexpr int kHierPool = 440;
constexpr int kHierNodes = 400;
/// Per-solve wall cap; a solve that reaches it counts at the cap.
constexpr double kCapS = 2.0;
/// Wall time of one block of requests on the reference machine; a run does
/// ceil(seconds / this) blocks.
constexpr double kNominalBlockS = 1.8;

enum class Kind { kCp, kMipLongestLink, kMipLongestPath, kHier };

struct Env {
  std::string provider;
  deploy::CostMatrix costs;
};

struct Setup {
  std::vector<Env> cp_envs;   // one per provider
  std::vector<Env> mip_envs;  // one per provider
  std::unique_ptr<net::CloudSimulator> hier_cloud;
  std::vector<net::Instance> hier_pool;
  deploy::CostMatrix hier_costs;  // for the output checks only
};

struct SolveRequest {
  Kind kind = Kind::kCp;
  std::string cls;
  int env = 0;
  std::vector<int> subset;  // instance indexes into the environment pool
  graph::CommGraph app;
  int clusters = 0;
  uint64_t seed = 1;
};

Env MeasureEnv(const std::string& provider, int instances, uint64_t seed,
               obs::Tracer* tracer, LayerMetrics& layers, Report& report) {
  Env env;
  env.provider = provider;
  obs::Span root(tracer, "setup.measure", "request");
  if (tracer != nullptr) tracer->AddArg(root.id(), obs::Arg("class", "setup"));
  net::CloudSimulator cloud(Provider(provider), seed);
  std::vector<net::Instance> pool;
  {
    obs::Span span(tracer, "netsim.allocate", "netsim", root.id());
    auto allocated = cloud.Allocate(instances);
    if (!allocated.ok()) {
      report.Fail("setup", allocated.status().ToString());
      return env;
    }
    pool = std::move(*allocated);
  }
  measure::ProtocolOptions popts;
  popts.seed = measure::MeasurementProtocolSeed(seed);
  popts.duration_s = measure::DefaultMeasureDurationS(pool.size());
  cloudia::Result<measure::MeasurementResult> measured =
      cloudia::Status::Internal("not run");
  {
    obs::Span span(tracer, "measure.staged", "measure", root.id());
    measured = measure::RunProtocol(cloud, pool, measure::Protocol::kStaged,
                                    popts);
  }
  if (!measured.ok()) {
    report.Fail("setup", measured.status().ToString());
    return env;
  }
  layers.measure_rtt_samples += measured->total_samples();
  layers.measure_virtual_s += measured->virtual_time_ms / 1e3;
  measure::CostMatrixCoverage coverage;
  {
    obs::Span span(tracer, "matrix.build", "measure", root.id());
    auto built = measure::BuildCostMatrix(*measured, measure::CostMetric::kMean,
                                          {}, &coverage);
    if (!built.ok()) {
      report.Fail("setup", built.status().ToString());
      return env;
    }
    env.costs = std::move(*built);
  }
  layers.measure_coverage = std::min(layers.measure_coverage, coverage.fraction());
  CheckCoverage(report, "solve-exact env " + provider, env.costs);
  return env;
}

/// Measures the fixed environment catalog: the matrices every seed's
/// problems are cut from, so the seed changes the problems, not how hard
/// the clouds behind them are.
Setup RunSetup(obs::Tracer* tracer, LayerMetrics& layers, Report& report) {
  Setup setup;
  Gen gen(0x5e7u);
  for (const char* provider : kProviders) {
    setup.cp_envs.push_back(MeasureEnv(provider, kCpPool, gen.Next() % 1000003,
                                       tracer, layers, report));
    setup.mip_envs.push_back(MeasureEnv(provider, kMipPool,
                                        gen.Next() % 1000003, tracer, layers,
                                        report));
  }
  setup.hier_cloud = std::make_unique<net::CloudSimulator>(
      Provider(kProviders[gen.Below(3)]), gen.Next() % 1000003);
  // One allocation call spans a few racks of one pod; the pool is four.
  for (int part = 0; part < 4; ++part) {
    auto pool = setup.hier_cloud->Allocate(kHierPool / 4);
    if (!pool.ok()) {
      report.Fail("setup", pool.status().ToString());
      return setup;
    }
    setup.hier_pool.insert(setup.hier_pool.end(), pool->begin(), pool->end());
  }
  auto rows = deploy::CostMatrix::FromRows(
      setup.hier_cloud->ExpectedRttMatrix(setup.hier_pool));
  if (!rows.ok()) {
    report.Fail("setup", rows.status().ToString());
    return setup;
  }
  setup.hier_costs = std::move(*rows);
  return setup;
}

/// Random subset of `size` distinct indexes from [0, pool), in seeded order.
std::vector<int> Subset(Gen& gen, int pool, int size) {
  std::vector<int> all(static_cast<size_t>(pool));
  for (int i = 0; i < pool; ++i) all[static_cast<size_t>(i)] = i;
  for (int i = pool; i > 1; --i) {
    std::swap(all[static_cast<size_t>(i - 1)],
              all[static_cast<size_t>(gen.Below(i))]);
  }
  all.resize(static_cast<size_t>(size));
  return all;
}

/// One block: the request classes in fixed proportion, instances drawn
/// from the seed. CP and MIP each take roughly 40% of a block's solve time
/// on the reference machine, hier the rest.
void AddBlock(Gen& gen, std::vector<SolveRequest>& out) {
  const size_t first = out.size();
  auto add = [&](Kind kind, std::string cls, int pool, int size,
                 graph::CommGraph app, int clusters) {
    const int env = gen.Below(3);
    std::vector<int> subset;
    if (pool > 0) subset = Subset(gen, pool, size);
    const uint64_t seed = gen.Next() % 1000003;
    out.push_back(SolveRequest{kind, std::move(cls), env, std::move(subset),
                               std::move(app), clusters, seed});
  };
  // CP instances stay small (9-10 nodes on 11-12 instances): time to
  // proof is heavy-tailed, and past ~12 nodes single instances run for
  // seconds and dominate a run.
  for (int rep = 0; rep < 45; ++rep) {
    add(Kind::kCp, "cp-mesh", kCpPool, 12, graph::Mesh2D(2, 5), 0);
    add(Kind::kCp, "cp-mesh-k20", kCpPool, 11, graph::Mesh2D(3, 3), 20);
    add(Kind::kCp, "cp-ring", kCpPool, 12, graph::Ring(10), 0);
    add(Kind::kCp, "cp-ring-k20", kCpPool, 12, graph::Ring(10), 20);
  }
  for (int rep = 0; rep < 3; ++rep) {
    add(Kind::kMipLongestLink, "mip-ll-2x2", kMipPool, 6, graph::Mesh2D(2, 2),
        0);
  }
  add(Kind::kMipLongestLink, "mip-ll-2x2-m7", kMipPool, 7,
      graph::Mesh2D(2, 2), 0);
  for (int rep = 0; rep < 2; ++rep) {
    add(Kind::kMipLongestPath, "mip-lp-tree", kMipPool, 6 + gen.Below(3),
        graph::AggregationTree(2, 2), 0);
  }
  add(Kind::kHier, "hier-440", 0, 0, MakeGraph("mesh", kHierNodes), 0);
  // Seeded order within the block.
  for (size_t i = out.size(); i > first + 1; --i) {
    std::swap(out[i - 1],
              out[first + static_cast<size_t>(gen.Below(static_cast<int>(i - first)))]);
  }
}

deploy::CostMatrix SubMatrix(const deploy::CostMatrix& costs,
                             const std::vector<int>& subset) {
  const int m = static_cast<int>(subset.size());
  deploy::CostMatrix out(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      out.At(i, j) = costs.At(subset[static_cast<size_t>(i)],
                              subset[static_cast<size_t>(j)]);
    }
  }
  return out;
}

struct SolveOutcome {
  bool ok = false;
  std::string error;
  deploy::NdpSolveResult result;
  hier::HierStats hier;
  double wall_s = 0.0;
};

deploy::NdpSolveOptions FlatOptions(const SolveRequest& r) {
  deploy::NdpSolveOptions opts;
  opts.objective = r.kind == Kind::kMipLongestPath
                       ? deploy::Objective::kLongestPath
                       : deploy::Objective::kLongestLink;
  opts.cost_clusters = r.clusters;
  opts.threads = 1;
  opts.seed = r.seed;
  return opts;
}

SolveOutcome SolveFlat(const graph::CommGraph& app,
                       const deploy::CostMatrix& costs, const char* method,
                       const deploy::NdpSolveOptions& opts) {
  SolveOutcome out;
  deploy::SolveContext context(cloudia::Deadline::After(kCapS));
  context.set_max_threads(1);
  const double t0 = NowS();
  auto solved =
      deploy::SolveNodeDeploymentByName(app, costs, method, opts, context);
  out.wall_s = NowS() - t0;
  if (!solved.ok()) {
    out.error = solved.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = std::move(*solved);
  return out;
}

SolveOutcome SolveHier(const SolveRequest& r, const Setup& setup) {
  SolveOutcome out;
  const net::CloudSimulator* cloud = setup.hier_cloud.get();
  const std::vector<net::Instance>* pool = &setup.hier_pool;
  hier::CallbackCostSource source(
      static_cast<int>(pool->size()), [cloud, pool](int i, int j) {
        return i == j ? 0.0
                      : cloud->ExpectedRtt((*pool)[static_cast<size_t>(i)],
                                           (*pool)[static_cast<size_t>(j)]);
      });
  hier::HierOptions opts;
  opts.threads = 1;
  opts.seed = r.seed;
  deploy::SolveContext context(cloudia::Deadline::After(kCapS));
  context.set_max_threads(1);
  const double t0 = NowS();
  auto solved = hier::SolveHierarchical(
      r.app, source, deploy::Objective::kLongestLink, opts, context);
  out.wall_s = NowS() - t0;
  if (!solved.ok()) {
    out.error = solved.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = std::move(solved->result);
  out.hier = solved->stats;
  return out;
}

int BlocksFor(double seconds) {
  return std::max(1, static_cast<int>(seconds / kNominalBlockS + 0.999));
}

}  // namespace

void RunSolveExact(const RunConfig& config, Report& report) {
  // Set-up; the traced run records it (its measurement counts are exact).
  std::unique_ptr<obs::Tracer> tracer;
  if (config.trace) tracer = std::make_unique<obs::Tracer>();
  LayerMetrics layers;
  layers.measure_coverage = 1.0;
  const double t0 = NowS();
  const Setup setup = RunSetup(tracer.get(), layers, report);
  const double setup_s = NowS() - t0;
  std::vector<SolveRequest> requests;
  Gen gen(config.seed);
  for (int b = 0, blocks = BlocksFor(config.seconds); b < blocks; ++b) {
    AddBlock(gen, requests);
  }

  std::vector<double> latencies, costs;
  std::map<std::string, std::vector<double>> by_class;
  std::map<std::string, int> proven_by_class;
  // Request wall time: the solve calls only, so the checks below (the CP
  // cross-check included) never count against throughput.
  double request_s = 0.0;
  for (const SolveRequest& r : requests) {
    ++report.attempted;
    const std::string where = r.cls + " seed " + std::to_string(r.seed);
    const bool flat = r.kind != Kind::kHier;
    const char* method = r.kind == Kind::kCp ? "cp" : "mip";
    deploy::CostMatrix costs_for_check;
    SolveOutcome out;
    const double t0 = NowS();
    {
      obs::Span root(tracer.get(), "solve", "request");
      if (tracer != nullptr) {
        tracer->AddArg(root.id(), obs::Arg("class", r.cls));
      }
      if (flat) {
        const std::vector<Env>& envs =
            r.kind == Kind::kCp ? setup.cp_envs : setup.mip_envs;
        costs_for_check = SubMatrix(envs[static_cast<size_t>(r.env)].costs,
                                    r.subset);
        obs::Span span(tracer.get(), std::string("solve.") + method, "solver",
                       root.id());
        out = SolveFlat(r.app, costs_for_check, method, FlatOptions(r));
      } else {
        obs::Span span(tracer.get(), "solve.hier", "hier", root.id());
        out = SolveHier(r, setup);
      }
    }
    request_s += NowS() - t0;
    if (!out.ok) {
      ++report.failed;
      std::fprintf(stderr, "%s failed: %s\n", where.c_str(), out.error.c_str());
      continue;
    }
    const double latency = std::min(out.wall_s, kCapS);
    latencies.push_back(latency);
    by_class[r.cls].push_back(latency);
    costs.push_back(out.result.cost);
    const bool proven = out.result.proven_optimal;
    if (proven) ++proven_by_class[r.cls];

    const deploy::NdpSolveOptions opts = FlatOptions(r);
    CheckPlan(report, where, r.app, out.result.deployment,
              flat ? costs_for_check : setup.hier_costs,
              flat ? opts.objective.primary : deploy::Objective::kLongestLink,
              out.result.cost);
    switch (r.kind) {
      case Kind::kCp:
        layers.cp_busy_s += out.wall_s;
        layers.cp_iterations += out.result.iterations;
        ++layers.cp_solves;
        layers.cp_proven += proven ? 1 : 0;
        break;
      case Kind::kMipLongestLink:
      case Kind::kMipLongestPath:
        layers.mip_busy_s += out.wall_s;
        layers.mip_bb_nodes += out.result.iterations;
        ++layers.mip_solves;
        layers.mip_proven += proven ? 1 : 0;
        break;
      case Kind::kHier:
        layers.hier_busy_s += out.wall_s;
        layers.hier_decompose_s += out.hier.decompose_s;
        layers.hier_shard_s += out.hier.shard_s;
        layers.hier_polish_s += out.hier.polish_s;
        layers.hier_shards += out.hier.shards;
        break;
    }
    // Cross-check (untimed): on LLNDP problems both exact solvers prove,
    // CP and MIP must agree on the optimum.
    if (r.kind == Kind::kMipLongestLink && proven) {
      const SolveOutcome cp = SolveFlat(r.app, costs_for_check, "cp", opts);
      if (cp.ok && cp.result.proven_optimal &&
          cp.result.cost != out.result.cost) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s: cp %.17g ms vs mip %.17g ms",
                      where.c_str(), cp.result.cost, out.result.cost);
        report.Fail("cp_mip_agree", buf);
      }
    }
  }
  for (const auto& [cls, values] : by_class) {
    std::printf("  class %-14s %3zu requests, median %.4f s, max %.4f s, "
                "%d proven\n",
                cls.c_str(), values.size(), Median(values),
                *std::max_element(values.begin(), values.end()),
                proven_by_class[cls]);
  }

  if (!config.trace) {
    ReportEndToEnd(report, "solve-exact", setup_s, latencies, costs,
                   request_s);
    return;
  }
  Ledger ledger;
  ledger.AddTracer(*tracer);
  layers.netsim_allocate_s = ledger.BusyS("netsim.allocate");
  layers.measure_busy_s = ledger.BusyS("measure.staged");
  layers.matrix_build_s = ledger.BusyS("matrix.build");
  // Span overhead: traced request wall over the solver-reported wall.
  const double solver_s = layers.cp_busy_s + layers.mip_busy_s +
                          layers.hier_busy_s;
  layers.trace_overhead_frac = solver_s > 0 ? request_s / solver_s - 1.0 : 0.0;
  ReportLayers(report, config, layers, ledger);
}

}  // namespace perfbench
