// advise-cold: closed loop, one client. Every request is a full advise on
// a fresh environment -- allocate, staged measurement at the paper's
// default duration, mean cost matrix, one "local" solve -- through
// cloudia::DeploymentSession. The untraced run repeats its requests in
// rounds and keeps each request's best round. The traced run drives the
// same requests layer by layer (CloudSimulator::Allocate,
// measure::RunProtocol, measure::BuildCostMatrix,
// deploy::SolveNodeDeploymentByName) with a span around each call, and
// checks that both paths agree bit for bit.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cloudia/session.h"
#include "deploy/solve.h"
#include "measure/probe_engine.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace deploy = cloudia::deploy;
namespace graph = cloudia::graph;
namespace measure = cloudia::measure;
namespace net = cloudia::net;
namespace obs = cloudia::obs;

namespace {

constexpr int kNodes[] = {20, 30, 50};
constexpr int kInstances[] = {22, 33, 55};
const char* const kProviders[] = {"ec2", "gce", "rackspace"};
const char* const kGraphs[] = {"mesh", "tree", "ring"};
/// Wall cap of the local solve (it stops at its local optimum long before).
constexpr double kSolveCapS = 30.0;

struct AdviseRequest {
  std::string provider;
  int nodes = 0;
  int instances = 0;
  std::string graph;
  uint64_t env_seed = 0;
  uint64_t solve_seed = 0;
  std::string Class() const {
    return provider + "/" + std::to_string(instances);
  }
};

/// Blocks of 9 requests (3 sizes x 3 providers) in seeded order; graphs
/// rotate as a Latin square (at a seeded offset) so every block holds each
/// graph 3 times. The clouds come from a fixed catalog, one per size and
/// provider: per-seed clouds changed a request's measurement time by up to
/// 40% (gce/55: 1.47 to 2.02 s, best of 4 rounds), which would swamp any
/// change in the code. The seed draws the order, the graphs and the solver
/// seeds.
std::vector<AdviseRequest> MakeRequests(uint64_t seed, int blocks) {
  Gen gen(seed);
  const int offset = gen.Below(3);
  std::vector<AdviseRequest> requests;
  for (int b = 0; b < blocks; ++b) {
    Gen catalog(0xc1a55ULL);
    std::vector<AdviseRequest> block;
    for (int s = 0; s < 3; ++s) {
      for (int p = 0; p < 3; ++p) {
        AdviseRequest r;
        r.provider = kProviders[p];
        r.nodes = kNodes[s];
        r.instances = kInstances[s];
        r.graph = kGraphs[(s + p + b + offset) % 3];
        r.env_seed = catalog.Next() % 1000000007ULL;
        r.solve_seed = gen.Next() % 1000000007ULL;
        block.push_back(std::move(r));
      }
    }
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[static_cast<size_t>(gen.Below(static_cast<int>(i)))]);
    }
    for (AdviseRequest& r : block) requests.push_back(std::move(r));
  }
  return requests;
}

struct Outcome {
  bool ok = false;
  std::string error;
  deploy::CostMatrix costs;
  deploy::Deployment plan;
  double cost_ms = 0.0;
};

cloudia::SolveSpec LocalSpec(const AdviseRequest& r) {
  cloudia::SolveSpec spec;
  spec.method = "local";
  spec.threads = 1;
  spec.seed = r.solve_seed;
  spec.time_budget_s = kSolveCapS;
  return spec;
}

/// The user-facing path: one DeploymentSession does the whole advise.
Outcome AdviseBySession(const AdviseRequest& r, const graph::CommGraph& app) {
  Outcome out;
  net::CloudSimulator cloud(Provider(r.provider), r.env_seed);
  cloudia::SessionOptions options;
  options.over_allocation = OverAllocationFor(app.num_nodes(), r.instances);
  options.seed = r.env_seed;
  cloudia::DeploymentSession session(&cloud, &app, options);
  auto solve = session.Solve(LocalSpec(r));
  if (!solve.ok()) {
    out.error = solve.status().ToString();
    return out;
  }
  out.ok = true;
  out.costs = session.costs();
  out.plan = solve->result.deployment;
  out.cost_ms = solve->cost_ms;
  return out;
}

/// The same advise, one public layer call at a time, each under a span.
Outcome AdviseByLayers(const AdviseRequest& r, const graph::CommGraph& app,
                       obs::Tracer& tracer, LayerMetrics& layers) {
  Outcome out;
  obs::Span root(&tracer, "advise", "request");
  tracer.AddArg(root.id(), obs::Arg("class", r.Class()));
  net::CloudSimulator cloud(Provider(r.provider), r.env_seed);

  std::vector<net::Instance> pool;
  {
    obs::Span span(&tracer, "netsim.allocate", "netsim", root.id());
    auto allocated = cloud.Allocate(r.instances);
    if (!allocated.ok()) {
      out.error = allocated.status().ToString();
      return out;
    }
    pool = std::move(*allocated);
  }
  measure::ProtocolOptions popts;
  popts.seed = measure::MeasurementProtocolSeed(r.env_seed);
  popts.duration_s = measure::DefaultMeasureDurationS(pool.size());
  cloudia::Result<measure::MeasurementResult> measured =
      cloudia::Status::Internal("not run");
  {
    obs::Span span(&tracer, "measure.staged", "measure", root.id());
    measured = measure::RunProtocol(cloud, pool, measure::Protocol::kStaged,
                                    popts);
  }
  if (!measured.ok()) {
    out.error = measured.status().ToString();
    return out;
  }
  layers.measure_rtt_samples += measured->total_samples();
  layers.measure_virtual_s += measured->virtual_time_ms / 1e3;

  measure::CostMatrixCoverage coverage;
  {
    obs::Span span(&tracer, "matrix.build", "measure", root.id());
    auto built = measure::BuildCostMatrix(*measured, measure::CostMetric::kMean,
                                          {}, &coverage);
    if (!built.ok()) {
      out.error = built.status().ToString();
      return out;
    }
    out.costs = std::move(*built);
  }
  layers.measure_coverage = std::min(layers.measure_coverage, coverage.fraction());

  const cloudia::SolveSpec spec = LocalSpec(r);
  deploy::NdpSolveOptions sopts;
  sopts.objective = spec.objective;
  sopts.cost_clusters = spec.cost_clusters;
  sopts.r1_samples = spec.r1_samples;
  sopts.threads = spec.threads;
  sopts.seed = spec.seed;
  {
    obs::Span span(&tracer, "solve.local", "deploy", root.id());
    deploy::SolveContext context(cloudia::Deadline::After(spec.time_budget_s));
    context.set_max_threads(spec.threads);
    auto solved = deploy::SolveNodeDeploymentByName(app, out.costs, "local",
                                                    sopts, context);
    if (!solved.ok()) {
      out.error = solved.status().ToString();
      return out;
    }
    out.plan = solved->deployment;
    out.cost_ms = solved->cost;
  }
  out.ok = true;
  return out;
}

void CheckOutcome(Report& report, const AdviseRequest& r,
                  const graph::CommGraph& app, const Outcome& out) {
  const std::string where = "advise " + r.Class() + " " + r.graph +
                            " seed " + std::to_string(r.env_seed);
  CheckCoverage(report, where, out.costs);
  CheckPlan(report, where, app, out.plan, out.costs,
            deploy::Objective::kLongestLink, out.cost_ms);
}

/// Seconds of --seconds per round (every request of the block once). A
/// round takes 6.5-11 s on the reference VM, depending on host load.
constexpr double kNominalRoundS = 10.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

int RoundsFor(double seconds) {
  return std::max(2, static_cast<int>(seconds / kNominalRoundS + 0.5));
}

/// The traced run drives every request twice (layers and session).
int TracedBlocksFor(double seconds) {
  return std::max(1, static_cast<int>(seconds / (2 * kNominalRoundS)));
}

}  // namespace

void RunAdviseCold(const RunConfig& config, Report& report) {
  // Set-up: generate the requests and warm the allocator and code paths
  // with one small advise. It runs kSetups times; setup_s is the median.
  const int blocks = config.trace ? TracedBlocksFor(config.seconds) : 1;
  std::vector<AdviseRequest> requests;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = NowS();
    requests = MakeRequests(config.seed, blocks);
    AdviseRequest warm = requests.front();
    warm.provider = "ec2";
    warm.nodes = kNodes[0];
    warm.instances = kInstances[0];
    warm.graph = "mesh";
    warm.env_seed = 1000003ULL + static_cast<uint64_t>(k);
    const Outcome warmed =
        AdviseBySession(warm, MakeGraph(warm.graph, warm.nodes));
    if (!warmed.ok) {
      report.Fail("setup", "warm-up advise failed: " + warmed.error);
    }
    setups.push_back(NowS() - t0);
  }
  const double setup_s = Median(setups);

  if (!config.trace) {
    // Untraced: the block's requests run in rounds, each a full cold
    // advise on a fresh simulator, and a request's latency is its best
    // round. Interference from the rest of a shared host only ever adds
    // time, so the best of rounds spread over the run drops its short
    // bursts (slow phases of a minute or more remain; see README.md).
    // Every round must reproduce the first bit for bit.
    const int rounds = RoundsFor(config.seconds);
    std::vector<double> best(requests.size(), 0.0), costs;
    std::vector<Outcome> first(requests.size());
    std::vector<bool> ok(requests.size(), false);
    const double start = NowS();
    for (int round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < requests.size(); ++i) {
        const AdviseRequest& r = requests[i];
        if (round > 0 && !ok[i]) continue;
        const graph::CommGraph app = MakeGraph(r.graph, r.nodes);
        const double t0 = NowS();
        Outcome out = AdviseBySession(r, app);
        const double latency = NowS() - t0;
        if (round == 0) {
          ++report.attempted;
          if (!out.ok) {
            ++report.failed;
            std::fprintf(stderr, "advise %s failed: %s\n", r.Class().c_str(),
                         out.error.c_str());
            continue;
          }
          CheckOutcome(report, r, app, out);
          costs.push_back(out.cost_ms);
          best[i] = latency;
          ok[i] = true;
          first[i] = std::move(out);
          continue;
        }
        if (!out.ok || !(out.costs == first[i].costs) ||
            out.plan != first[i].plan || out.cost_ms != first[i].cost_ms) {
          report.Fail("repeat_identical",
                      r.Class() + ": round " + std::to_string(round) +
                          " differs from round 0" +
                          (out.ok ? "" : ": " + out.error));
          continue;
        }
        best[i] = std::min(best[i], latency);
      }
    }
    const double wall = NowS() - start;
    std::vector<double> latencies;
    double busy = 0.0;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!ok[i]) continue;
      latencies.push_back(best[i]);
      busy += best[i];
      std::printf("  request %-14s %-4s best of %d %.4f s\n",
                  requests[i].Class().c_str(), requests[i].graph.c_str(),
                  rounds, best[i]);
    }
    std::printf("advise-cold: %d rounds of %zu requests in %.3f s\n", rounds,
                requests.size(), wall);
    // Closed loop, one client: throughput at the best-round latencies.
    ReportEndToEnd(report, "advise-cold", setup_s, latencies, costs, busy);
    return;
  }

  // Traced run: every request layer by layer under spans, and through the
  // session untraced; the two must agree bit for bit, and their wall-time
  // ratio is the tracing overhead. The order alternates so neither path
  // always runs with warmer caches.
  obs::Tracer tracer;
  LayerMetrics layers;
  layers.measure_coverage = 1.0;
  double traced_s = 0.0, untraced_s = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const AdviseRequest& r = requests[i];
    ++report.attempted;
    const graph::CommGraph app = MakeGraph(r.graph, r.nodes);
    Outcome by_layers, by_session;
    for (int pass = 0; pass < 2; ++pass) {
      const double t0 = NowS();
      if ((pass == 0) == (i % 2 == 0)) {
        by_layers = AdviseByLayers(r, app, tracer, layers);
        traced_s += NowS() - t0;
      } else {
        by_session = AdviseBySession(r, app);
        untraced_s += NowS() - t0;
      }
    }
    if (!by_layers.ok || !by_session.ok) {
      ++report.failed;
      std::fprintf(stderr, "advise %s failed: %s%s\n", r.Class().c_str(),
                   by_layers.error.c_str(), by_session.error.c_str());
      continue;
    }
    CheckOutcome(report, r, app, by_session);
    CheckOutcome(report, r, app, by_layers);
    if (!(by_layers.costs == by_session.costs)) {
      report.Fail("session_matches_layers",
                  r.Class() + ": measured matrices differ");
    }
    if (by_layers.plan != by_session.plan ||
        by_layers.cost_ms != by_session.cost_ms) {
      report.Fail("session_matches_layers",
                  r.Class() + ": local plans or costs differ");
    }
  }
  Ledger ledger;
  ledger.AddTracer(tracer);
  layers.netsim_allocate_s = ledger.BusyS("netsim.allocate");
  layers.measure_busy_s = ledger.BusyS("measure.staged");
  layers.matrix_build_s = ledger.BusyS("matrix.build");
  layers.local_busy_s = ledger.BusyS("solve.local");
  layers.trace_overhead_frac =
      untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0;
  ReportLayers(report, config, layers, ledger);
}

}  // namespace perfbench
