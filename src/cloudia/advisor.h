// ClouDiA's one-shot entry point: the deployment-tuning pipeline of paper
// Fig. 3 -- allocate instances (with over-allocation), measure pairwise
// latencies, search for a deployment plan, terminate the extra instances --
// in a single call. A thin wrapper over the staged cloudia::DeploymentSession
// (cloudia/session.h), which is the API to reach for when one measurement
// should serve several solves (different methods, objectives, budgets, or
// application graphs), or when a long search needs progress reporting and
// cancellation.
//
// One-shot quickstart:
//   net::CloudSimulator cloud(net::AmazonEc2Profile(), /*seed=*/42);
//   graph::CommGraph app = graph::Mesh2D(10, 10);
//   cloudia::Advisor advisor(&cloud, {});
//   auto report = advisor.Run(app);
//   // report->placement holds the instance for each application node.
//
// Staged equivalent, measuring once and comparing two solvers:
//   cloudia::DeploymentSession session(&cloud, &app, {});
//   auto st = session.Measure();                  // allocates, then probes
//   cloudia::SolveSpec spec;
//   spec.method = "cp";
//   auto cp = session.Solve(spec);                // uses the cached matrix
//   spec.method = "g2";
//   auto g2 = session.Solve(spec);                // no re-measurement
//   auto terminated = session.Terminate();        // keeps the best plan
#ifndef CLOUDIA_CLOUDIA_ADVISOR_H_
#define CLOUDIA_CLOUDIA_ADVISOR_H_

#include <string>
#include <vector>

#include "cloudia/session.h"
#include "common/result.h"
#include "netsim/cloud.h"

namespace cloudia {

/// Tuning knobs of the pipeline: the session's allocation and measurement
/// options plus the one solve. The defaults follow the paper's evaluation
/// setup (10% over-allocation, staged measurement, mean-latency metric, CP
/// with k=20 cost clusters for longest link). The session and the solve
/// carry their own seeds. `solve.app` must stay null: Run() solves for the
/// graph it is given.
struct AdvisorConfig {
  SessionOptions session;
  SolveSpec solve;
};

/// Everything the pipeline produced, including the baseline the paper
/// compares against (the default deployment: first n instances in
/// allocation order, identity mapping).
struct AdvisorReport {
  /// All allocated instances (node count * (1 + over_allocation)).
  std::vector<net::Instance> allocated;
  /// Optimized plan: node i runs on placement[i].
  std::vector<net::Instance> placement;
  /// Baseline plan: node i runs on allocated[i].
  std::vector<net::Instance> default_placement;
  /// Instances terminated after the search (the over-allocated extras).
  std::vector<net::Instance> terminated;

  /// Deployment costs under the measured cost matrix (ms).
  double optimized_cost_ms = 0.0;
  double default_cost_ms = 0.0;
  /// (default - optimized) / default; the headline Fig. 12 quantity is the
  /// analogous reduction in application runtime.
  double predicted_improvement = 0.0;

  /// Virtual time the network measurement occupied the instances (s).
  double measure_virtual_s = 0.0;
  /// Wall-clock time the solver ran (s).
  double search_wall_s = 0.0;
  /// Solver convergence trace and optimality flag.
  deploy::NdpSolveResult solve;

  std::string ToString() const;
};

/// The deployment advisor. Holds a non-owning pointer to the cloud; one
/// Advisor can run multiple applications against the same cloud. Each Run()
/// drives a fresh DeploymentSession end to end.
class Advisor {
 public:
  Advisor(net::CloudSimulator* cloud, AdvisorConfig config);

  /// Executes allocate -> measure -> search -> terminate for `app_graph`.
  Result<AdvisorReport> Run(const graph::CommGraph& app_graph);

  const AdvisorConfig& config() const { return config_; }

 private:
  net::CloudSimulator* cloud_;
  AdvisorConfig config_;
};

}  // namespace cloudia

#endif  // CLOUDIA_CLOUDIA_ADVISOR_H_
