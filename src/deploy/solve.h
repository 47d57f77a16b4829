// Facade over all node-deployment search methods (paper Sect. 4): one entry
// point that dispatches by name through the SolverRegistry
// (deploy/solver_registry.h) to greedy (G1/G2), randomized (R1/R2), CP
// threshold descent, the MIP encodings, or any solver registered at startup,
// honoring the paper's method/objective compatibility (CP is only formulated
// for LLNDP, Sect. 4.4; greedy solves LLNDP and serves as a heuristic for
// LPNDP, Sect. 4.5.2).
//
// NdpSolveOptions is the one declaration of the solver knobs: the staged
// session's cloudia::SolveSpec extends it, and every front end validates it
// through ValidateSolveOptions.
#ifndef CLOUDIA_DEPLOY_SOLVE_H_
#define CLOUDIA_DEPLOY_SOLVE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "deploy/solver.h"
#include "deploy/solver_result.h"

namespace cloudia::deploy {

struct NdpSolveOptions {
  /// Primary latency objective plus optional weighted price / migration
  /// terms (deploy/cost.h). A bare Objective enum converts implicitly to the
  /// degenerate latency-only spec, which is bit-identical to the pre-spec
  /// behavior.
  ObjectiveSpec objective;
  /// Wall-clock budget for R2 / CP / MIP (ignored by G1/G2/R1); finite and
  /// >= 0. Ignored by the SolveContext overload, whose context carries the
  /// deadline.
  double time_budget_s = 60.0;
  /// k-means cost clusters for CP / MIP; 0 = no clustering. The paper's best
  /// configuration is k=20 for LLNDP-CP and no clustering for LPNDP-MIP.
  int cost_clusters = 0;
  /// Samples for R1 (the paper uses 1,000).
  int r1_samples = 1000;
  /// Worker threads for R2 and the portfolio; 0 = hardware concurrency.
  int threads = 0;
  /// Member solvers for the portfolio (registry names); empty selects the
  /// default set ("cp", "mip", "local", "r2"). Ignored by other methods.
  std::vector<std::string> portfolio_members;
  uint64_t seed = 1;
  /// Optional starting deployment for CP / MIP (empty = best of 10 random).
  Deployment initial;
  /// CP: warm-start iterations with the previous solution's values.
  bool warm_start_hints = false;
  /// Hier: instance clusters to decompose into; 0 = auto (latency-threshold
  /// derived). Ignored by other methods.
  int hier_clusters = 0;
  /// Hier: registry name of the per-shard solver; empty = "local". Any
  /// registered solver except "hier" itself works (cp, mip, portfolio, ...).
  std::string hier_shard_solver;
  /// Hier: accepted-step budget for the cross-shard boundary polish.
  int hier_polish_steps = 2000;
};

/// Checks every knob against its valid range: a finite, non-negative time
/// budget, non-negative thread and cluster counts, at least one R1 sample, a
/// non-negative hier polish budget, and finite, non-negative objective
/// weights (ValidateObjectiveWeights). The error names the field as the
/// front ends spell it and its valid range. Does not check the registry
/// names (method, portfolio members, hier shard solver).
Status ValidateSolveOptions(const NdpSolveOptions& options);

/// Runs the solver registered under `method` (case-insensitive registry key
/// or display name) under `context` (deadline, cancellation, progress).
/// Fails on an unknown name, on invalid input, or on method/objective
/// combinations the paper does not define (CP for LPNDP).
Result<NdpSolveResult> SolveNodeDeploymentByName(const graph::CommGraph& graph,
                                                 const CostMatrix& costs,
                                                 std::string_view method,
                                                 const NdpSolveOptions& options,
                                                 SolveContext& context);

/// Convenience overload: budget-only context built from
/// `options.time_budget_s`, no cancellation, no progress callback.
Result<NdpSolveResult> SolveNodeDeploymentByName(const graph::CommGraph& graph,
                                                 const CostMatrix& costs,
                                                 std::string_view method,
                                                 const NdpSolveOptions& options);

}  // namespace cloudia::deploy

#endif  // CLOUDIA_DEPLOY_SOLVE_H_
