#include "deploy/solve.h"

#include <cmath>

#include "common/check.h"
#include "common/table.h"
#include "deploy/solver_registry.h"

namespace cloudia::deploy {

Status ValidateSolveOptions(const NdpSolveOptions& options) {
  if (!std::isfinite(options.time_budget_s) || options.time_budget_s < 0) {
    return Status::InvalidArgument(
        StrFormat("budget=%g: time budget must be finite and >= 0 seconds "
                  "(valid range: [0, inf))",
                  options.time_budget_s));
  }
  if (options.threads < 0) {
    return Status::InvalidArgument(
        StrFormat("threads=%d: thread count cannot be negative (valid range: "
                  "[0, inf); 0 = hardware concurrency)",
                  options.threads));
  }
  if (options.cost_clusters < 0) {
    return Status::InvalidArgument(
        StrFormat("clusters=%d: cost cluster count must be >= 0 (valid "
                  "range: [0, inf); 0 = no clustering)",
                  options.cost_clusters));
  }
  if (options.r1_samples < 1) {
    return Status::InvalidArgument(
        StrFormat("r1-samples=%d: R1 needs at least one sample (valid range: "
                  "[1, inf))",
                  options.r1_samples));
  }
  if (options.hier_clusters < 0) {
    return Status::InvalidArgument(
        StrFormat("hier-clusters=%d: cluster count must be >= 0 (valid "
                  "range: [0, inf); 0 = auto)",
                  options.hier_clusters));
  }
  if (options.hier_polish_steps < 0) {
    return Status::InvalidArgument(
        StrFormat("hier-polish-steps=%d: step budget must be >= 0 (valid "
                  "range: [0, inf))",
                  options.hier_polish_steps));
  }
  return ValidateObjectiveWeights(options.objective);
}

Result<NdpSolveResult> SolveNodeDeploymentByName(const graph::CommGraph& graph,
                                                 const CostMatrix& costs,
                                                 std::string_view method,
                                                 const NdpSolveOptions& options,
                                                 SolveContext& context) {
  // Validate objective/graph compatibility up front.
  CLOUDIA_RETURN_IF_ERROR(
      CostEvaluator::Create(&graph, &costs, options.objective).status());

  CLOUDIA_ASSIGN_OR_RETURN(const NdpSolver* solver,
                           SolverRegistry::Global().Require(method));
  if (!solver->Supports(options.objective.primary)) {
    return Status::InvalidArgument(
        std::string(solver->display_name()) + " is not formulated for the " +
        ObjectiveName(options.objective) +
        " objective (see paper Sect. 4.4 for the CP/LPNDP case)");
  }

  NdpProblem problem;
  problem.graph = &graph;
  problem.costs = &costs;
  problem.objective = options.objective;
  return solver->Solve(problem, options, context);
}

Result<NdpSolveResult> SolveNodeDeploymentByName(
    const graph::CommGraph& graph, const CostMatrix& costs,
    std::string_view method, const NdpSolveOptions& options) {
  SolveContext context(Deadline::After(options.time_budget_s));
  return SolveNodeDeploymentByName(graph, costs, method, options, context);
}

}  // namespace cloudia::deploy
