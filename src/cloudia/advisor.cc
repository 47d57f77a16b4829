#include "cloudia/advisor.h"

#include <utility>

#include "common/check.h"

namespace cloudia {

Advisor::Advisor(net::CloudSimulator* cloud, AdvisorConfig config)
    : cloud_(cloud), config_(std::move(config)) {
  CLOUDIA_CHECK(cloud != nullptr);
}

Result<AdvisorReport> Advisor::Run(const graph::CommGraph& app_graph) {
  if (config_.solve.app != nullptr) {
    return Status::InvalidArgument(
        "AdvisorConfig::solve.app must be null: Run() solves for its argument");
  }
  DeploymentSession session(cloud_, &app_graph, config_.session);
  CLOUDIA_ASSIGN_OR_RETURN(SessionSolve solve, session.Solve(config_.solve));
  CLOUDIA_ASSIGN_OR_RETURN(std::vector<net::Instance> terminated,
                           session.Terminate(solve));

  AdvisorReport report;
  report.allocated = session.allocated();
  report.placement = std::move(solve.placement);
  const int n = app_graph.num_nodes();
  report.default_placement.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    report.default_placement.push_back(report.allocated[static_cast<size_t>(i)]);
  }
  report.terminated = std::move(terminated);
  report.optimized_cost_ms = solve.cost_ms;
  report.default_cost_ms = solve.default_cost_ms;
  report.predicted_improvement = solve.predicted_improvement;
  report.measure_virtual_s = session.measure_virtual_s();
  report.search_wall_s = solve.wall_s;
  report.solve = std::move(solve.result);
  return report;
}

}  // namespace cloudia
