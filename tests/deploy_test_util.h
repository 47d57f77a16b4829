// Shared helpers for the deployment-solver tests.
#ifndef CLOUDIA_TESTS_DEPLOY_TEST_UTIL_H_
#define CLOUDIA_TESTS_DEPLOY_TEST_UTIL_H_

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "deploy/cost.h"
#include "deploy/solver_registry.h"

namespace cloudia::deploy {

/// Display name of a registered solver ("g1" -> "G1"), for parameterized
/// test names and failure messages.
inline std::string SolverDisplayName(const std::string& method) {
  return SolverRegistry::Global().Find(method)->display_name();
}

/// Random symmetric-ish cost matrix in [lo, hi] ms with zero diagonal.
inline CostMatrix RandomCosts(int m, Rng& rng, double lo = 0.2,
                              double hi = 1.4, double asymmetry = 0.02) {
  CostMatrix c(m);
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      double base = rng.Uniform(lo, hi);
      c.At(i, j) = base + rng.Uniform(-asymmetry, asymmetry);
      c.At(j, i) = base + rng.Uniform(-asymmetry, asymmetry);
    }
  }
  return c;
}

/// Exhaustive optimum over all injections (use only for tiny instances).
inline double BruteForceOptimum(const graph::CommGraph& graph,
                                const CostMatrix& costs, Objective objective) {
  auto eval = CostEvaluator::Create(&graph, &costs, objective);
  CLOUDIA_CHECK(eval.ok());
  int n = graph.num_nodes();
  int m = costs.size();
  Deployment d(static_cast<size_t>(n), -1);
  std::vector<bool> used(static_cast<size_t>(m), false);
  double best = std::numeric_limits<double>::infinity();
  std::function<void(int)> rec = [&](int node) {
    if (node == n) {
      best = std::min(best, eval->Cost(d));
      return;
    }
    for (int j = 0; j < m; ++j) {
      if (used[static_cast<size_t>(j)]) continue;
      used[static_cast<size_t>(j)] = true;
      d[static_cast<size_t>(node)] = j;
      rec(node + 1);
      used[static_cast<size_t>(j)] = false;
    }
  };
  rec(0);
  return best;
}

}  // namespace cloudia::deploy

#endif  // CLOUDIA_TESTS_DEPLOY_TEST_UTIL_H_
