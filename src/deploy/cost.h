// Deployment plans and deployment cost functions (paper Definitions 2-5).
//
// A deployment maps application nodes to instances injectively. The two cost
// classes are:
//   Class 1, longest link (LLNDP): max edge cost -- barrier-synchronized HPC.
//   Class 2, longest path (LPNDP): max root-to-sink path cost sum over an
//   acyclic communication graph -- service call trees.
//
// Cost evaluation is the hot kernel under every search method (greedy,
// random, local, CP threshold descent, MIP bounding): CostEvaluator
// therefore reads the flat row-major CostMatrix (deploy/cost_matrix.h) and
// offers an *incremental* API -- SwapCost/MoveCost and their *Delta forms --
// that prices a local move in O(deg) via precomputed per-node incident-edge
// lists instead of re-scanning all O(E) edges.
#ifndef CLOUDIA_DEPLOY_COST_H_
#define CLOUDIA_DEPLOY_COST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "deploy/cost_matrix.h"
#include "graph/comm_graph.h"

namespace cloudia::deploy {

/// node -> instance index; must be injective (Definition 2).
using Deployment = std::vector<int>;

enum class Objective {
  kLongestLink,  ///< Class 1 (LLNDP)
  kLongestPath,  ///< Class 2 (LPNDP)
};

const char* ObjectiveName(Objective objective);

/// What a solve minimizes: a primary latency objective (the paper's LLNDP /
/// LPNDP) plus optional weighted secondary terms:
///
///   total = latency_ms
///         + price_weight     * sum_v instance_prices[d[v]]     ($/hour)
///         + migration_weight * |{v : d[v] != reference[v]}|    (moves)
///
/// The degenerate spec (both weights zero -- what a bare `Objective`
/// converts to) is bit-identical to the pre-spec latency-only evaluation:
/// every secondary term is skipped, not added-as-zero-and-rounded.
///
/// Comparing a spec against a bare `Objective` compares the primary
/// objective class only (the LLNDP/LPNDP branch every solver takes);
/// comparing two specs compares every field.
struct ObjectiveSpec {
  Objective primary = Objective::kLongestLink;
  /// Weight on the deployment's summed instance price ($/hour); must be
  /// finite and >= 0. Requires `instance_prices` when > 0.
  double price_weight = 0.0;
  /// Weight (ms per move) on the number of nodes placed away from
  /// `reference`; must be finite and >= 0.
  double migration_weight = 0.0;
  /// $/hour per instance, one entry per cost-matrix row. Consulted only
  /// when price_weight > 0 (see netsim/provider.h for the price model).
  std::vector<double> instance_prices;
  /// Reference deployment the migration term counts moves against. Empty
  /// with migration_weight > 0 means the identity deployment (node i ->
  /// instance i, the default placement).
  Deployment reference;

  ObjectiveSpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a bare Objective *is* the
  // degenerate spec; implicit conversion keeps every pre-spec call site
  // source-compatible.
  ObjectiveSpec(Objective primary_objective) : primary(primary_objective) {}

  bool HasSecondaryTerms() const {
    return price_weight > 0.0 || migration_weight > 0.0;
  }
  bool operator==(const ObjectiveSpec&) const = default;
};

inline bool operator==(const ObjectiveSpec& spec, Objective objective) {
  return spec.primary == objective;
}
inline bool operator==(Objective objective, const ObjectiveSpec& spec) {
  return spec.primary == objective;
}
inline bool operator!=(const ObjectiveSpec& spec, Objective objective) {
  return spec.primary != objective;
}
inline bool operator!=(Objective objective, const ObjectiveSpec& spec) {
  return spec.primary != objective;
}

inline const char* ObjectiveName(const ObjectiveSpec& spec) {
  return ObjectiveName(spec.primary);
}

/// Canonical string for cache fingerprints and warm-start keys. Degenerate
/// specs collapse to ObjectiveName(primary) (stable across the enum->spec
/// migration); any secondary term appends the weights plus content hashes of
/// the price vector and reference deployment, so requests differing only in
/// weights (or in the data behind them) never share a key.
std::string ObjectiveSpecKey(const ObjectiveSpec& spec);

/// Rejects a non-finite or negative price or migration weight, naming the
/// weight and its valid range. Needs no matrix, so front ends call it (via
/// ValidateSolveOptions) before allocating anything.
Status ValidateObjectiveWeights(const ObjectiveSpec& spec);

/// ValidateObjectiveWeights, plus rejects missing/ill-sized price vectors,
/// and ill-sized or out-of-range references, with errors naming the valid
/// ranges. `num_nodes`/`num_instances` size the reference/price checks.
Status ValidateObjectiveSpec(const ObjectiveSpec& spec, int num_nodes,
                             int num_instances);

/// The three terms of one deployment's objective, tracked separately so
/// incremental search can update each in O(1) without re-deriving them from
/// a combined double. Prices are quantized to integer micro-dollars at
/// CostEvaluator::Create, making incremental price sums exact (no FP drift
/// over accepted-move chains).
struct CostTerms {
  double latency = 0.0;     ///< primary objective (ms)
  int64_t price_micro = 0;  ///< sum of instance prices, micro-$/hour
  int moves = 0;            ///< nodes placed away from the reference
  bool operator==(const CostTerms&) const = default;
};

/// True iff every node maps to a distinct instance in [0, num_instances).
bool IsInjective(const Deployment& deployment, int num_instances);

/// Validates deployment size, range, and injectivity against the graph and
/// cost matrix; kLongestPath additionally requires an acyclic graph, and
/// any secondary term must pass ValidateObjectiveSpec.
Status ValidateDeployment(const graph::CommGraph& graph,
                          const Deployment& deployment,
                          const CostMatrix& costs,
                          const ObjectiveSpec& objective);

/// Fast repeated evaluation of one objective for a fixed (graph, costs).
/// Precomputes the topological order for kLongestPath and per-node
/// incident-edge lists (CSR layout) for the incremental API.
///
/// Layout: all edge bookkeeping is structure-of-arrays -- a flat (src[],
/// dst[]) pair for full scans and a CSR "other endpoint" array split into
/// out-/in- sub-ranges per node for the incremental kernels -- so the hot
/// loops are branch-light linear passes over int arrays that the compiler
/// can unroll and vectorize (no `#pragma omp simd`; plain portable C++).
/// Full rescans run blocked with independent max accumulators.
///
/// Thread safety: for kLongestLink every const method is a pure function of
/// immutable state and safe to call concurrently. kLongestPath evaluation
/// writes per-evaluator scratch buffers, so concurrent callers must use one
/// CostEvaluator *copy* per thread (copies are cheap: they share the
/// graph/cost pointers and duplicate only the index arrays; see
/// deploy/local_search.cc for the per-worker pattern).
class CostEvaluator {
 public:
  /// Fails (InvalidArgument/Infeasible) on malformed input; the evaluator
  /// keeps pointers, so graph and costs must outlive it. Accepts a bare
  /// Objective (the degenerate spec) or a full ObjectiveSpec; secondary
  /// terms are validated (ValidateObjectiveSpec), prices quantized to
  /// micro-$ and an empty reference defaulted to the identity deployment.
  static Result<CostEvaluator> Create(const graph::CommGraph* graph,
                                      const CostMatrix* costs,
                                      const ObjectiveSpec& objective);

  /// Deployment cost CD (Definition 4 instantiated per the objective),
  /// including any enabled secondary terms: Total(Terms(deployment)).
  /// With a degenerate spec this is exactly the primary latency cost.
  /// Undefined behavior on invalid deployments in release builds; checked
  /// via DCHECK in debug builds.
  double Cost(const Deployment& deployment) const;

  /// Primary latency term alone (ms), regardless of secondary weights.
  double LatencyCost(const Deployment& deployment) const;

  // -- Multi-term evaluation -------------------------------------------------
  //
  // Searches that must honor secondary terms track a CostTerms alongside the
  // deployment: Terms() evaluates all enabled terms from scratch, the
  // Swap/MoveTerms forms update them incrementally -- the latency term rides
  // the same O(deg) fused-pass kernels as SwapCost/MoveCost, the price term
  // is an O(1) integer delta per relocated node (a swap exchanges instances,
  // so its price delta is exactly 0), and the migration term is an O(1)
  // comparison against the reference. Exactness carries over: Swap/MoveTerms
  // return bit-identical CostTerms to Terms() on the modified deployment.
  // Disabled terms are never computed (degenerate specs pay nothing).

  /// All enabled terms of `deployment`, evaluated from scratch.
  CostTerms Terms(const Deployment& deployment) const;

  /// Scalar objective of `terms` under the spec's weights. Degenerate specs
  /// return terms.latency verbatim (bit-identical, no "+ 0.0" rounding).
  double Total(const CostTerms& terms) const;

  /// Terms of `d` with the instances of nodes `a` and `b` exchanged;
  /// `current` must be Terms(d).
  CostTerms SwapTerms(const Deployment& d, const CostTerms& current, int a,
                      int b) const;
  /// Terms of `d` with `node` relocated to the (unused) `new_instance`.
  CostTerms MoveTerms(const Deployment& d, const CostTerms& current, int node,
                      int new_instance) const;

  // -- Incremental evaluation (primary latency term) -------------------------
  //
  // All four calls price the *modified* deployment's latency term without
  // mutating `d`. `current_cost` must be LatencyCost(d) -- equivalently
  // Terms(d).latency, and equal to Cost(d) under a degenerate spec --
  // typically tracked by the caller's search loop; passing a stale value
  // yields garbage. Multi-term searches use SwapTerms/MoveTerms instead,
  // which route the latency component through these same kernels.
  //
  // Exactness: the returned cost is bit-identical to Cost() on the modified
  // deployment for both objectives -- the fast path reconstructs the same
  // max over the same doubles.
  //
  // Complexity, kLongestLink: O(deg(a) + deg(b)) over the incident-edge
  // lists -- one fused pass per endpoint computes the old and new incident
  // maxima together, so a probe touches each incident edge exactly once.
  // The only full O(E) rescan happens when the current bottleneck edge
  // itself is affected *and* improves (rare relative to candidate probes in
  // a descent, which are overwhelmingly rejections).
  // Complexity, kLongestPath: the path objective is global -- one relocated
  // node can re-route the critical path anywhere -- so there is no O(deg)
  // shortcut; these calls fall back to an exact full O(V + E) re-evaluation
  // on an internal scratch deployment. Still cheaper than cloning `d` at
  // every probe, and it keeps one call site for both objectives.

  /// Cost of `d` with the instances of nodes `a` and `b` exchanged.
  double SwapCost(const Deployment& d, double current_cost, int a,
                  int b) const;
  /// Cost of `d` with `node` relocated to the (unused) `new_instance`.
  double MoveCost(const Deployment& d, double current_cost, int node,
                  int new_instance) const;

  /// Delta forms: SwapCost/MoveCost minus `current_cost`, so that
  /// Cost(d') == Cost(d) + SwapDelta(d, Cost(d), a, b) up to the one
  /// subtraction's rounding. Negative deltas are improvements.
  double SwapDelta(const Deployment& d, double current_cost, int a,
                   int b) const {
    return SwapCost(d, current_cost, a, b) - current_cost;
  }
  double MoveDelta(const Deployment& d, double current_cost, int node,
                   int new_instance) const {
    return MoveCost(d, current_cost, node, new_instance) - current_cost;
  }

  /// Primary objective class (the LLNDP/LPNDP branch).
  Objective objective() const { return objective_; }
  /// Full spec (reference materialized, prices as given at Create).
  const ObjectiveSpec& spec() const { return spec_; }
  bool has_secondary_terms() const { return has_secondary_; }
  int num_instances() const { return costs_->size(); }

 private:
  CostEvaluator(const graph::CommGraph* graph, const CostMatrix* costs,
                ObjectiveSpec spec, std::vector<int> topo_order);

  double LongestLink(const int* d) const;
  double LongestPath(const int* d) const;

  /// One fused pass over v's incident edges, folding into *old_max the max
  /// edge cost under the current mapping d and into *new_max the max under
  /// the candidate mapping "v -> new_v_inst, partner -> partner_new_inst"
  /// (partner == -1 when no second node relocates, i.e. a move).
  void IncidentOldNewMax(const int* d, int v, int new_v_inst, int partner,
                         int partner_new_inst, double* old_max,
                         double* new_max) const;

  /// Exact O(E) longest-link rescan under the remapping "a -> ia, b -> ib"
  /// (b == -1 for a single-node move). Pure function -- no scratch.
  double RescanLongestLink(const int* d, int a, int ia, int b, int ib) const;

  const graph::CommGraph* graph_;
  const CostMatrix* costs_;
  ObjectiveSpec spec_;    // reference materialized at Create
  Objective objective_;   // == spec_.primary (hot-path copy)
  bool has_secondary_ = false;
  // spec_.instance_prices quantized to micro-$ (llround(p * 1e6)): integer
  // sums make incremental price deltas exact. Empty when price_weight == 0.
  std::vector<int64_t> price_micro_;
  std::vector<int> topo_order_;  // empty for kLongestLink

  // SoA copy of the edge list for full scans (cache-blocked linear passes).
  std::vector<int> edge_src_;
  std::vector<int> edge_dst_;

  // CSR incident-edge lists in SoA form: slot t in
  // [incident_offsets_[v], incident_out_end_[v]) stores w for an out-edge
  // v -> w, and slot t in [incident_out_end_[v], incident_offsets_[v + 1])
  // stores w for an in-edge w -> v. Splitting by orientation keeps the
  // kernels free of per-edge direction branches (an edge appears in both
  // endpoints' ranges).
  std::vector<int> incident_offsets_;
  std::vector<int> incident_out_end_;
  std::vector<int> incident_other_;

  mutable std::vector<double> path_scratch_;  // reused per evaluation
  mutable Deployment deploy_scratch_;         // reused by the LPNDP fallback
};

/// One-shot longest-link cost (Class 1).
double LongestLinkCost(const graph::CommGraph& graph,
                       const Deployment& deployment, const CostMatrix& costs);

/// One-shot longest-path cost (Class 2); Infeasible on cyclic graphs.
Result<double> LongestPathCost(const graph::CommGraph& graph,
                               const Deployment& deployment,
                               const CostMatrix& costs);

/// Replaces every measured off-diagonal cost by its exact 1-D k-means
/// cluster mean (paper Sect. 6.3); k <= 0 returns the matrix unchanged.
///
/// Edge cases that must never fabricate cost levels:
///   - k >= the number of distinct (0.01 ms-rounded) off-diagonal costs:
///     clustering would be the identity on levels, so the matrix is returned
///     unchanged rather than snapped to the rounding grid.
///   - Entries at or above kUnmeasuredCostMs (the never-sampled sentinel)
///     are excluded from clustering and preserved verbatim, so a poisoned
///     link neither consumes a cluster nor drags a cluster mean upward.
Result<CostMatrix> ClusterCostMatrix(const CostMatrix& costs, int k);

}  // namespace cloudia::deploy

#endif  // CLOUDIA_DEPLOY_COST_H_
