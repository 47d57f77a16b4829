#include "deploy/cost.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/kmeans1d.h"
#include "common/check.h"
#include "common/table.h"

namespace cloudia::deploy {

const char* ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kLongestLink:
      return "LongestLink";
    case Objective::kLongestPath:
      return "LongestPath";
  }
  return "Unknown";
}

bool IsInjective(const Deployment& deployment, int num_instances) {
  std::vector<bool> used(static_cast<size_t>(num_instances), false);
  for (int s : deployment) {
    if (s < 0 || s >= num_instances) return false;
    if (used[static_cast<size_t>(s)]) return false;
    used[static_cast<size_t>(s)] = true;
  }
  return true;
}

namespace {

// FNV-1a over a byte range; content hash for ObjectiveSpecKey. Not
// cryptographic -- it only has to make distinct price/reference payloads
// yield distinct cache keys with overwhelming probability.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool IsValidWeight(double w) { return std::isfinite(w) && w >= 0.0; }

}  // namespace

std::string ObjectiveSpecKey(const ObjectiveSpec& spec) {
  std::string key = ObjectiveName(spec.primary);
  if (!spec.HasSecondaryTerms()) return key;
  uint64_t prices_hash =
      Fnv1a(spec.instance_prices.data(),
            spec.instance_prices.size() * sizeof(double), 0xcbf29ce484222325ULL);
  uint64_t ref_hash = Fnv1a(spec.reference.data(),
                            spec.reference.size() * sizeof(int),
                            0xcbf29ce484222325ULL);
  key += StrFormat("+pw=%.17g+mw=%.17g+p%zu:%016llx+r%zu:%016llx",
                   spec.price_weight, spec.migration_weight,
                   spec.instance_prices.size(),
                   static_cast<unsigned long long>(prices_hash),
                   spec.reference.size(),
                   static_cast<unsigned long long>(ref_hash));
  return key;
}

Status ValidateObjectiveWeights(const ObjectiveSpec& spec) {
  if (!IsValidWeight(spec.price_weight)) {
    return Status::InvalidArgument(
        StrFormat("price weight %g is invalid: weights must be finite and "
                  ">= 0 (valid range: [0, inf))",
                  spec.price_weight));
  }
  if (!IsValidWeight(spec.migration_weight)) {
    return Status::InvalidArgument(
        StrFormat("migration weight %g is invalid: weights must be finite "
                  "and >= 0 (valid range: [0, inf))",
                  spec.migration_weight));
  }
  return Status::OK();
}

Status ValidateObjectiveSpec(const ObjectiveSpec& spec, int num_nodes,
                             int num_instances) {
  CLOUDIA_RETURN_IF_ERROR(ValidateObjectiveWeights(spec));
  if (spec.price_weight > 0.0) {
    if (static_cast<int>(spec.instance_prices.size()) != num_instances) {
      return Status::InvalidArgument(StrFormat(
          "price weight %g needs one instance price per instance: got %zu "
          "prices for %d instances",
          spec.price_weight, spec.instance_prices.size(), num_instances));
    }
    for (size_t i = 0; i < spec.instance_prices.size(); ++i) {
      if (!IsValidWeight(spec.instance_prices[i])) {
        return Status::InvalidArgument(
            StrFormat("instance price [%zu] = %g is invalid: prices must be "
                      "finite and >= 0",
                      i, spec.instance_prices[i]));
      }
    }
  }
  if (spec.migration_weight > 0.0 && !spec.reference.empty()) {
    if (static_cast<int>(spec.reference.size()) != num_nodes) {
      return Status::InvalidArgument(StrFormat(
          "reference deployment has %zu entries for %d nodes",
          spec.reference.size(), num_nodes));
    }
    for (int inst : spec.reference) {
      if (inst < 0 || inst >= num_instances) {
        return Status::InvalidArgument(StrFormat(
            "reference deployment entry %d is outside [0, %d)", inst,
            num_instances));
      }
    }
  }
  return Status::OK();
}

Status ValidateDeployment(const graph::CommGraph& graph,
                          const Deployment& deployment,
                          const CostMatrix& costs,
                          const ObjectiveSpec& objective) {
  int m = costs.size();
  if (static_cast<int>(deployment.size()) != graph.num_nodes()) {
    return Status::InvalidArgument(StrFormat(
        "deployment has %zu entries for %d nodes", deployment.size(),
        graph.num_nodes()));
  }
  if (graph.num_nodes() > m) {
    return Status::InvalidArgument(
        StrFormat("%d nodes cannot fit %d instances", graph.num_nodes(), m));
  }
  if (!IsInjective(deployment, m)) {
    return Status::InvalidArgument("deployment is not an injection");
  }
  if (objective.primary == Objective::kLongestPath && !graph.IsAcyclic()) {
    return Status::Infeasible("longest-path objective requires a DAG");
  }
  return ValidateObjectiveSpec(objective, graph.num_nodes(), m);
}

Result<CostEvaluator> CostEvaluator::Create(const graph::CommGraph* graph,
                                            const CostMatrix* costs,
                                            const ObjectiveSpec& objective) {
  CLOUDIA_CHECK(graph != nullptr && costs != nullptr);
  if (graph->num_nodes() > costs->size()) {
    return Status::InvalidArgument("more nodes than instances");
  }
  CLOUDIA_RETURN_IF_ERROR(
      ValidateObjectiveSpec(objective, graph->num_nodes(), costs->size()));
  std::vector<int> order;
  if (objective.primary == Objective::kLongestPath) {
    auto topo = graph->TopologicalOrder();
    if (!topo.ok()) return topo.status();
    order = std::move(topo).value();
  }
  ObjectiveSpec spec = objective;
  if (spec.migration_weight > 0.0 && spec.reference.empty()) {
    // Empty reference means "count moves against the default placement".
    spec.reference.resize(static_cast<size_t>(graph->num_nodes()));
    std::iota(spec.reference.begin(), spec.reference.end(), 0);
  }
  return CostEvaluator(graph, costs, std::move(spec), std::move(order));
}

CostEvaluator::CostEvaluator(const graph::CommGraph* graph,
                             const CostMatrix* costs, ObjectiveSpec spec,
                             std::vector<int> topo_order)
    : graph_(graph),
      costs_(costs),
      spec_(std::move(spec)),
      objective_(spec_.primary),
      has_secondary_(spec_.HasSecondaryTerms()),
      topo_order_(std::move(topo_order)),
      path_scratch_(static_cast<size_t>(graph->num_nodes()), 0.0) {
  if (spec_.price_weight > 0.0) {
    price_micro_.reserve(spec_.instance_prices.size());
    for (double p : spec_.instance_prices) {
      price_micro_.push_back(static_cast<int64_t>(std::llround(p * 1e6)));
    }
  }
  // SoA edge list: full scans become linear passes over two int arrays.
  const size_t num_edges = graph->edges().size();
  edge_src_.reserve(num_edges);
  edge_dst_.reserve(num_edges);
  for (const graph::Edge& e : graph->edges()) {
    edge_src_.push_back(e.src);
    edge_dst_.push_back(e.dst);
  }
  // CSR incident-edge lists, out-edges before in-edges per node: every edge
  // lands in both endpoints' ranges (CommGraph rejects self-loops, so the
  // two endpoints are distinct).
  const size_t n = static_cast<size_t>(graph->num_nodes());
  incident_offsets_.assign(n + 1, 0);
  std::vector<int> out_count(n, 0);
  for (const graph::Edge& e : graph->edges()) {
    ++incident_offsets_[static_cast<size_t>(e.src) + 1];
    ++incident_offsets_[static_cast<size_t>(e.dst) + 1];
    ++out_count[static_cast<size_t>(e.src)];
  }
  std::partial_sum(incident_offsets_.begin(), incident_offsets_.end(),
                   incident_offsets_.begin());
  incident_out_end_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    incident_out_end_[v] = incident_offsets_[v] + out_count[v];
  }
  incident_other_.resize(static_cast<size_t>(incident_offsets_[n]));
  std::vector<int> out_cursor(incident_offsets_.begin(),
                              incident_offsets_.end() - 1);
  std::vector<int> in_cursor(incident_out_end_);
  for (const graph::Edge& e : graph->edges()) {
    incident_other_[static_cast<size_t>(
        out_cursor[static_cast<size_t>(e.src)]++)] = e.dst;
    incident_other_[static_cast<size_t>(
        in_cursor[static_cast<size_t>(e.dst)]++)] = e.src;
  }
}

double CostEvaluator::LongestLink(const int* d) const {
  const double* c = costs_->data();
  const int* src = edge_src_.data();
  const int* dst = edge_dst_.data();
  const size_t m = static_cast<size_t>(costs_->size());
  const size_t num_edges = edge_src_.size();
  // Blocked scan with four independent max accumulators: the gathers of one
  // block stay in flight together and the reduction carries no loop-carried
  // dependence chain. Bit-exact relative to a sequential max (max over
  // doubles is associative and commutative; costs are never NaN).
  double w0 = 0.0, w1 = 0.0, w2 = 0.0, w3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= num_edges; i += 4) {
    w0 = std::max(w0, c[static_cast<size_t>(d[src[i]]) * m +
                        static_cast<size_t>(d[dst[i]])]);
    w1 = std::max(w1, c[static_cast<size_t>(d[src[i + 1]]) * m +
                        static_cast<size_t>(d[dst[i + 1]])]);
    w2 = std::max(w2, c[static_cast<size_t>(d[src[i + 2]]) * m +
                        static_cast<size_t>(d[dst[i + 2]])]);
    w3 = std::max(w3, c[static_cast<size_t>(d[src[i + 3]]) * m +
                        static_cast<size_t>(d[dst[i + 3]])]);
  }
  for (; i < num_edges; ++i) {
    w0 = std::max(w0, c[static_cast<size_t>(d[src[i]]) * m +
                        static_cast<size_t>(d[dst[i]])]);
  }
  return std::max(std::max(w0, w1), std::max(w2, w3));
}

double CostEvaluator::LongestPath(const int* d) const {
  const double* c = costs_->data();
  const size_t m = static_cast<size_t>(costs_->size());
  std::fill(path_scratch_.begin(), path_scratch_.end(), 0.0);
  double best = 0.0;
  for (int v : topo_order_) {
    double dv = path_scratch_[static_cast<size_t>(v)];
    const double* row = c + static_cast<size_t>(d[v]) * m;
    for (int w : graph_->OutNeighbors(v)) {
      double cand = dv + row[static_cast<size_t>(d[w])];
      if (cand > path_scratch_[static_cast<size_t>(w)]) {
        path_scratch_[static_cast<size_t>(w)] = cand;
        best = std::max(best, cand);
      }
    }
  }
  return best;
}

double CostEvaluator::LatencyCost(const Deployment& d) const {
  CLOUDIA_DCHECK(static_cast<int>(d.size()) == graph_->num_nodes());
  return objective_ == Objective::kLongestLink ? LongestLink(d.data())
                                               : LongestPath(d.data());
}

double CostEvaluator::Cost(const Deployment& d) const {
  if (!has_secondary_) return LatencyCost(d);
  return Total(Terms(d));
}

CostTerms CostEvaluator::Terms(const Deployment& d) const {
  CostTerms t;
  t.latency = LatencyCost(d);
  if (!price_micro_.empty()) {
    int64_t sum = 0;
    for (int inst : d) sum += price_micro_[static_cast<size_t>(inst)];
    t.price_micro = sum;
  }
  if (spec_.migration_weight > 0.0) {
    int moves = 0;
    for (size_t v = 0; v < d.size(); ++v) {
      moves += d[v] != spec_.reference[v] ? 1 : 0;
    }
    t.moves = moves;
  }
  return t;
}

double CostEvaluator::Total(const CostTerms& t) const {
  // Degenerate shortcut: returning the latency double untouched (instead of
  // latency + 0.0 * ...) is what keeps the enum-only path bit-identical.
  if (!has_secondary_) return t.latency;
  return t.latency +
         spec_.price_weight * (static_cast<double>(t.price_micro) * 1e-6) +
         spec_.migration_weight * static_cast<double>(t.moves);
}

CostTerms CostEvaluator::SwapTerms(const Deployment& d, const CostTerms& current,
                                   int a, int b) const {
  CostTerms t = current;
  t.latency = SwapCost(d, current.latency, a, b);
  // A swap exchanges two instances within the deployment, so the summed
  // price is unchanged -- exactly, since prices are integers.
  if (spec_.migration_weight > 0.0 && a != b) {
    const int ra = spec_.reference[static_cast<size_t>(a)];
    const int rb = spec_.reference[static_cast<size_t>(b)];
    const int da = d[static_cast<size_t>(a)];
    const int db = d[static_cast<size_t>(b)];
    t.moves += (db != ra ? 1 : 0) - (da != ra ? 1 : 0) +
               (da != rb ? 1 : 0) - (db != rb ? 1 : 0);
  }
  return t;
}

CostTerms CostEvaluator::MoveTerms(const Deployment& d, const CostTerms& current,
                                   int node, int new_instance) const {
  CostTerms t = current;
  t.latency = MoveCost(d, current.latency, node, new_instance);
  if (!price_micro_.empty()) {
    t.price_micro +=
        price_micro_[static_cast<size_t>(new_instance)] -
        price_micro_[static_cast<size_t>(d[static_cast<size_t>(node)])];
  }
  if (spec_.migration_weight > 0.0) {
    const int r = spec_.reference[static_cast<size_t>(node)];
    t.moves += (new_instance != r ? 1 : 0) -
               (d[static_cast<size_t>(node)] != r ? 1 : 0);
  }
  return t;
}

void CostEvaluator::IncidentOldNewMax(const int* d, int v, int new_v_inst,
                                      int partner, int partner_new_inst,
                                      double* old_max, double* new_max) const {
  const double* c = costs_->data();
  const size_t m = static_cast<size_t>(costs_->size());
  const size_t old_v = static_cast<size_t>(d[v]);
  const size_t new_v = static_cast<size_t>(new_v_inst);
  const int* other = incident_other_.data();
  const int begin = incident_offsets_[static_cast<size_t>(v)];
  const int mid = incident_out_end_[static_cast<size_t>(v)];
  const int end = incident_offsets_[static_cast<size_t>(v) + 1];
  double worst_old = *old_max;
  double worst_new = *new_max;
  // Out-edges v -> w: old reads row d[v], new reads row new_v_inst. The
  // only per-element branch left is the partner select, which compiles to a
  // conditional move (v itself never appears in its own incident list).
  const double* row_old = c + old_v * m;
  const double* row_new = c + new_v * m;
  if (partner < 0) {
    // Move: no second node relocates, so the neighbor mapping is d itself.
    for (int t = begin; t < mid; ++t) {
      const size_t iw = static_cast<size_t>(d[other[t]]);
      worst_old = std::max(worst_old, row_old[iw]);
      worst_new = std::max(worst_new, row_new[iw]);
    }
    for (int t = mid; t < end; ++t) {
      const size_t iw = static_cast<size_t>(d[other[t]]);
      worst_old = std::max(worst_old, c[iw * m + old_v]);
      worst_new = std::max(worst_new, c[iw * m + new_v]);
    }
    *old_max = worst_old;
    *new_max = worst_new;
    return;
  }
  for (int t = begin; t < mid; ++t) {
    const int w = other[t];
    const size_t iw = static_cast<size_t>(d[w]);
    const size_t iw_new =
        w == partner ? static_cast<size_t>(partner_new_inst) : iw;
    worst_old = std::max(worst_old, row_old[iw]);
    worst_new = std::max(worst_new, row_new[iw_new]);
  }
  // In-edges w -> v: column accesses at fixed column old_v / new_v.
  for (int t = mid; t < end; ++t) {
    const int w = other[t];
    const size_t iw = static_cast<size_t>(d[w]);
    const size_t iw_new =
        w == partner ? static_cast<size_t>(partner_new_inst) : iw;
    worst_old = std::max(worst_old, c[iw * m + old_v]);
    worst_new = std::max(worst_new, c[iw_new * m + new_v]);
  }
  *old_max = worst_old;
  *new_max = worst_new;
}

double CostEvaluator::RescanLongestLink(const int* d, int a, int ia, int b,
                                        int ib) const {
  const double* c = costs_->data();
  const int* src = edge_src_.data();
  const int* dst = edge_dst_.data();
  const size_t m = static_cast<size_t>(costs_->size());
  const size_t num_edges = edge_src_.size();
  // Same blocked four-accumulator shape as LongestLink; the remap selects
  // compile to conditional moves, keeping the pass branch-free.
  double w0 = 0.0, w1 = 0.0, w2 = 0.0, w3 = 0.0;
  size_t i = 0;
  auto remapped = [&](size_t k) {
    const int s = src[k];
    const int t = dst[k];
    const int is = s == a ? ia : s == b ? ib : d[s];
    const int it = t == a ? ia : t == b ? ib : d[t];
    return c[static_cast<size_t>(is) * m + static_cast<size_t>(it)];
  };
  for (; i + 4 <= num_edges; i += 4) {
    w0 = std::max(w0, remapped(i));
    w1 = std::max(w1, remapped(i + 1));
    w2 = std::max(w2, remapped(i + 2));
    w3 = std::max(w3, remapped(i + 3));
  }
  for (; i < num_edges; ++i) w0 = std::max(w0, remapped(i));
  return std::max(std::max(w0, w1), std::max(w2, w3));
}

double CostEvaluator::SwapCost(const Deployment& d, double current_cost,
                               int a, int b) const {
  CLOUDIA_DCHECK(a >= 0 && a < graph_->num_nodes());
  CLOUDIA_DCHECK(b >= 0 && b < graph_->num_nodes());
  if (a == b) return current_cost;
  const int* dp = d.data();
  if (objective_ == Objective::kLongestPath) {
    // Exact fallback (see header): the critical path is a global property.
    deploy_scratch_.assign(d.begin(), d.end());
    std::swap(deploy_scratch_[static_cast<size_t>(a)],
              deploy_scratch_[static_cast<size_t>(b)]);
    return LongestPath(deploy_scratch_.data());
  }
  double old_affected = 0.0;
  double new_affected = 0.0;
  IncidentOldNewMax(dp, a, dp[b], b, dp[a], &old_affected, &new_affected);
  IncidentOldNewMax(dp, b, dp[a], a, dp[b], &old_affected, &new_affected);
  if (old_affected < current_cost) {
    // The bottleneck edge is untouched, so current_cost is exactly the max
    // over the unaffected edges.
    return std::max(current_cost, new_affected);
  }
  // old_affected == current_cost here (a subset max never exceeds the
  // global max): an affected edge *is* a bottleneck. A tie -- a new
  // affected cost exactly equal to the old bottleneck -- takes this exact
  // branch, since max(unaffected) <= current_cost <= new_affected.
  if (new_affected >= current_cost) return new_affected;
  // The bottleneck edge was affected and improved: only a full rescan knows
  // the runner-up.
  return RescanLongestLink(dp, a, dp[b], b, dp[a]);
}

double CostEvaluator::MoveCost(const Deployment& d, double current_cost,
                               int node, int new_instance) const {
  CLOUDIA_DCHECK(node >= 0 && node < graph_->num_nodes());
  CLOUDIA_DCHECK(new_instance >= 0 && new_instance < costs_->size());
  const int* dp = d.data();
  if (objective_ == Objective::kLongestPath) {
    deploy_scratch_.assign(d.begin(), d.end());
    deploy_scratch_[static_cast<size_t>(node)] = new_instance;
    return LongestPath(deploy_scratch_.data());
  }
  double old_affected = 0.0;
  double new_affected = 0.0;
  IncidentOldNewMax(dp, node, new_instance, /*partner=*/-1,
                    /*partner_new_inst=*/-1, &old_affected, &new_affected);
  if (old_affected < current_cost) {
    return std::max(current_cost, new_affected);
  }
  if (new_affected >= current_cost) return new_affected;
  return RescanLongestLink(dp, node, new_instance, /*b=*/-1, /*ib=*/-1);
}

double LongestLinkCost(const graph::CommGraph& graph,
                       const Deployment& deployment, const CostMatrix& costs) {
  auto ev = CostEvaluator::Create(&graph, &costs, Objective::kLongestLink);
  CLOUDIA_CHECK(ev.ok());
  return ev->Cost(deployment);
}

Result<double> LongestPathCost(const graph::CommGraph& graph,
                               const Deployment& deployment,
                               const CostMatrix& costs) {
  auto ev = CostEvaluator::Create(&graph, &costs, Objective::kLongestPath);
  if (!ev.ok()) return ev.status();
  return ev->Cost(deployment);
}

Result<CostMatrix> ClusterCostMatrix(const CostMatrix& costs, int k) {
  if (k <= 0) return costs;
  const int m = costs.size();
  std::vector<double> flat;
  flat.reserve(static_cast<size_t>(m) * static_cast<size_t>(m > 0 ? m - 1 : 0));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j) continue;
      double v = costs.At(i, j);
      // Never-sampled sentinel entries are unknowns, not data: clustering
      // them would waste a cluster on 1e6 or drag a mean upward. They are
      // preserved verbatim below.
      if (v >= kUnmeasuredCostMs) continue;
      // Round to a 0.01 ms grid first, exactly as the paper does before
      // clustering ("rounded to nearest 0.01 ms", Sect. 6.3): this bounds
      // the number of distinct values the O(k d^2) k-means DP sees.
      flat.push_back(std::round(v * 100.0) / 100.0);
    }
  }
  if (flat.empty()) return costs;
  {
    // k >= #distinct rounded values: every value would become its own
    // center, i.e. the "clustering" could only snap costs to the rounding
    // grid without reducing levels. Return the input unchanged instead of
    // fabricating a gridded copy.
    std::vector<double> distinct = flat;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (static_cast<size_t>(k) >= distinct.size()) return costs;
  }
  CLOUDIA_ASSIGN_OR_RETURN(std::vector<double> mapped,
                           cluster::ClusterToMeans(flat, k));
  CostMatrix out = costs;
  size_t idx = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j || costs.At(i, j) >= kUnmeasuredCostMs) continue;
      out.At(i, j) = mapped[idx++];
    }
  }
  return out;
}

}  // namespace cloudia::deploy
