#include "solver/mip/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudia::mip {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// One branching decision: x_var <= value (down) or x_var >= value (up).
// A node's bounds are the model's bounds tightened by its chain to the root.
struct Node {
  int parent = -1;  // index into the node arena, -1 for the root
  int var = -1;     // -1 for the root
  bool up = false;
  double value = 0.0;
  double bound = kNegInf;  // LP bound inherited from the parent
};

// Most fractional integer variable, or -1 if all integral within tol.
int PickBranchVar(const MipModel& model, const std::vector<double>& x,
                  double tol) {
  int best = -1;
  double best_score = tol;
  for (int v = 0; v < model.num_vars(); ++v) {
    if (!model.is_integer(v)) continue;
    double val = x[static_cast<size_t>(v)];
    double frac = std::fabs(val - std::round(val));
    if (frac > best_score) {
      best_score = frac;
      best = v;
    }
  }
  return best;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "Optimal";
    case MipStatus::kFeasible:
      return "Feasible";
    case MipStatus::kInfeasible:
      return "Infeasible";
    case MipStatus::kLimitNoSolution:
      return "LimitNoSolution";
  }
  return "Unknown";
}

MipResult SolveMip(const MipModel& model, const MipOptions& options) {
  Stopwatch clock;
  MipResult result;
  const int n = model.num_vars();

  // One live LP for the whole search: the model's rows and bounds, every lazy
  // row ever separated, and the current node's branch chain as bounds.
  lp::Simplex lp(model.objective());
  std::vector<double> lo(static_cast<size_t>(n), 0.0);
  std::vector<double> hi(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    hi[static_cast<size_t>(v)] = model.upper(v);
    lp.SetBounds(v, 0.0, model.upper(v));
  }
  for (const lp::Row& row : model.rows()) lp.AddRow(row);
  auto add_lazy_rows = [&](const std::vector<lp::Row>& rows) {
    result.lazy_rows_added += static_cast<int>(rows.size());
    for (const lp::Row& row : rows) lp.AddRow(row);
  };

  bool have_incumbent = false;
  double incumbent_obj = std::numeric_limits<double>::infinity();

  auto accept_incumbent = [&](const std::vector<double>& x, double obj) {
    have_incumbent = true;
    incumbent_obj = obj;
    result.x = x;
    result.objective = obj;
    double seconds = clock.ElapsedSeconds();
    result.incumbent_trace.push_back({seconds, obj});
    if (options.on_incumbent) options.on_incumbent(x, obj, seconds);
  };

  // Warm start: accepted only if feasible for the model *and* the lazy family.
  if (!options.warm_start.empty() &&
      model.IsFeasible(options.warm_start, options.integrality_tol)) {
    std::vector<lp::Row> violated;
    if (options.lazy) violated = options.lazy(options.warm_start, /*is_integral=*/true);
    if (violated.empty()) {
      accept_incumbent(options.warm_start,
                       model.ObjectiveValue(options.warm_start));
    } else {
      add_lazy_rows(violated);
    }
  }

  std::vector<Node> arena;
  std::vector<int> stack;
  arena.push_back(Node{});
  stack.push_back(0);

  bool limit_hit = false;
  // Set when an integral LP point fails the model check: the search then
  // no longer covers the whole space and cannot claim optimality.
  bool inexact = false;
  std::vector<int> branched;  // variables whose LP bounds the last node tightened

  std::vector<double> x;  // LP solution scratch
  while (!stack.empty()) {
    if (options.deadline.Expired() || options.cancel.Cancelled() ||
        (options.max_nodes >= 0 && result.nodes >= options.max_nodes)) {
      limit_hit = true;
      break;
    }
    int node_id = stack.back();
    stack.pop_back();
    // Bound-based pruning against the current incumbent.
    if (have_incumbent &&
        arena[static_cast<size_t>(node_id)].bound >=
            incumbent_obj - options.gap_tol) {
      continue;
    }
    ++result.nodes;

    // Move the LP's bounds from the previous node's chain to this one's.
    std::vector<int> previous;
    previous.swap(branched);
    for (int v : previous) {
      lo[static_cast<size_t>(v)] = 0.0;
      hi[static_cast<size_t>(v)] = model.upper(v);
    }
    for (int a = node_id; arena[static_cast<size_t>(a)].var >= 0;
         a = arena[static_cast<size_t>(a)].parent) {
      const Node& b = arena[static_cast<size_t>(a)];
      const size_t v = static_cast<size_t>(b.var);
      if (b.up) {
        lo[v] = std::max(lo[v], b.value);
      } else {
        hi[v] = std::min(hi[v], b.value);
      }
      branched.push_back(b.var);
    }
    for (int v : previous) lp.SetBounds(v, lo[static_cast<size_t>(v)], hi[static_cast<size_t>(v)]);
    for (int v : branched) lp.SetBounds(v, lo[static_cast<size_t>(v)], hi[static_cast<size_t>(v)]);

    // Lazy-constraint loop: reoptimize while the callback separates new rows.
    double bound = kNegInf;
    bool node_done = false;
    while (true) {
      const int64_t pivots = lp.iterations();
      lp::LpStatus status = lp.Solve(options.lp_max_iterations, options.deadline);
      result.lp_iterations += lp.iterations() - pivots;
      if (status == lp::LpStatus::kInfeasible) {
        node_done = true;
        break;
      }
      if (status != lp::LpStatus::kOptimal) {
        // Unbounded or iteration-limited relaxation: no usable bound/point.
        limit_hit = true;
        node_done = true;
        break;
      }
      bound = lp.objective();
      if (have_incumbent && bound >= incumbent_obj - options.gap_tol) {
        node_done = true;  // dominated
        break;
      }
      x = lp.x();
      bool integral = PickBranchVar(model, x, options.integrality_tol) == -1;
      if (options.lazy) {
        auto violated = options.lazy(x, integral);
        if (!violated.empty()) {
          add_lazy_rows(violated);
          continue;  // reoptimize with the new rows
        }
      }
      if (integral) {
        for (int v = 0; v < n; ++v) {
          if (model.is_integer(v)) {
            x[static_cast<size_t>(v)] = std::round(x[static_cast<size_t>(v)]);
          }
        }
        if (!model.IsFeasible(x, options.integrality_tol)) {
          inexact = true;
        } else {
          double obj = model.ObjectiveValue(x);
          if (!have_incumbent || obj < incumbent_obj - options.gap_tol) {
            accept_incumbent(x, obj);
          }
        }
        node_done = true;
      }
      break;
    }
    if (limit_hit) break;
    if (node_done) continue;

    // Branch on the most fractional integer variable.
    int v = PickBranchVar(model, x, options.integrality_tol);
    CLOUDIA_CHECK(v >= 0);
    double val = x[static_cast<size_t>(v)];
    double floor_v = std::floor(val);

    bool up_first = (val - floor_v) >= 0.5;
    auto push_child = [&](bool up) {
      Node child;
      child.parent = node_id;
      child.var = v;
      child.up = up;
      child.value = up ? floor_v + 1.0 : floor_v;
      child.bound = bound;
      arena.push_back(child);
      stack.push_back(static_cast<int>(arena.size()) - 1);
    };
    // Push the preferred child last so DFS pops it first.
    push_child(!up_first);
    push_child(up_first);
  }

  // Global lower bound: min over open nodes, or the incumbent when exhausted.
  if (stack.empty() && !limit_hit && !inexact) {
    result.best_bound = have_incumbent ? incumbent_obj : 0.0;
    result.status = have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible;
  } else {
    double open_bound_min = kNegInf;
    if (!stack.empty()) {
      open_bound_min = std::numeric_limits<double>::infinity();
      for (int id : stack) {
        open_bound_min =
            std::min(open_bound_min, arena[static_cast<size_t>(id)].bound);
      }
    }
    result.best_bound = open_bound_min;
    result.status =
        have_incumbent ? MipStatus::kFeasible : MipStatus::kLimitNoSolution;
  }
  return result;
}

}  // namespace cloudia::mip
