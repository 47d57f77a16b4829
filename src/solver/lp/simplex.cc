#include "solver/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudia::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPrimalTol = 1e-9;
constexpr double kDualTol = 1e-9;
constexpr double kPivotTol = 1e-9;
// Relative residual of a tight row above which K is reinverted.
constexpr double kResidualTol = 1e-9;
// Rank-one updates between unconditional reinversions.
constexpr int kReinvertInterval = 100;
// Ratios closer than this are ties.
constexpr double kTieTol = 1e-12;

}  // namespace

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "Optimal";
    case LpStatus::kInfeasible:
      return "Infeasible";
    case LpStatus::kUnbounded:
      return "Unbounded";
    case LpStatus::kIterationLimit:
      return "IterationLimit";
  }
  return "Unknown";
}

Simplex::Simplex(std::vector<double> objective)
    : n_(static_cast<int>(objective.size())),
      cost_(std::move(objective)),
      lo_(static_cast<size_t>(n_), 0.0),
      hi_(static_cast<size_t>(n_), kInf),
      state_(static_cast<size_t>(n_), State::kLower),
      value_(static_cast<size_t>(n_), 0.0),
      d_(static_cast<size_t>(n_), 0.0),
      cols_(static_cast<size_t>(n_)),
      pos_s_(static_cast<size_t>(n_), -1) {}

void Simplex::SetBounds(int var, double lo, double hi) {
  CLOUDIA_CHECK(var >= 0 && var < n_);
  CLOUDIA_CHECK(lo <= hi);
  lo_[static_cast<size_t>(var)] = lo;
  hi_[static_cast<size_t>(var)] = hi;
  State& s = state_[static_cast<size_t>(var)];
  if (s != State::kBasic) s = NonbasicState(var, s);
}

void Simplex::AddRow(const Row& row) {
  const int i = num_rows();
  std::vector<std::pair<int, double>> coeffs = row.coeffs;
  std::stable_sort(coeffs.begin(), coeffs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  double activity = 0.0;
  for (size_t e = 0; e < coeffs.size();) {
    const int var = coeffs[e].first;
    CLOUDIA_CHECK(var >= 0 && var < n_);
    double sum = 0.0;
    for (; e < coeffs.size() && coeffs[e].first == var; ++e) sum += coeffs[e].second;
    if (sum == 0.0) continue;
    row_idx_.push_back(var);
    row_val_.push_back(sum);
    cols_[static_cast<size_t>(var)].push_back({i, sum});
    activity += sum * value_[static_cast<size_t>(var)];
  }
  row_start_.push_back(row_idx_.size());
  double lo = -kInf;
  double hi = kInf;
  switch (row.sense) {
    case RowSense::kLe:
      hi = row.rhs;
      break;
    case RowSense::kGe:
      lo = row.rhs;
      break;
    case RowSense::kEq:
      lo = hi = row.rhs;
      break;
  }
  cost_.push_back(0.0);
  lo_.push_back(lo);
  hi_.push_back(hi);
  state_.push_back(State::kBasic);
  value_.push_back(activity);
  d_.push_back(0.0);
  pos_r_.push_back(-1);
}

double Simplex::objective() const {
  double z = 0.0;
  for (int j = 0; j < n_; ++j) {
    z += cost_[static_cast<size_t>(j)] * value_[static_cast<size_t>(j)];
  }
  return z;
}

std::vector<double> Simplex::x() const {
  return std::vector<double>(value_.begin(), value_.begin() + n_);
}

double Simplex::NonbasicValue(int col) const {
  switch (state_[static_cast<size_t>(col)]) {
    case State::kLower:
      return lo_[static_cast<size_t>(col)];
    case State::kUpper:
      return hi_[static_cast<size_t>(col)];
    default:
      return 0.0;
  }
}

Simplex::State Simplex::NonbasicState(int col, State preferred) const {
  const double lo = lo_[static_cast<size_t>(col)];
  const double hi = hi_[static_cast<size_t>(col)];
  if (lo == hi) return State::kLower;
  if (preferred == State::kUpper && hi < kInf) return State::kUpper;
  if (lo > -kInf) return State::kLower;
  if (hi < kInf) return State::kUpper;
  return State::kFree;
}

bool Simplex::Limited(int64_t limit, const Deadline& deadline) const {
  return iterations_ >= limit || ((iterations_ & 0xf) == 0 && deadline.Expired());
}

double Simplex::ComputePrimal() {
  const int m = num_rows();
  const int k = static_cast<int>(basic_s_.size());
  ForEachNonbasic([&](int j) { value_[static_cast<size_t>(j)] = NonbasicValue(j); });
  // Tight rows: A[R, S] x_S = s_R - A[R, N] x_N.
  work_.assign(static_cast<size_t>(k), 0.0);
  for (int t = 0; t < k; ++t) {
    const int i = tight_r_[static_cast<size_t>(t)];
    const RowView r = RowAt(i);
    double v = value_[static_cast<size_t>(Logical(i))];
    for (size_t e = 0; e < r.size; ++e) {
      if (pos_s_[static_cast<size_t>(r.idx[e])] < 0) {
        v -= r.val[e] * value_[static_cast<size_t>(r.idx[e])];
      }
    }
    work_[static_cast<size_t>(t)] = v;
  }
  for (int p = 0; p < k; ++p) {
    double v = 0.0;
    for (int t = 0; t < k; ++t) v += K(p, t) * work_[static_cast<size_t>(t)];
    value_[static_cast<size_t>(basic_s_[static_cast<size_t>(p)])] = v;
  }
  // Row activities: the values of basic logicals, residuals of tight rows.
  double residual = 0.0;
  for (int i = 0; i < m; ++i) {
    const RowView r = RowAt(i);
    double activity = 0.0;
    for (size_t e = 0; e < r.size; ++e) {
      activity += r.val[e] * value_[static_cast<size_t>(r.idx[e])];
    }
    double& s = value_[static_cast<size_t>(Logical(i))];
    if (pos_r_[static_cast<size_t>(i)] >= 0) {
      residual = std::max(residual, std::fabs(activity - s) / (1.0 + std::fabs(s)));
    } else {
      s = activity;
    }
  }
  return residual;
}

void Simplex::RefreshPrimal() {
  if (updates_since_reinvert_ >= kReinvertInterval && !Reinvert()) {
    ResetToSlackBasis();
  }
  if (ComputePrimal() > kResidualTol) {
    if (!Reinvert()) ResetToSlackBasis();
    ComputePrimal();
  }
}

void Simplex::ComputeDuals(const std::vector<double>& costs, bool logical_costs) {
  const int m = num_rows();
  const int k = static_cast<int>(basic_s_.size());
  // A basic logical of row i has dual y_i = -c_{n+i}; the tight rows have
  // y_R = K^T (c_S + A[Rc, S]^T c_Rc).
  work2_.assign(static_cast<size_t>(k), 0.0);
  for (int p = 0; p < k; ++p) {
    work2_[static_cast<size_t>(p)] =
        costs[static_cast<size_t>(basic_s_[static_cast<size_t>(p)])];
  }
  for (int j = 0; j < n_; ++j) d_[static_cast<size_t>(j)] = costs[static_cast<size_t>(j)];
  for (int i = 0; logical_costs && i < m; ++i) {
    const double c = costs[static_cast<size_t>(Logical(i))];
    if (c == 0.0 || pos_r_[static_cast<size_t>(i)] >= 0) continue;
    const RowView r = RowAt(i);
    for (size_t e = 0; e < r.size; ++e) {
      const int p = pos_s_[static_cast<size_t>(r.idx[e])];
      if (p >= 0) work2_[static_cast<size_t>(p)] += c * r.val[e];
      d_[static_cast<size_t>(r.idx[e])] += c * r.val[e];
    }
  }
  for (int t = 0; t < k; ++t) {
    double y = 0.0;
    for (int p = 0; p < k; ++p) y += K(p, t) * work2_[static_cast<size_t>(p)];
    const int i = tight_r_[static_cast<size_t>(t)];
    d_[static_cast<size_t>(Logical(i))] = costs[static_cast<size_t>(Logical(i))] + y;
    if (y == 0.0) continue;
    const RowView r = RowAt(i);
    for (size_t e = 0; e < r.size; ++e) {
      d_[static_cast<size_t>(r.idx[e])] -= y * r.val[e];
    }
  }
  for (int j : basic_s_) d_[static_cast<size_t>(j)] = 0.0;
}

double Simplex::Infeasibility(int col) const {
  const double v = value_[static_cast<size_t>(col)];
  if (v < lo_[static_cast<size_t>(col)] - kPrimalTol) return v - lo_[static_cast<size_t>(col)];
  if (v > hi_[static_cast<size_t>(col)] + kPrimalTol) return v - hi_[static_cast<size_t>(col)];
  return 0.0;
}

bool Simplex::MakeDualFeasible() {
  bool feasible = true;
  ForEachNonbasic([&](int j) {
    State& s = state_[static_cast<size_t>(j)];
    const double lo = lo_[static_cast<size_t>(j)];
    const double hi = hi_[static_cast<size_t>(j)];
    const double d = d_[static_cast<size_t>(j)];
    if (lo == hi) return;
    if (s == State::kLower && d < -kDualTol) {
      if (hi < kInf) {
        s = State::kUpper;
      } else {
        feasible = false;
      }
    } else if (s == State::kUpper && d > kDualTol) {
      if (lo > -kInf) {
        s = State::kLower;
      } else {
        feasible = false;
      }
    } else if (s == State::kFree && std::fabs(d) > kDualTol) {
      feasible = false;
    }
  });
  return feasible;
}

void Simplex::KTimesColumn(int q, std::vector<double>* w) const {
  const int k = static_cast<int>(basic_s_.size());
  w->assign(static_cast<size_t>(k), 0.0);
  for (const auto& [i, a] : cols_[static_cast<size_t>(q)]) {
    const int t = pos_r_[static_cast<size_t>(i)];
    if (t < 0) continue;
    for (int p = 0; p < k; ++p) (*w)[static_cast<size_t>(p)] += K(p, t) * a;
  }
}

void Simplex::RowTimesK(int row, std::vector<double>* z) const {
  const int k = static_cast<int>(basic_s_.size());
  z->assign(static_cast<size_t>(k), 0.0);
  const RowView r = RowAt(row);
  for (size_t e = 0; e < r.size; ++e) {
    const int p = pos_s_[static_cast<size_t>(r.idx[e])];
    if (p < 0) continue;
    for (int t = 0; t < k; ++t) (*z)[static_cast<size_t>(t)] += r.val[e] * K(p, t);
  }
}

void Simplex::Ftran(int q) {
  const int m = num_rows();
  const int k = static_cast<int>(basic_s_.size());
  alpha_.resize(static_cast<size_t>(n_ + m));
  if (q < n_) {
    KTimesColumn(q, &work_);
  } else {
    const int t0 = pos_r_[static_cast<size_t>(q - n_)];
    work_.assign(static_cast<size_t>(k), 0.0);
    for (int p = 0; p < k; ++p) work_[static_cast<size_t>(p)] = -K(p, t0);
  }
  for (int p = 0; p < k; ++p) {
    alpha_[static_cast<size_t>(basic_s_[static_cast<size_t>(p)])] =
        work_[static_cast<size_t>(p)];
  }
  for (int i = 0; i < m; ++i) {
    if (pos_r_[static_cast<size_t>(i)] >= 0) continue;
    const RowView r = RowAt(i);
    double a = 0.0;
    for (size_t e = 0; e < r.size; ++e) {
      const int p = pos_s_[static_cast<size_t>(r.idx[e])];
      if (p >= 0) a += r.val[e] * work_[static_cast<size_t>(p)];
    }
    alpha_[static_cast<size_t>(Logical(i))] = a;
  }
  if (q < n_) {
    for (const auto& [i, a] : cols_[static_cast<size_t>(q)]) {
      if (pos_r_[static_cast<size_t>(i)] < 0) alpha_[static_cast<size_t>(Logical(i))] -= a;
    }
  }
}

void Simplex::Pivot(int q, int leave, State leave_state) {
  const int k = static_cast<int>(basic_s_.size());
  if (leave < n_ && q < n_) {
    // Basic structural replaced by a structural: column p of A[R, S].
    const int p = pos_s_[static_cast<size_t>(leave)];
    KTimesColumn(q, &work_);
    const double pivot = work_[static_cast<size_t>(p)];
    CLOUDIA_CHECK(pivot != 0.0);
    for (int t = 0; t < k; ++t) K(p, t) /= pivot;
    for (int p2 = 0; p2 < k; ++p2) {
      const double f = work_[static_cast<size_t>(p2)];
      if (p2 == p || f == 0.0) continue;
      for (int t = 0; t < k; ++t) K(p2, t) -= f * K(p, t);
    }
    basic_s_[static_cast<size_t>(p)] = q;
    pos_s_[static_cast<size_t>(q)] = p;
    pos_s_[static_cast<size_t>(leave)] = -1;
  } else if (leave < n_) {
    // A tight row goes slack and a structural leaves: delete row t0 and
    // column p of A[R, S] (Schur complement of the pivot in K).
    const int i = q - n_;
    const int p = pos_s_[static_cast<size_t>(leave)];
    const int t0 = pos_r_[static_cast<size_t>(i)];
    const double pivot = K(p, t0);
    CLOUDIA_CHECK(pivot != 0.0);
    for (int p2 = 0; p2 < k; ++p2) {
      const double f = K(p2, t0) / pivot;
      if (p2 == p || f == 0.0) continue;
      for (int t = 0; t < k; ++t) {
        if (t != t0) K(p2, t) -= f * K(p, t);
      }
    }
    const int last = k - 1;
    if (p != last) {
      for (int t = 0; t < k; ++t) K(p, t) = K(last, t);
      basic_s_[static_cast<size_t>(p)] = basic_s_[static_cast<size_t>(last)];
      pos_s_[static_cast<size_t>(basic_s_[static_cast<size_t>(p)])] = p;
    }
    if (t0 != last) {
      for (int p2 = 0; p2 < last; ++p2) K(p2, t0) = K(p2, last);
      tight_r_[static_cast<size_t>(t0)] = tight_r_[static_cast<size_t>(last)];
      pos_r_[static_cast<size_t>(tight_r_[static_cast<size_t>(t0)])] = t0;
    }
    basic_s_.pop_back();
    tight_r_.pop_back();
    pos_s_[static_cast<size_t>(leave)] = -1;
    pos_r_[static_cast<size_t>(i)] = -1;
  } else if (q < n_) {
    // A slack row goes tight and a structural enters: border A[R, S] with
    // the new row and column.
    const int i = leave - n_;
    KTimesColumn(q, &work_);  // K b
    RowTimesK(i, &work2_);    // c^T K
    const RowView r = RowAt(i);
    double corner = 0.0;
    double ckb = 0.0;
    for (size_t e = 0; e < r.size; ++e) {
      if (r.idx[e] == q) corner = r.val[e];
      const int p = pos_s_[static_cast<size_t>(r.idx[e])];
      if (p >= 0) ckb += r.val[e] * work_[static_cast<size_t>(p)];
    }
    const double sigma = corner - ckb;
    CLOUDIA_CHECK(sigma != 0.0);
    if (k + 1 > k_stride_) {
      // Grow K's row stride geometrically; k never exceeds n_.
      const int stride = std::min(n_, std::max(2 * k_stride_, 8));
      std::vector<double> grown(static_cast<size_t>(stride) * static_cast<size_t>(stride));
      for (int p = 0; p < k; ++p) {
        std::copy_n(k_.begin() + static_cast<std::ptrdiff_t>(p) * k_stride_, k,
                    grown.begin() + static_cast<std::ptrdiff_t>(p) * stride);
      }
      k_.swap(grown);
      k_stride_ = stride;
    }
    for (int p = 0; p < k; ++p) {
      const double f = work_[static_cast<size_t>(p)] / sigma;
      if (f != 0.0) {
        for (int t = 0; t < k; ++t) K(p, t) += f * work2_[static_cast<size_t>(t)];
      }
      K(p, k) = -f;
    }
    for (int t = 0; t < k; ++t) K(k, t) = -work2_[static_cast<size_t>(t)] / sigma;
    K(k, k) = 1.0 / sigma;
    basic_s_.push_back(q);
    tight_r_.push_back(i);
    pos_s_[static_cast<size_t>(q)] = k;
    pos_r_[static_cast<size_t>(i)] = k;
  } else {
    // A slack row replaces a tight row: row t0 of A[R, S].
    const int i_new = leave - n_;
    const int i_old = q - n_;
    const int t0 = pos_r_[static_cast<size_t>(i_old)];
    RowTimesK(i_new, &work2_);
    const double pivot = work2_[static_cast<size_t>(t0)];
    CLOUDIA_CHECK(pivot != 0.0);
    for (int p = 0; p < k; ++p) K(p, t0) /= pivot;
    for (int t = 0; t < k; ++t) {
      const double f = work2_[static_cast<size_t>(t)];
      if (t == t0 || f == 0.0) continue;
      for (int p = 0; p < k; ++p) K(p, t) -= f * K(p, t0);
    }
    tight_r_[static_cast<size_t>(t0)] = i_new;
    pos_r_[static_cast<size_t>(i_new)] = t0;
    pos_r_[static_cast<size_t>(i_old)] = -1;
  }
  state_[static_cast<size_t>(q)] = State::kBasic;
  state_[static_cast<size_t>(leave)] = NonbasicState(leave, leave_state);
  ++updates_since_reinvert_;
}

bool Simplex::Reinvert() {
  updates_since_reinvert_ = 0;
  const int k = static_cast<int>(basic_s_.size());
  if (k == 0) return true;
  // Gauss-Jordan with partial pivoting on [A[R, S] | I]; rows are R
  // positions, the left block's columns S positions.
  const int w = 2 * k;
  std::vector<double> a(static_cast<size_t>(k * w), 0.0);
  auto at = [&](int row, int col) -> double& {
    return a[static_cast<size_t>(row * w + col)];
  };
  for (int t = 0; t < k; ++t) {
    const RowView r = RowAt(tight_r_[static_cast<size_t>(t)]);
    for (size_t e = 0; e < r.size; ++e) {
      const int p = pos_s_[static_cast<size_t>(r.idx[e])];
      if (p >= 0) at(t, p) = r.val[e];
    }
    at(t, k + t) = 1.0;
  }
  for (int c = 0; c < k; ++c) {
    int best = c;
    for (int row = c + 1; row < k; ++row) {
      if (std::fabs(at(row, c)) > std::fabs(at(best, c))) best = row;
    }
    if (std::fabs(at(best, c)) < 1e-11) return false;
    if (best != c) {
      for (int col = 0; col < w; ++col) std::swap(at(best, col), at(c, col));
    }
    const double inv = 1.0 / at(c, c);
    for (int col = 0; col < w; ++col) at(c, col) *= inv;
    for (int row = 0; row < k; ++row) {
      const double f = at(row, c);
      if (row == c || f == 0.0) continue;
      for (int col = 0; col < w; ++col) at(row, col) -= f * at(c, col);
    }
  }
  // Row c of the reduced system is row c (S position) of the inverse.
  for (int p = 0; p < k; ++p) {
    for (int t = 0; t < k; ++t) K(p, t) = at(p, k + t);
  }
  return true;
}

void Simplex::ResetToSlackBasis() {
  for (int j : basic_s_) {
    pos_s_[static_cast<size_t>(j)] = -1;
    state_[static_cast<size_t>(j)] = NonbasicState(j, State::kLower);
  }
  for (int i : tight_r_) {
    pos_r_[static_cast<size_t>(i)] = -1;
    state_[static_cast<size_t>(Logical(i))] = State::kBasic;
  }
  basic_s_.clear();
  tight_r_.clear();
  k_.clear();
  k_stride_ = 0;
  updates_since_reinvert_ = 0;
}

Simplex::Phase Simplex::DualSimplex(int64_t limit, const Deadline& deadline) {
  const int m = num_rows();
  const int bland_after = n_ + m;
  int degenerate = 0;
  while (true) {
    ComputeDuals(cost_, /*logical_costs=*/false);
    if (!MakeDualFeasible()) return Phase::kPrimal;
    RefreshPrimal();
    const bool bland = degenerate > bland_after;

    // Leaving: the basic column with the largest bound violation (Bland:
    // the lowest-index violated one).
    int leave = -1;
    double worst = 0.0;
    auto consider = [&](int col) {
      const double inf = std::fabs(Infeasibility(col));
      if (inf == 0.0) return;
      if (bland ? (leave == -1 || col < leave) : inf > worst) {
        worst = inf;
        leave = col;
      }
    };
    for (int j : basic_s_) consider(j);
    for (int i = 0; i < m; ++i) {
      if (pos_r_[static_cast<size_t>(i)] < 0) consider(Logical(i));
    }
    if (leave == -1) return Phase::kOptimal;
    if (Limited(limit, deadline)) return Phase::kLimit;
    const bool below = Infeasibility(leave) < 0;

    // Pivot row: alpha_j = (B^-1 a_j)_leave for every nonbasic column.
    const int k = static_cast<int>(basic_s_.size());
    if (leave < n_) {
      const int p = pos_s_[static_cast<size_t>(leave)];
      work2_.resize(static_cast<size_t>(k));
      for (int t = 0; t < k; ++t) work2_[static_cast<size_t>(t)] = K(p, t);
    } else {
      RowTimesK(leave - n_, &work2_);
    }
    alpha_.resize(static_cast<size_t>(n_ + m));
    std::fill(alpha_.begin(), alpha_.begin() + n_, 0.0);
    for (int t = 0; t < k; ++t) {
      const double rho = work2_[static_cast<size_t>(t)];
      const int i = tight_r_[static_cast<size_t>(t)];
      alpha_[static_cast<size_t>(Logical(i))] = -rho;
      if (rho == 0.0) continue;
      const RowView r = RowAt(i);
      for (size_t e = 0; e < r.size; ++e) {
        alpha_[static_cast<size_t>(r.idx[e])] += rho * r.val[e];
      }
    }
    if (leave >= n_) {
      const RowView r = RowAt(leave - n_);
      for (size_t e = 0; e < r.size; ++e) {
        alpha_[static_cast<size_t>(r.idx[e])] -= r.val[e];
      }
    }

    // Ratio test over the columns that move the leaving value toward its
    // violated bound. Harris: the largest |alpha| among ratios within a
    // tolerance-relaxed minimum; Bland: the exact minimum, lowest index.
    const double sign = below ? -1.0 : 1.0;
    auto ratio = [&](int j, double* out) {
      const State s = state_[static_cast<size_t>(j)];
      const double a = alpha_[static_cast<size_t>(j)];
      if (std::fabs(a) <= kPivotTol ||
          lo_[static_cast<size_t>(j)] == hi_[static_cast<size_t>(j)]) {
        return false;
      }
      const double d = d_[static_cast<size_t>(j)];
      double slack;
      if (s == State::kLower) {
        if (sign * a <= 0) return false;
        slack = std::max(d, 0.0);
      } else if (s == State::kUpper) {
        if (sign * a >= 0) return false;
        slack = std::max(-d, 0.0);
      } else {
        slack = std::fabs(d);
      }
      *out = slack / std::fabs(a);
      return true;
    };
    int enter = -1;
    double best = kInf;
    if (bland) {
      ForEachNonbasic([&](int j) {
        double r;
        if (ratio(j, &r) && (r < best || (r == best && j < enter))) {
          best = r;
          enter = j;
        }
      });
    } else {
      double bound = kInf;
      ForEachNonbasic([&](int j) {
        double r;
        if (ratio(j, &r)) {
          bound = std::min(bound, r + kDualTol / std::fabs(alpha_[static_cast<size_t>(j)]));
        }
      });
      double largest = 0.0;
      ForEachNonbasic([&](int j) {
        double r;
        const double a = std::fabs(alpha_[static_cast<size_t>(j)]);
        if (ratio(j, &r) && r <= bound &&
            (a > largest || (a == largest && j < enter))) {
          largest = a;
          best = r;
          enter = j;
        }
      });
    }
    if (enter == -1) return Phase::kInfeasible;
    degenerate = best * std::fabs(alpha_[static_cast<size_t>(enter)]) <= kDualTol
                     ? degenerate + 1
                     : 0;
    Pivot(enter, leave, below ? State::kLower : State::kUpper);
    ++iterations_;
  }
}

Simplex::Phase Simplex::PrimalSimplex(int64_t limit, const Deadline& deadline) {
  const int m = num_rows();
  const int bland_after = 3 * (n_ + m);
  int degenerate = 0;
  std::vector<double> phase1;
  while (true) {
    RefreshPrimal();
    // Phase 1 prices the sum of bound violations of the basic columns.
    bool infeasible = false;
    phase1.assign(static_cast<size_t>(n_ + m), 0.0);
    auto mark = [&](int col) {
      const double inf = Infeasibility(col);
      if (inf == 0.0) return;
      infeasible = true;
      phase1[static_cast<size_t>(col)] = inf < 0 ? -1.0 : 1.0;
    };
    for (int j : basic_s_) mark(j);
    for (int i = 0; i < m; ++i) {
      if (pos_r_[static_cast<size_t>(i)] < 0) mark(Logical(i));
    }
    ComputeDuals(infeasible ? phase1 : cost_, infeasible);
    const bool bland = degenerate > bland_after;

    // Entering: the most improving reduced cost (Bland: the lowest index).
    int enter = -1;
    double best_d = 0.0;
    ForEachNonbasic([&](int j) {
      const State s = state_[static_cast<size_t>(j)];
      if (lo_[static_cast<size_t>(j)] == hi_[static_cast<size_t>(j)]) return;
      const double d = d_[static_cast<size_t>(j)];
      const bool improving = (s == State::kLower && d < -kDualTol) ||
                             (s == State::kUpper && d > kDualTol) ||
                             (s == State::kFree && std::fabs(d) > kDualTol);
      if (!improving) return;
      if (bland ? enter == -1 || j < enter : std::fabs(d) > best_d) {
        best_d = std::fabs(d);
        enter = j;
      }
    });
    if (enter == -1) return infeasible ? Phase::kInfeasible : Phase::kOptimal;
    if (Limited(limit, deadline)) return Phase::kLimit;
    const double dir = d_[static_cast<size_t>(enter)] < 0 ? 1.0 : -1.0;
    Ftran(enter);

    // Ratio test: the first basic column to reach a bound (an infeasible one
    // stops at the bound it violates), or the entering column's own
    // opposite bound.
    int leave = -1;
    State leave_state = State::kLower;
    double step = hi_[static_cast<size_t>(enter)] - lo_[static_cast<size_t>(enter)];
    double leave_rate = 0.0;
    auto consider = [&](int b) {
      const double rate = -alpha_[static_cast<size_t>(b)] * dir;
      if (std::fabs(rate) <= kPivotTol) return;
      const double v = value_[static_cast<size_t>(b)];
      const double lo = lo_[static_cast<size_t>(b)];
      const double hi = hi_[static_cast<size_t>(b)];
      double t;
      State s;
      if (rate < 0) {
        if (v > hi + kPrimalTol) {
          t = (v - hi) / -rate;
          s = State::kUpper;
        } else if (lo > -kInf && v >= lo - kPrimalTol) {
          t = std::max(v - lo, 0.0) / -rate;
          s = State::kLower;
        } else {
          return;
        }
      } else {
        if (v < lo - kPrimalTol) {
          t = (lo - v) / rate;
          s = State::kLower;
        } else if (hi < kInf && v <= hi + kPrimalTol) {
          t = std::max(hi - v, 0.0) / rate;
          s = State::kUpper;
        } else {
          return;
        }
      }
      const bool tie = std::fabs(t - step) <= kTieTol;
      const bool better =
          t < step - kTieTol ||
          (tie && leave != -1 &&
           (bland ? b < leave : std::fabs(rate) > leave_rate));
      if (better) {
        step = t;
        leave = b;
        leave_state = s;
        leave_rate = std::fabs(rate);
      }
    };
    for (int j : basic_s_) consider(j);
    for (int i = 0; i < m; ++i) {
      if (pos_r_[static_cast<size_t>(i)] < 0) consider(Logical(i));
    }
    if (leave == -1 && step == kInf) {
      // Phase 1 always has a blocking column in exact arithmetic.
      return infeasible ? Phase::kLimit : Phase::kUnbounded;
    }
    degenerate = step <= kPrimalTol ? degenerate + 1 : 0;
    if (leave == -1) {
      State& s = state_[static_cast<size_t>(enter)];
      s = s == State::kLower ? State::kUpper : State::kLower;
    } else {
      Pivot(enter, leave, leave_state);
    }
    ++iterations_;
  }
}

LpStatus Simplex::Solve(int max_iterations, Deadline deadline) {
  const int64_t limit = iterations_ + max_iterations;
  Phase phase = DualSimplex(limit, deadline);
  if (phase == Phase::kPrimal) phase = PrimalSimplex(limit, deadline);
  switch (phase) {
    case Phase::kOptimal:
      return LpStatus::kOptimal;
    case Phase::kInfeasible:
      return LpStatus::kInfeasible;
    case Phase::kUnbounded:
      return LpStatus::kUnbounded;
    default:
      return LpStatus::kIterationLimit;
  }
}

LpSolution SolveLp(const LpProblem& problem, int max_iterations,
                   Deadline deadline) {
  CLOUDIA_CHECK(static_cast<int>(problem.objective.size()) == problem.num_vars);
  Simplex lp(problem.objective);
  for (const Row& row : problem.rows) lp.AddRow(row);
  LpSolution out;
  out.status = lp.Solve(max_iterations, deadline);
  out.iterations = static_cast<int>(lp.iterations());
  if (out.status == LpStatus::kOptimal) {
    out.x = lp.x();
    out.objective = lp.objective();
  }
  return out;
}

}  // namespace cloudia::lp
