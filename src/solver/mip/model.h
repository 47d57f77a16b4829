// Mixed-integer program model: minimize c^T x, A x {<=,>=,=} b,
// 0 <= x <= hi (hi = +inf unless set), a subset of variables integer.
// Consumed by SolveMip.
#ifndef CLOUDIA_SOLVER_MIP_MODEL_H_
#define CLOUDIA_SOLVER_MIP_MODEL_H_

#include <string>
#include <vector>

#include "solver/lp/simplex.h"

namespace cloudia::mip {

/// Incrementally built MIP. Variables are created with their objective
/// coefficient; constraints reference variable indices.
class MipModel {
 public:
  /// Adds a continuous variable (>= 0); returns its index.
  int AddContinuousVar(double objective_coefficient, std::string name = "");
  /// Adds an integer variable (>= 0); returns its index.
  int AddIntegerVar(double objective_coefficient, std::string name = "");
  /// Integer variable with upper bound 1 (a bound, not a row).
  int AddBinaryVar(double objective_coefficient, std::string name = "");

  /// Adds a linear constraint; returns its row index.
  int AddConstraint(lp::Row row);

  int num_vars() const { return static_cast<int>(objective_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  bool is_integer(int var) const { return is_integer_[static_cast<size_t>(var)]; }
  /// Upper bound of `var` (+inf when unbounded); every lower bound is 0.
  double upper(int var) const { return upper_[static_cast<size_t>(var)]; }
  const std::string& name(int var) const { return names_[static_cast<size_t>(var)]; }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<lp::Row>& rows() const { return rows_; }

  /// Objective value of an assignment (no feasibility check).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Checks bounds, all rows and integrality within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  int AddVar(double obj, bool integer, double upper, std::string name);

  std::vector<double> objective_;
  std::vector<bool> is_integer_;
  std::vector<double> upper_;
  std::vector<std::string> names_;
  std::vector<lp::Row> rows_;
};

}  // namespace cloudia::mip

#endif  // CLOUDIA_SOLVER_MIP_MODEL_H_
