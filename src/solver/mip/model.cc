#include "solver/mip/model.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudia::mip {

namespace {
constexpr double kUnbounded = std::numeric_limits<double>::infinity();
}  // namespace

int MipModel::AddVar(double obj, bool integer, double upper,
                     std::string name) {
  objective_.push_back(obj);
  is_integer_.push_back(integer);
  upper_.push_back(upper);
  names_.push_back(std::move(name));
  return num_vars() - 1;
}

int MipModel::AddContinuousVar(double obj, std::string name) {
  return AddVar(obj, false, kUnbounded, std::move(name));
}

int MipModel::AddIntegerVar(double obj, std::string name) {
  return AddVar(obj, true, kUnbounded, std::move(name));
}

int MipModel::AddBinaryVar(double obj, std::string name) {
  return AddVar(obj, true, 1.0, std::move(name));
}

int MipModel::AddConstraint(lp::Row row) {
  for (const auto& [var, coeff] : row.coeffs) {
    CLOUDIA_CHECK(var >= 0 && var < num_vars());
    (void)coeff;
  }
  rows_.push_back(std::move(row));
  return num_rows() - 1;
}

double MipModel::ObjectiveValue(const std::vector<double>& x) const {
  CLOUDIA_CHECK(x.size() == objective_.size());
  double z = 0.0;
  for (size_t i = 0; i < x.size(); ++i) z += objective_[i] * x[i];
  return z;
}

bool MipModel::IsFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != objective_.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] < -tol || x[i] > upper_[i] + tol) return false;
    if (is_integer_[i] && std::fabs(x[i] - std::round(x[i])) > tol) return false;
  }
  for (const lp::Row& row : rows_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.coeffs) {
      lhs += coeff * x[static_cast<size_t>(var)];
    }
    switch (row.sense) {
      case lp::RowSense::kLe:
        if (lhs > row.rhs + tol) return false;
        break;
      case lp::RowSense::kGe:
        if (lhs < row.rhs - tol) return false;
        break;
      case lp::RowSense::kEq:
        if (std::fabs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace cloudia::mip
