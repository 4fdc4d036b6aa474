#include "malsched/lp/model.hpp"

#include <algorithm>

#include "malsched/support/contracts.hpp"

namespace malsched::lp {

std::size_t Model::add_variable() {
  objective_.push_back(0.0);
  return objective_.size() - 1;
}

void Model::set_objective(std::size_t var, double coeff) {
  MALSCHED_EXPECTS(var < objective_.size());
  objective_[var] = coeff;
}

std::size_t Model::add_constraint(std::vector<Term> terms, Sense sense,
                                  double rhs) {
  // Merge duplicate variables so the tableau builder can assume uniqueness.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& t : terms) {
    MALSCHED_EXPECTS(t.var < objective_.size());
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  rows_.push_back(Row{std::move(merged), sense, rhs});
  return rows_.size() - 1;
}

}  // namespace malsched::lp
