#include "whart/markov/transient.hpp"

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::markov {

linalg::Vector distribution_after(const Dtmc& chain,
                                  const linalg::Vector& initial,
                                  std::uint64_t steps) {
  expects(initial.size() == chain.num_states(),
          "initial distribution matches state space");
  WHART_COUNT("markov.transient.solves");
  WHART_COUNT_N("markov.transient.steps", steps);
  linalg::Vector p = initial;
  for (std::uint64_t t = 0; t < steps; ++t) p = chain.step(p);
  return p;
}

std::vector<linalg::Vector> distribution_trajectory(
    const Dtmc& chain, const linalg::Vector& initial, std::uint64_t steps) {
  expects(initial.size() == chain.num_states(),
          "initial distribution matches state space");
  std::vector<linalg::Vector> trajectory;
  trajectory.reserve(steps + 1);
  trajectory.push_back(initial);
  for (std::uint64_t t = 0; t < steps; ++t)
    trajectory.push_back(chain.step(trajectory.back()));
  return trajectory;
}

linalg::Vector distribution_after_inhomogeneous(
    const std::function<const linalg::CsrMatrix&(std::uint64_t step)>&
        matrix_for_step,
    linalg::Vector initial, std::uint64_t steps) {
  for (std::uint64_t t = 1; t <= steps; ++t) {
    const linalg::CsrMatrix& matrix = matrix_for_step(t);
    expects(matrix.rows() == initial.size() && matrix.cols() == initial.size(),
            "step matrix matches state space");
    initial = matrix.left_multiply(initial);
  }
  return initial;
}

double transient_probability(const Dtmc& chain, const linalg::Vector& initial,
                             StateIndex state, std::uint64_t steps) {
  expects(state < chain.num_states(), "state in range");
  return distribution_after(chain, initial, steps)[state];
}

}  // namespace whart::markov
