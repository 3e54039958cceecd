// Transient analysis: the distribution of a DTMC after t steps, both for
// time-homogeneous chains (paper Eq. 3 for links) and time-inhomogeneous
// ones (paper Eq. 5 for paths, where per-slot transition probabilities
// follow the link models).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "whart/linalg/matrix.hpp"
#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Distribution after `steps` steps of a homogeneous chain: p0 * P^steps,
/// computed by iterated sparse products.  steps == 0 returns the initial
/// distribution unchanged.
linalg::Vector distribution_after(const Dtmc& chain,
                                  const linalg::Vector& initial,
                                  std::uint64_t steps);

/// Distributions after 0, 1, ..., steps steps (trajectory of Eq. 5).
std::vector<linalg::Vector> distribution_trajectory(
    const Dtmc& chain, const linalg::Vector& initial, std::uint64_t steps);

/// Time-inhomogeneous transient analysis: the transition matrix for step t
/// (1-based) is supplied by `matrix_for_step`.  Returns the distribution
/// after `steps` steps.
linalg::Vector distribution_after_inhomogeneous(
    const std::function<const linalg::CsrMatrix&(std::uint64_t step)>&
        matrix_for_step,
    linalg::Vector initial, std::uint64_t steps);

/// Probability of being in `state` after `steps` steps from `initial`.
double transient_probability(const Dtmc& chain, const linalg::Vector& initial,
                             StateIndex state, std::uint64_t steps);

}  // namespace whart::markov
