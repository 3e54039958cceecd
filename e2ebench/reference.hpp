// Independent references for the per-op correctness checks.  Neither
// runs the production path solver: the closed-form cycle probabilities
// of hart/analytic (sorted hop slots), and a forward walk over every absolute slot written
// here from the model's definition (unsorted and channel paths, where the
// dense verify:: solvers would need gigabytes on these frames).  The walk
// is itself checked against verify::reference_solve /
// reference_solve_channel on a small frame of the same path shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "whart/hart/path_analysis.hpp"
#include "whart/link/channel_model.hpp"

namespace e2e {

/// The checked measures of one path: R (Eq. 6) and E[tau] (Eq. 9), both
/// derived here from the reference's per-cycle delivery probabilities.
struct RefMeasures {
  double reachability = 0.0;
  double expected_delay_ms = 0.0;
};

/// Which reference produced a RefMeasures (counted in the results).
enum class RefKind { kAnalytic, kWalk };

/// Reference for a path with i.i.d. steady-state hops: closed form when
/// the hop slots increase within the frame, else the validated walk.
RefMeasures reference_iid(const whart::hart::PathModelConfig& config,
                          const std::vector<double>& availability,
                          RefKind* kind = nullptr);

/// Reference for a path whose hops run the given channel chains (already
/// rescaled to each hop's availability): the validated walk.
RefMeasures reference_channel(const whart::hart::PathModelConfig& config,
                              const std::vector<whart::link::ChannelModel>&
                                  channels);

/// True when `measures` agrees with `reference` to 1e-9 (absolute on R,
/// relative on E[tau]); otherwise false with the mismatch in `why`.
bool agrees(const whart::hart::PathMeasures& measures,
            const RefMeasures& reference, std::string& why);

}  // namespace e2e
