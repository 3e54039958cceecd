// Channel-enlarged path solver (DESIGN.md §12).  When any hop carries a
// multi-state link::ChannelModel, the compact message chain ("waiting at
// hop h" + Goal + Discard) is widened so each hop's waiting state splits
// into that hop's channel states: state off[h] + s means "waiting at hop
// h with the channel in state s", off[h] = sum of earlier hops' state
// counts.  Tracking only the *current* hop's channel state is exact:
// per-link chains are independent and started stationary, so the channel
// a message arrives at is a fresh draw from its stationary distribution
// regardless of the message's history.
//
// This file holds the per-slot channel walk — the reference the dense
// collapse (path_collapse.cpp) is checked against and the solver of
// non-cycle-stationary channel providers — and the enlarged per-slot
// matrices it steps through.  Unlike the i.i.d. chain, idle uplink slots
// and downlink slots are *not* identities here: the channel mixes in
// every 10 ms slot.
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/channel_layout.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {

namespace {

using detail::ChannelLayout;
using detail::make_layout;
using detail::success_probability;

void init_result(PathTransientResult& result, const ChannelLayout& layout,
                 const PathModelConfig& config, std::uint32_t stride,
                 std::size_t trajectory_entries) {
  result.cycle_probabilities.assign(config.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(config.hop_count(), 0.0);
  result.discard_probability = 0.0;
  result.expected_transmissions = 0.0;
  result.expected_transmissions_delivered = 0.0;
  result.trajectory_stride = stride;
  result.diagnostics = SolverDiagnostics{};
  result.goal_trajectory.resize(trajectory_entries);
  result.diagnostics.dtmc_states = layout.dim;
  result.diagnostics.transient_states = layout.transient;
  result.diagnostics.absorbing_states = 2;
  result.diagnostics.forward_steps = config.horizon();
}

void finish_result(PathTransientResult& result) {
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  result.diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
}

/// p <- p^T M into `next` (one slot of the enlarged chain).
void advance(const linalg::CsrMatrix& matrix, std::vector<double>& p,
             std::vector<double>& next) {
  std::fill(next.begin(), next.end(), 0.0);
  for (std::size_t r = 0; r < p.size(); ++r) {
    const double xr = p[r];
    if (xr == 0.0) continue;
    matrix.for_each_in_row(
        r, [&](std::size_t c, double v) { next[c] += xr * v; });
  }
  std::swap(p, next);
}

}  // namespace

std::vector<linalg::CsrMatrix> PathModel::channel_slot_matrices(
    const LinkProbabilityProvider& links, bool inject_state_leak) const {
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config_.hop_count();
  const ChannelLayout layout = make_layout(config_, links, true);
  std::vector<linalg::CsrMatrix> matrices;
  matrices.reserve(config_.superframe.cycle_slots());

  const auto push_mixing_row = [&](std::vector<linalg::Triplet>& entries,
                                   std::size_t h, std::size_t s) {
    const std::size_t r = layout.off[h] + s;
    for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2) {
      const double v = layout.transition(h, s, s2);
      if (v > 0.0) entries.push_back({r, layout.off[h] + s2, v});
    }
  };

  for (std::uint32_t slot = 1; slot <= config_.superframe.uplink_slots;
       ++slot) {
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    std::vector<linalg::Triplet> entries;
    for (std::size_t h = 0; h < hops; ++h) {
      if (firing != h) {
        for (std::size_t s = 0; s < layout.k[h]; ++s)
          push_mixing_row(entries, h, s);
        continue;
      }
      for (std::size_t s = 0; s < layout.k[h]; ++s) {
        const std::size_t r = layout.off[h] + s;
        const double q =
            success_probability(layout, links, config_, h, s, slot);
        if (q > 0.0) {
          if (h + 1 == hops) {
            entries.push_back({r, layout.goal, q});
          } else {
            for (std::size_t s2 = 0; s2 < layout.k[h + 1]; ++s2) {
              const double v = q * layout.stationary(h + 1, s2);
              if (v > 0.0) entries.push_back({r, layout.off[h + 1] + s2, v});
            }
          }
        }
        if (q < 1.0) {
          for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2) {
            const double conditioned = inject_state_leak
                                           ? layout.stationary(h, s2)
                                           : layout.transition(h, s, s2);
            const double v = (1.0 - q) * conditioned;
            if (v > 0.0) entries.push_back({r, layout.off[h] + s2, v});
          }
        }
      }
    }
    entries.push_back({layout.goal, layout.goal, 1.0});
    entries.push_back({layout.discard, layout.discard, 1.0});
    matrices.emplace_back(layout.dim, layout.dim, std::move(entries));
  }
  for (std::uint32_t s = 0; s < config_.superframe.downlink_slots; ++s) {
    std::vector<linalg::Triplet> entries;
    for (std::size_t h = 0; h < hops; ++h)
      for (std::size_t cs = 0; cs < layout.k[h]; ++cs)
        push_mixing_row(entries, h, cs);
    entries.push_back({layout.goal, layout.goal, 1.0});
    entries.push_back({layout.discard, layout.discard, 1.0});
    matrices.emplace_back(layout.dim, layout.dim, std::move(entries));
  }
  return matrices;
}

/// Per-slot channel core: forward propagation over every absolute slot
/// of the interval with a stored backward delivery vector v_a = P(final
/// delivery | chain state at absolute slot a), so attempt mass at a
/// firing can be attributed to delivered messages exactly as the i.i.d.
/// core's beta recursion does.
PathTransientResult PathModel::analyze_channel_per_slot(
    const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options) const {
  WHART_SPAN("path_solve");
  const std::vector<linalg::CsrMatrix> matrices =
      channel_slot_matrices(links, options.inject_channel_state_leak);
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const PathModelConfig& config = config_;
  const ChannelLayout layout = make_layout(config, links, true);
  const std::size_t dim = layout.dim;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t cycle_slots = config.superframe.cycle_slots();
  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t horizon = config.horizon();

  PathTransientResult result;
  init_result(result, layout, config, 1, horizon + 1);
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    result.goal_trajectory[trajectory_entry++].assign(
        result.cycle_probabilities.begin(), result.cycle_probabilities.end());
  };

  // Backward pass, stored: v[a] for absolute slots a = 0..ttl_end, where
  // ttl_end is the boundary right after uplink slot `ttl` fired (and its
  // discard swept every transient state, so transient delivery
  // probability at the boundary is 0 and Goal's is 1).
  const std::size_t ttl_end =
      static_cast<std::size_t>(
          config.superframe.absolute_slot_of_uplink(ttl)) +
      1;
  std::vector<double> v((ttl_end + 1) * dim, 0.0);
  v[ttl_end * dim + layout.goal] = 1.0;
  for (std::size_t a = ttl_end; a-- > 0;) {
    const linalg::CsrMatrix& matrix = matrices[a % cycle_slots];
    double* va = v.data() + a * dim;
    const double* vnext = v.data() + (a + 1) * dim;
    for (std::size_t r = 0; r < dim; ++r) {
      double acc = 0.0;
      matrix.for_each_in_row(
          r, [&](std::size_t c, double val) { acc += val * vnext[c]; });
      va[r] = acc;
    }
  }

  // Forward pass over every absolute slot; the message starts at hop 0
  // with its channel stationary.
  std::vector<double> p(dim, 0.0);
  for (std::size_t s = 0; s < layout.k[0]; ++s)
    p[layout.off[0] + s] = layout.stationary(0, s);
  std::vector<double> p_next(dim, 0.0);
  double goal_seen = 0.0;
  record_trajectory();
  const std::uint64_t total_abs =
      static_cast<std::uint64_t>(config.reporting_interval) * cycle_slots;
  for (std::uint64_t a = 0; a < total_abs; ++a) {
    const std::uint32_t pos = static_cast<std::uint32_t>(a % cycle_slots);
    const bool uplink = pos < frame;
    const std::uint32_t slot =
        uplink ? static_cast<std::uint32_t>(a / cycle_slots) * frame + pos + 1
               : 0;
    if (uplink && slot <= ttl) {
      if (const auto firing = hop_in_slot(slot); firing.has_value()) {
        const std::size_t h = *firing;
        const double* va = v.data() + a * dim;
        for (std::size_t s = 0; s < layout.k[h]; ++s) {
          const double m = p[layout.off[h] + s];
          if (m == 0.0) continue;
          result.expected_transmissions += m;
          result.expected_transmissions_per_hop[h] += m;
          result.expected_transmissions_delivered +=
              m * va[layout.off[h] + s];
        }
      }
    }
    advance(matrices[pos], p, p_next);
    if (uplink && slot == ttl) {
      for (std::size_t x = 0; x < layout.transient; ++x) {
        result.discard_probability += p[x];
        p[x] = 0.0;
      }
    }
    if (uplink) {
      const std::uint32_t cycle = (slot - 1) / frame;
      result.cycle_probabilities[cycle] += p[layout.goal] - goal_seen;
      goal_seen = p[layout.goal];
      record_trajectory();
    }
  }

  finish_result(result);
  WHART_COUNT("hart.path_solve.count");
  WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    result.diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", result.diagnostics.solve_ns);
  }
#endif
  return result;
}

}  // namespace whart::hart
