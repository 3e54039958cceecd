#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::hart {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();
}

PathModelConfig PathModelConfig::from_schedule(
    const net::Schedule& schedule, std::size_t path_index,
    net::SuperframeConfig superframe, std::uint32_t reporting_interval) {
  PathModelConfig config;
  config.hop_slots = schedule.path_slots(path_index).hop_slots;
  config.superframe = superframe;
  config.reporting_interval = reporting_interval;
  return config;
}

std::uint32_t PathModelConfig::effective_ttl() const noexcept {
  return ttl.has_value() ? std::min(*ttl, horizon()) : horizon();
}

void PathModelConfig::validate() const {
  expects(!hop_slots.empty(), "path has at least one hop");
  expects(superframe.uplink_slots > 0, "Fup > 0");
  expects(reporting_interval >= 1, "Is >= 1");
  expects(effective_ttl() >= 1, "ttl >= 1");
  for (net::SlotNumber s : hop_slots)
    expects(s >= 1 && s <= superframe.uplink_slots,
            "hop slots lie within the uplink frame");
  expects(retry_slots.empty() || retry_slots.size() == hop_slots.size(),
          "retry_slots empty or one entry per hop");
  std::vector<net::SlotNumber> sorted = hop_slots;
  for (net::SlotNumber s : retry_slots) {
    if (s == 0) continue;  // no retry slot for this hop
    expects(s >= 1 && s <= superframe.uplink_slots,
            "retry slots lie within the uplink frame");
    sorted.push_back(s);
  }
  std::sort(sorted.begin(), sorted.end());
  expects(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
          "each transmission opportunity has its own dedicated slot");
}

std::optional<std::size_t> PathModelConfig::hop_in_slot(
    std::uint32_t global_slot) const noexcept {
  const net::SlotNumber in_frame =
      ((global_slot - 1) % superframe.uplink_slots) + 1;
  for (std::size_t h = 0; h < hop_slots.size(); ++h)
    if (hop_slots[h] == in_frame) return h;
  for (std::size_t h = 0; h < retry_slots.size(); ++h)
    if (retry_slots[h] != 0 && retry_slots[h] == in_frame) return h;
  return std::nullopt;
}

PathModel::PathModel(PathModelConfig config) : config_(std::move(config)) {
  config_.validate();

  // Reachability sweep over the layered state space: state (t, h) exists
  // for t < ttl when the chain can occupy it.
  const std::uint32_t ttl = config_.effective_ttl();
  const std::size_t hops = config_.hop_count();
  state_index_.assign(ttl, std::vector<std::size_t>(hops, kUnreachable));
  std::vector<std::vector<bool>> reachable(ttl,
                                           std::vector<bool>(hops, false));
  reachable[0][0] = true;
  for (std::uint32_t t = 0; t + 1 < ttl; ++t) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    for (std::size_t h = 0; h < hops; ++h) {
      if (!reachable[t][h]) continue;
      reachable[t + 1][h] = true;  // failed or idle slot
      if (firing == h && h + 1 < hops) reachable[t + 1][h + 1] = true;
    }
  }
  for (std::uint32_t t = 0; t < ttl; ++t)
    for (std::size_t h = 0; h < hops; ++h)
      if (reachable[t][h]) state_index_[t][h] = num_transient_++;
  num_states_ = num_transient_ + config_.reporting_interval + 1;
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links) const {
  return analyze(links, PathAnalysisOptions{});
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options) const {
  if (options.kernel == TransientKernel::kSuperframeProduct) {
    if (links.cycle_stationary())
      return analyze_collapsed(config_, links, options);
    WHART_COUNT("hart.path_solve.kernel_fallback");
  }
  if (channel_enlarged(links, config_.hop_count()))
    return analyze_channel_per_slot(links, options);
  return analyze_per_slot(links);
}

PathTransientResult analyze_path(const PathModelConfig& config,
                                 const LinkProbabilityProvider& links,
                                 const PathAnalysisOptions& options) {
  if (options.kernel == TransientKernel::kSuperframeProduct &&
      links.cycle_stationary())
    return analyze_collapsed(config, links, options);
  return PathModel(config).analyze(links, options);
}

PathTransientResult PathModel::analyze_per_slot(
    const LinkProbabilityProvider& links) const {
  WHART_SPAN("path_solve");
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const std::size_t hops = config_.hop_count();
  const std::uint32_t ttl = config_.effective_ttl();
  const std::uint32_t horizon = config_.horizon();

  PathTransientResult result;
  result.cycle_probabilities.assign(config_.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);
  result.discard_probability = 0.0;
  result.expected_transmissions = 0.0;
  result.expected_transmissions_delivered = 0.0;
  result.trajectory_stride = 1;
  result.diagnostics = SolverDiagnostics{};
  result.goal_trajectory.resize(horizon + 1);
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    result.goal_trajectory[trajectory_entry++].assign(
        result.cycle_probabilities.begin(), result.cycle_probabilities.end());
  };
  record_trajectory();

  // Backward pass: beta[t][h] = P(eventual delivery | at (t, h) before
  // slot t+1).  Needed to attribute attempts to delivered messages.
  std::vector<double> beta(static_cast<std::size_t>(ttl) * hops, 0.0);
  const auto beta_at = [&](std::uint32_t t, std::size_t h) -> double& {
    return beta[static_cast<std::size_t>(t) * hops + h];
  };
  for (std::uint32_t t = ttl; t-- > 0;) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const double continue_beta = slot == ttl ? 0.0 : beta_at(t + 1, h);
      if (firing == h) {
        const double ps = links.up_probability(
            h, config_.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops
                ? 1.0
                : (slot == ttl ? 0.0 : beta_at(t + 1, h + 1));
        beta_at(t, h) = ps * success_beta + (1.0 - ps) * continue_beta;
      } else {
        beta_at(t, h) = continue_beta;
      }
    }
  }

  std::vector<double> mass(hops, 0.0);
  mass[0] = 1.0;

  for (std::uint32_t slot = 1; slot <= horizon; ++slot) {
    if (slot <= ttl) {
      if (const auto firing = hop_in_slot(slot); firing.has_value()) {
        const std::size_t h = *firing;
        if (mass[h] > 0.0) {
          const double ps = links.up_probability(
              h, config_.superframe.absolute_slot_of_uplink(slot));
          result.expected_transmissions += mass[h];
          result.expected_transmissions_per_hop[h] += mass[h];
          result.expected_transmissions_delivered +=
              mass[h] * beta_at(slot - 1, h);
          const double moved = mass[h] * ps;
          mass[h] -= moved;
          if (h + 1 == hops) {
            const std::uint32_t cycle =
                (slot - 1) / config_.superframe.uplink_slots;  // 0-based
            result.cycle_probabilities[cycle] += moved;
          } else {
            mass[h + 1] += moved;
          }
        }
      }
      if (slot == ttl) {
        // TTL expired: every in-flight message is discarded.
        for (double& m : mass) {
          result.discard_probability += m;
          m = 0.0;
        }
      }
    }
    record_trajectory();
  }

  result.diagnostics.dtmc_states = num_states_;
  result.diagnostics.transient_states = num_transient_;
  result.diagnostics.absorbing_states = config_.reporting_interval + 1;
  result.diagnostics.forward_steps = horizon;
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  result.diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  WHART_OBSERVE("hart.path_solve.states", num_states_);
  WHART_EVENT(kSolveDone, "hart.path_solve", num_states_, 0);
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

markov::Dtmc PathModel::to_dtmc(const LinkProbabilityProvider& links) const {
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config_.hop_count();
  const std::uint32_t ttl = config_.effective_ttl();
  const std::size_t discard = num_states_ - 1;
  const auto goal_index = [&](std::uint32_t cycle_0based) {
    return num_transient_ + cycle_0based;
  };

  std::vector<linalg::Triplet> transitions;
  std::vector<std::string> names(num_states_);

  // Transient states and their outgoing transitions.
  for (std::uint32_t t = 0; t < ttl; ++t) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t from = state_index_[t][h];
      if (from == kUnreachable) continue;

      // Paper-style descriptor: nodes 1..h+1 hold a copy aged t+1.
      std::string name = "(";
      for (std::size_t node = 0; node < hops; ++node) {
        if (node > 0) name += ",";
        name += node <= h ? std::to_string(t + 1) : "-";
      }
      name += ")";
      names[from] = std::move(name);

      const auto continuation = [&](std::size_t next_h) -> std::size_t {
        if (t + 1 >= ttl) return discard;  // TTL hits zero next step
        const std::size_t idx = state_index_[t + 1][next_h];
        ensures(idx != kUnreachable, "successor state was enumerated");
        return idx;
      };

      if (firing == h) {
        const double ps = links.up_probability(
            h, config_.superframe.absolute_slot_of_uplink(slot));
        const std::size_t success_target =
            h + 1 == hops
                ? goal_index((slot - 1) / config_.superframe.uplink_slots)
                : continuation(h + 1);
        if (ps > 0.0)
          transitions.push_back({from, success_target, ps});
        if (ps < 1.0)
          transitions.push_back({from, continuation(h), 1.0 - ps});
      } else {
        transitions.push_back({from, continuation(h), 1.0});
      }
    }
  }

  // Absorbing states.
  for (std::uint32_t i = 0; i < config_.reporting_interval; ++i) {
    transitions.push_back({goal_index(i), goal_index(i), 1.0});
    names[goal_index(i)] = goal_state_name(i + 1);
  }
  transitions.push_back({discard, discard, 1.0});
  names[discard] = "Discard";

  return markov::Dtmc(num_states_, std::move(transitions), std::move(names));
}

std::string PathModel::goal_state_name(std::uint32_t cycle) const {
  expects(cycle >= 1 && cycle <= config_.reporting_interval,
          "cycle in 1..Is");
  return "R" + std::to_string(config_.gateway_slot() +
                              (cycle - 1) * config_.superframe.uplink_slots);
}

}  // namespace whart::hart
