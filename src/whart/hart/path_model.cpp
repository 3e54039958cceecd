#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/channel_layout.hpp"
#include "whart/linalg/sparse.hpp"

namespace whart::hart {

using detail::success_probability;

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
  // horizon() multiplies in 32 bits; reject the product before it wraps.
  expects(static_cast<std::uint64_t>(reporting_interval) *
                  superframe.uplink_slots <=
              std::numeric_limits<std::uint32_t>::max(),
          "Is * Fup <= 2^32 - 1");
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
  return analyze_per_slot(config_, links);
}

PathTransientResult analyze_path(const PathModelConfig& config,
                                 const LinkProbabilityProvider& links,
                                 const PathAnalysisOptions& options) {
  if (options.kernel == TransientKernel::kSuperframeProduct) {
    if (links.cycle_stationary())
      return analyze_collapsed(config, links, options);
    WHART_COUNT("hart.path_solve.kernel_fallback");
  }
  return analyze_per_slot(config, links, options);
}

namespace detail {

std::vector<double> delivery_probabilities(
    const PathModelConfig& config, const ChannelLayout& layout,
    const LinkProbabilityProvider& links, bool inject_state_leak) {
  const std::size_t hops = config.hop_count();
  const std::size_t n = layout.transient;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();
  const bool mixing = layout.any_mixes();
  std::vector<double> v((static_cast<std::size_t>(ttl) + 1) * n, 0.0);
  std::vector<double> after(mixing ? n : 0, 0.0);
  std::vector<double> mixed(mixing ? n : 0, 0.0);
  // value[x] of entering hop h's block as a fresh stationary draw.
  const auto entry = [&](const double* value, std::size_t h) {
    if (!layout.mixes(h)) return value[layout.off[h]];
    double acc = 0.0;
    for (std::size_t s = 0; s < layout.k[h]; ++s)
      acc += layout.stationary(h, s) * value[layout.off[h] + s];
    return acc;
  };
  for (std::uint32_t t = ttl; t-- > 0;) {
    const std::uint32_t slot = t + 1;
    double* here = v.data() + static_cast<std::size_t>(t) * n;
    // w: the delivery probabilities right after this slot, i.e. the next
    // row pulled back through the downlink half when the slot ends a
    // frame (one-state blocks are unchanged by it).
    const double* w = here + n;
    if (mixing && slot % frame == 0 && slot < ttl) {
      std::copy(w, w + n, after.begin());
      for (std::uint32_t d = 0; d < config.superframe.downlink_slots; ++d)
        for (std::size_t h = 0; h < hops; ++h) {
          if (!layout.mixes(h)) continue;
          const std::size_t off = layout.off[h];
          for (std::size_t s = 0; s < layout.k[h]; ++s) {
            double acc = 0.0;
            for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2)
              acc += layout.transition(h, s, s2) * after[off + s2];
            mixed[off + s] = acc;
          }
          std::copy_n(mixed.begin() + off, layout.k[h], after.begin() + off);
        }
      w = after.data();
    }
    const std::optional<std::size_t> firing = config.hop_in_slot(slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t off = layout.off[h];
      if (firing == h) {
        const double success = h + 1 == hops ? 1.0 : entry(w, h + 1);
        for (std::size_t s = 0; s < layout.k[h]; ++s) {
          const double q =
              success_probability(layout, links, config, h, s, slot);
          double failure = w[off + s];
          if (layout.mixes(h)) {
            failure = 0.0;
            for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2)
              failure += (inject_state_leak ? layout.stationary(h, s2)
                                            : layout.transition(h, s, s2)) *
                         w[off + s2];
          }
          here[off + s] = q * success + (1.0 - q) * failure;
        }
      } else if (layout.mixes(h)) {
        for (std::size_t s = 0; s < layout.k[h]; ++s) {
          double acc = 0.0;
          for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2)
            acc += layout.transition(h, s, s2) * w[off + s2];
          here[off + s] = acc;
        }
      } else {
        here[off] = w[off];
      }
    }
  }
  return v;
}

}  // namespace detail

PathTransientResult analyze_per_slot(const PathModelConfig& config,
                                     const LinkProbabilityProvider& links,
                                     const PathAnalysisOptions& options) {
  WHART_SPAN("path_solve");
  config.validate();
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const std::size_t hops = config.hop_count();
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();
  const bool enlarged = channel_enlarged(links, hops);
  const detail::ChannelLayout layout =
      detail::make_layout(config, links, enlarged);
  const std::size_t n = layout.transient;
  const bool mixing = layout.any_mixes();
  const std::vector<double> delivery = detail::delivery_probabilities(
      config, layout, links, options.inject_channel_state_leak);

  PathTransientResult result;
  result.cycle_probabilities.assign(config.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);

  // Forward pass: the message starts at hop 0 with its channel
  // stationary.  mass[x] is the transient distribution before the slot.
  std::vector<double> mass(n, 0.0);
  for (std::size_t s = 0; s < layout.k[0]; ++s)
    mass[layout.off[0] + s] = layout.stationary(0, s);
  std::vector<double> block(mixing ? n : 0, 0.0);
  // mass <- mass * T_h on hop h's block: one 10 ms slot of its channel.
  const auto mix = [&](std::size_t h) {
    const std::size_t off = layout.off[h];
    const std::size_t k = layout.k[h];
    for (std::size_t s2 = 0; s2 < k; ++s2) {
      double acc = 0.0;
      for (std::size_t s = 0; s < k; ++s)
        acc += mass[off + s] * layout.transition(h, s, s2);
      block[s2] = acc;
    }
    std::copy_n(block.begin(), k, mass.begin() + off);
  };

  for (std::uint32_t slot = 1; slot <= ttl; ++slot) {
    const std::optional<std::size_t> firing = config.hop_in_slot(slot);
    if (mixing)
      for (std::size_t h = 0; h < hops; ++h)
        if (h != firing && layout.mixes(h)) mix(h);
    if (firing.has_value()) {
      const std::size_t h = *firing;
      const std::size_t off = layout.off[h];
      const double* beta =
          delivery.data() + static_cast<std::size_t>(slot - 1) * n;
      double moved = 0.0;
      if (!layout.mixes(h)) {
        if (mass[off] > 0.0) {
          const double ps =
              success_probability(layout, links, config, h, 0, slot);
          result.expected_transmissions += mass[off];
          result.expected_transmissions_per_hop[h] += mass[off];
          result.expected_transmissions_delivered += mass[off] * beta[off];
          moved = mass[off] * ps;
          mass[off] -= moved;
        }
      } else {
        // Success leaves the block; failure stays, conditioned on the
        // attempt's channel state (or, under the leak, forgetting it).
        const std::size_t k = layout.k[h];
        std::fill_n(block.begin(), k, 0.0);
        for (std::size_t s = 0; s < k; ++s) {
          const double m = mass[off + s];
          if (m == 0.0) continue;
          const double q =
              success_probability(layout, links, config, h, s, slot);
          result.expected_transmissions += m;
          result.expected_transmissions_per_hop[h] += m;
          result.expected_transmissions_delivered += m * beta[off + s];
          moved += m * q;
          for (std::size_t s2 = 0; s2 < k; ++s2)
            block[s2] += m * (1.0 - q) *
                         (options.inject_channel_state_leak
                              ? layout.stationary(h, s2)
                              : layout.transition(h, s, s2));
        }
        std::copy_n(block.begin(), k, mass.begin() + off);
      }
      if (h + 1 == hops) {
        result.cycle_probabilities[(slot - 1) / frame] += moved;  // 0-based
      } else {
        // The next hop's channel is a fresh stationary draw.
        for (std::size_t s2 = 0; s2 < layout.k[h + 1]; ++s2)
          mass[layout.off[h + 1] + s2] += moved * layout.stationary(h + 1, s2);
      }
    }
    if (slot == ttl) {
      // TTL expired: every in-flight message is discarded.
      for (double& m : mass) {
        result.discard_probability += m;
        m = 0.0;
      }
    } else if (mixing && slot % frame == 0) {
      for (std::uint32_t d = 0; d < config.superframe.downlink_slots; ++d)
        for (std::size_t h = 0; h < hops; ++h)
          if (layout.mixes(h)) mix(h);
    }
  }

  SolverDiagnostics& d = result.diagnostics;
  d.dtmc_states = layout.dim;
  d.transient_states = n;
  d.absorbing_states = 2;
  d.forward_steps = config.horizon();
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  d.mass_residual = std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  if (enlarged) WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", layout.dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", layout.dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    d.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", d.solve_ns);
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
