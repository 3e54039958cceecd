#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "whart/hart/analytic.hpp"
#include "whart/verify/reference_solver.hpp"

namespace e2e {

namespace {

using whart::hart::PathModelConfig;
using whart::link::ChannelModel;

constexpr double kSlotMs = 10.0;
constexpr double kTolerance = 1e-9;

void require_plain(const PathModelConfig& config) {
  if (!config.retry_slots.empty() || config.ttl.has_value())
    throw std::logic_error("reference: retry slots / TTL not supported");
}

/// R and E[tau] from the per-cycle delivery probabilities, with the
/// Eq. 7 delays d_i = (a0 + i (Fup + Fdown)) * 10 ms.
RefMeasures from_cycles(const PathModelConfig& config,
                        const std::vector<double>& cycles) {
  RefMeasures out;
  double weighted = 0.0;
  const double a0_ms = config.hop_slots.back() * kSlotMs;
  const double cycle_ms =
      (config.superframe.uplink_slots + config.superframe.downlink_slots) *
      kSlotMs;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    out.reachability += cycles[i];
    weighted += (a0_ms + static_cast<double>(i) * cycle_ms) * cycles[i];
  }
  out.expected_delay_ms =
      out.reachability > 0.0 ? weighted / out.reachability : 0.0;
  return out;
}

/// Forward walk over every absolute slot of the interval.  State: the
/// hop holding the message and that hop's channel state, plus the Is
/// goal cells and Discard.  An uplink slot fires its hop (success per
/// channel state; a success enters the next hop in that link's
/// stationary state), every other hop and every downlink slot only
/// advances the channel chain; the last uplink slot of the interval
/// discards whatever is still in flight.
std::vector<double> walk_cycles(const PathModelConfig& config,
                                const std::vector<ChannelModel>& channels) {
  require_plain(config);
  const std::size_t hops = config.hop_count();
  const std::uint32_t fup = config.superframe.uplink_slots;
  const std::uint32_t cycle_slots = fup + config.superframe.downlink_slots;
  const std::uint32_t cycles = config.reporting_interval;
  const std::uint32_t ttl = cycles * fup;

  std::vector<std::vector<double>> mass(hops), next(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    mass[h].assign(channels[h].state_count(), 0.0);
    next[h].assign(channels[h].state_count(), 0.0);
  }
  mass[0] = channels[0].stationary();
  std::vector<double> goal(cycles, 0.0);

  for (std::uint32_t c = 0; c < cycles; ++c) {
    for (std::uint32_t f = 0; f < cycle_slots; ++f) {
      const bool uplink = f < fup;
      const std::uint32_t slot = c * fup + f + 1;
      const bool expires = uplink && slot == ttl;
      std::size_t firing = hops;
      if (uplink)
        for (std::size_t h = 0; h < hops; ++h)
          if (config.hop_slots[h] == f + 1) firing = h;
      for (auto& row : next) std::fill(row.begin(), row.end(), 0.0);
      for (std::size_t h = 0; h < hops; ++h) {
        const ChannelModel& channel = channels[h];
        for (std::size_t s = 0; s < channel.state_count(); ++s) {
          const double m = mass[h][s];
          if (m == 0.0) continue;
          double stay = m;
          if (h == firing) {
            const double success = m * channel.success_in_state(s);
            stay = m - success;
            if (h + 1 == hops) {
              goal[c] += success;
            } else if (!expires) {
              const std::vector<double>& entry = channels[h + 1].stationary();
              for (std::size_t s2 = 0; s2 < entry.size(); ++s2)
                next[h + 1][s2] += success * entry[s2];
            }
          }
          if (expires) continue;  // in-flight mass is discarded
          for (std::size_t s2 = 0; s2 < channel.state_count(); ++s2)
            next[h][s2] += stay * channel.transition(s, s2);
        }
      }
      mass.swap(next);
    }
  }
  return goal;
}

/// The same path shape on a small frame: hops keep their relative slot
/// order, Fup = hops + 2, Fdown = 3, Is = 2.
PathModelConfig small_frame(const PathModelConfig& config) {
  PathModelConfig small = config;
  const std::size_t hops = config.hop_count();
  for (std::size_t h = 0; h < hops; ++h) {
    std::uint32_t rank = 1;
    for (std::size_t g = 0; g < hops; ++g)
      if (config.hop_slots[g] < config.hop_slots[h]) ++rank;
    small.hop_slots[h] = rank + 1;
  }
  small.superframe.uplink_slots = static_cast<std::uint32_t>(hops) + 2;
  small.superframe.downlink_slots = 3;
  small.reporting_interval = 2;
  return small;
}

/// Run the walk, after checking it against the library's dense
/// reference on the small frame of the same shape.
RefMeasures checked_walk(const PathModelConfig& config,
                         const std::vector<ChannelModel>& channels) {
  const PathModelConfig small = small_frame(config);
  bool iid = true;
  std::vector<double> availability;
  for (const ChannelModel& channel : channels) {
    iid = iid && channel.state_count() == 1;
    availability.push_back(channel.success_in_state(0));
  }
  const whart::verify::ReferenceResult dense =
      iid ? whart::verify::reference_solve(small, availability)
          : whart::verify::reference_solve_channel(small, channels);
  const std::vector<double> walked = walk_cycles(small, channels);
  for (std::size_t i = 0; i < walked.size(); ++i)
    if (std::abs(walked[i] - dense.cycle_probabilities[i]) > 1e-12)
      throw std::logic_error("reference walk disagrees with the dense "
                             "reference solver on a small frame");
  return from_cycles(config, walk_cycles(config, channels));
}

/// True when the hop slots strictly increase within the frame.
bool sorted_slots(const PathModelConfig& config) {
  return std::adjacent_find(config.hop_slots.begin(), config.hop_slots.end(),
                            std::greater_equal<>()) == config.hop_slots.end();
}

}  // namespace

RefMeasures reference_iid(const PathModelConfig& config,
                          const std::vector<double>& availability,
                          RefKind* kind) {
  require_plain(config);
  const std::vector<double> ps(availability.begin(),
                               availability.begin() + config.hop_count());
  if (sorted_slots(config)) {
    // Only the closed-form cycle probabilities: the library's own
    // measures-from-cycles step is shared with the production solver.
    if (kind) *kind = RefKind::kAnalytic;
    return from_cycles(config, whart::hart::analytic_cycle_probabilities(
                                   ps, config.reporting_interval));
  }
  if (kind) *kind = RefKind::kWalk;
  std::vector<ChannelModel> channels;
  for (const double p : ps) channels.push_back(ChannelModel::iid(p));
  return checked_walk(config, channels);
}

RefMeasures reference_channel(const PathModelConfig& config,
                              const std::vector<ChannelModel>& channels) {
  return checked_walk(config, channels);
}

bool agrees(const whart::hart::PathMeasures& measures,
            const RefMeasures& reference, std::string& why) {
  const double dr = std::abs(measures.reachability - reference.reachability);
  const double dd =
      std::abs(measures.expected_delay_ms - reference.expected_delay_ms) /
      std::max(1.0, std::abs(reference.expected_delay_ms));
  if (dr <= kTolerance && dd <= kTolerance) return true;
  std::ostringstream text;
  text.precision(17);
  text << "R " << measures.reachability << " vs " << reference.reachability
       << ", E[tau] " << measures.expected_delay_ms << " vs "
       << reference.expected_delay_ms;
  why = text.str();
  return false;
}

}  // namespace e2e
