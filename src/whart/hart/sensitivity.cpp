#include "whart/hart/sensitivity.hpp"

#include <algorithm>
#include <optional>

#include "whart/common/contracts.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/channel_layout.hpp"
#include "whart/hart/what_if.hpp"

namespace whart::hart {

namespace {

/// The adjoint over the compact i.i.d. chain: each attempt of hop h at
/// uplink slot s contributes mass * (beta_success - beta_failure) to
/// dR/dps_h, with beta the per-slot walk's backward delivery recursion
/// (channel models are ignored: their up_probability is the marginal).
std::vector<double> path_sensitivity(const PathModelConfig& config,
                                     const LinkProbabilityProvider& links) {
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config.hop_count();
  const std::uint32_t ttl = config.effective_ttl();
  const detail::ChannelLayout layout =
      detail::make_layout(config, links, /*enlarged=*/false);
  // beta[t * hops + h] = P(delivery | at hop h before slot t + 1).
  const std::vector<double> beta =
      detail::delivery_probabilities(config, layout, links, false);

  std::vector<double> sensitivity(hops, 0.0);
  std::vector<double> mass(hops, 0.0);
  mass[0] = 1.0;
  for (std::uint32_t slot = 1; slot <= ttl; ++slot) {
    const std::optional<std::size_t> firing = config.hop_in_slot(slot);
    if (!firing.has_value() || mass[*firing] <= 0.0) continue;
    const std::size_t h = *firing;
    const double ps = links.up_probability(
        h, config.superframe.absolute_slot_of_uplink(slot));
    const double* after = beta.data() + static_cast<std::size_t>(slot) * hops;
    const double success_beta = h + 1 == hops ? 1.0 : after[h + 1];
    sensitivity[h] += mass[h] * (success_beta - after[h]);
    const double moved = mass[h] * ps;
    mass[h] -= moved;
    if (h + 1 < hops) mass[h + 1] += moved;
    // Delivered mass leaves the transient system.
  }
  return sensitivity;
}

}  // namespace

std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links) {
  return path_sensitivity(model.config(), links);
}

std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads) {
  expects(!paths.empty(), "at least one path");
  std::vector<LinkSensitivity> ranking;
  for (net::LinkId id : network.links())
    ranking.push_back(LinkSensitivity{id, 0.0, 0});

  // Per-path sweeps fan out across threads; the accumulation over shared
  // links stays serial and in path order so the sums are reproducible.
  std::vector<std::vector<double>> per_hop_all(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathModelConfig config = PathModelConfig::from_schedule(
            schedule, p, superframe, reporting_interval);
        config.validate();
        const SteadyStateLinks links(paths[p].hop_models(network));
        per_hop_all[p] = path_sensitivity(config, links);
      },
      threads);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::vector<net::LinkId> hop_links =
        paths[p].resolve_links(network);
    for (std::size_t h = 0; h < hop_links.size(); ++h) {
      ranking[hop_links[h].value].total_dR_dpi += per_hop_all[p][h];
      ++ranking[hop_links[h].value].paths_using;
    }
  }

  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkSensitivity& a, const LinkSensitivity& b) {
                     return a.total_dR_dpi > b.total_dR_dpi;
                   });
  return ranking;
}

std::vector<LinkUpgradeImpact> evaluate_link_upgrades(
    WhatIfEngine& engine, double target_availability) {
  expects(target_availability >= 0.0 && target_availability <= 1.0,
          "availability in [0, 1]");
  // The all-links what-if sweep: one incremental query per link.  The
  // base vector is in ascending link-id order (Network::links), so the
  // stable sort leaves equal-delta links id-ordered — the same
  // tie-breaking rank_link_upgrades applies.
  std::vector<LinkUpgradeImpact> ranking;
  ranking.reserve(engine.links().size());
  for (net::LinkId link : engine.links()) {
    const WhatIfDelta delta = engine.what_if_delta(link, target_availability);
    ranking.push_back({link, delta.reachability_delta,
                       delta.worst_expected_delay_ms, delta.paths_resolved});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkUpgradeImpact& a, const LinkUpgradeImpact& b) {
                     return a.reachability_delta > b.reachability_delta;
                   });
  return ranking;
}

}  // namespace whart::hart
