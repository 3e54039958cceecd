#include "whart/hart/sensitivity.hpp"

#include <algorithm>
#include <optional>

#include "whart/common/contracts.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/linalg/matrix.hpp"

namespace whart::hart {

namespace {

std::optional<std::size_t> hop_in_slot(const PathModelConfig& config,
                                       std::uint32_t global_slot) {
  const net::SlotNumber in_frame =
      ((global_slot - 1) % config.superframe.uplink_slots) + 1;
  for (std::size_t h = 0; h < config.hop_slots.size(); ++h)
    if (config.hop_slots[h] == in_frame) return h;
  return std::nullopt;
}

/// Collapsed adjoint over the compact message chain: the per-slot sum
/// mass * (beta_success - beta_failure) for hop h over one full cycle is
/// the bilinear form p G_h b with
///   G_h = sum over slots j firing hop h of
///         (column h of Prefix_{j-1}) ((e_target - e_h)^T Suffix_{j+1}),
/// p the cycle-entry distribution and b the eventual-delivery vector at
/// the cycle's end.  Prefix and suffix advance by dense column and row
/// updates at the firing slots (idle slots are identities), the prefix
/// after the last firing is the cycle matrix, and full pre-TTL cycles
/// then cost one form each; only the cycle the TTL cuts runs per-slot.
/// Like the per-slot sweep, only dedicated hop slots fire.
std::vector<double> sensitivity_superframe(
    const PathModelConfig& config, const LinkProbabilityProvider& links) {
  const std::size_t hops = config.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();

  struct Firing {
    std::uint32_t slot;
    std::size_t hop;
    double ps;
  };
  std::vector<Firing> firings;
  firings.reserve(hops);
  for (std::uint32_t slot = 1; slot <= frame; ++slot)
    if (const auto h = hop_in_slot(config, slot); h.has_value())
      firings.push_back(
          {slot, *h,
           links.up_probability(
               *h, config.superframe.absolute_slot_of_uplink(slot))});
  const auto target_of = [&](std::size_t h) {
    return h + 1 == hops ? goal : h + 1;
  };

  // Prefix sweep (column updates); the final prefix is the cycle matrix.
  linalg::Matrix prefix = linalg::Matrix::identity(dim);
  std::vector<linalg::Vector> prefix_columns;
  prefix_columns.reserve(firings.size());
  for (const Firing& f : firings) {
    linalg::Vector column(dim);
    for (std::size_t r = 0; r < dim; ++r) column[r] = prefix(r, f.hop);
    prefix_columns.push_back(std::move(column));
    const std::size_t target = target_of(f.hop);
    for (std::size_t r = 0; r < dim; ++r) {
      prefix(r, target) += f.ps * prefix(r, f.hop);
      prefix(r, f.hop) *= 1.0 - f.ps;
    }
  }
  const linalg::Matrix& product = prefix;

  // Suffix sweep (row updates) accumulating the per-hop adjoint.
  std::vector<linalg::Matrix> adjoint(hops, linalg::Matrix(dim, dim));
  linalg::Matrix suffix = linalg::Matrix::identity(dim);
  for (std::size_t i = firings.size(); i-- > 0;) {
    const Firing& f = firings[i];
    // Here suffix == Suffix_{slot+1}: beta right after this slot fires.
    const std::size_t target = target_of(f.hop);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        adjoint[f.hop](r, c) += prefix_columns[i][r] *
                                (suffix(target, c) - suffix(f.hop, c));
    for (std::size_t c = 0; c < dim; ++c)
      suffix(f.hop, c) =
          (1.0 - f.ps) * suffix(f.hop, c) + f.ps * suffix(target, c);
  }

  // Delivery vectors at the end of each full pre-TTL cycle, backward
  // from the TTL cycle (whose interior runs per-slot from e_goal — the
  // transient mass alive at the TTL slot is lost, delivery 0).
  const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
  linalg::Vector b(dim);
  b[goal] = 1.0;
  std::vector<linalg::Vector> beta_in_ttl_cycle;  // per slot, newest first
  for (std::uint32_t slot = ttl; slot > ttl_cycle * frame; --slot) {
    beta_in_ttl_cycle.push_back(b);
    if (const auto firing = hop_in_slot(config, slot); firing.has_value()) {
      const std::size_t h = *firing;
      const double ps = links.up_probability(
          h, config.superframe.absolute_slot_of_uplink(slot));
      const std::size_t target = target_of(h);
      b[h] = ps * b[target] + (1.0 - ps) * b[h];
    }
  }
  std::vector<linalg::Vector> cycle_end_delivery(ttl_cycle);
  if (ttl_cycle > 0) {
    cycle_end_delivery[ttl_cycle - 1] = b;
    for (std::uint32_t c = ttl_cycle - 1; c-- > 0;)
      cycle_end_delivery[c] =
          linalg::multiply(product, cycle_end_delivery[c + 1]);
  }

  std::vector<double> sensitivity(hops, 0.0);
  linalg::Vector p(dim);
  p[0] = 1.0;
  for (std::uint32_t cycle = 0; cycle < ttl_cycle; ++cycle) {
    for (std::size_t h = 0; h < hops; ++h) {
      double form = 0.0;
      for (std::size_t r = 0; r < dim; ++r) {
        double row = 0.0;
        for (std::size_t c = 0; c < dim; ++c)
          row += adjoint[h](r, c) * cycle_end_delivery[cycle][c];
        form += p[r] * row;
      }
      sensitivity[h] += form;
    }
    p = linalg::multiply(p, product);
  }
  // The cycle the TTL cuts, per-slot (beta vectors recorded above are in
  // reverse slot order: entry k corresponds to slot ttl - k, i.e. beta
  // right after that slot fires).
  for (std::uint32_t slot = ttl_cycle * frame + 1; slot <= ttl; ++slot) {
    if (const auto firing = hop_in_slot(config, slot); firing.has_value()) {
      const std::size_t h = *firing;
      const double ps = links.up_probability(
          h, config.superframe.absolute_slot_of_uplink(slot));
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      const linalg::Vector& beta_after = beta_in_ttl_cycle[ttl - slot];
      sensitivity[h] += p[h] * (beta_after[target] - beta_after[h]);
      const double moved = p[h] * ps;
      p[h] -= moved;
      if (h + 1 == hops)
        p[goal] += moved;
      else
        p[h + 1] += moved;
    }
  }
  return sensitivity;
}

std::vector<double> sensitivity_per_slot(
    const PathModelConfig& config, const LinkProbabilityProvider& links) {
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config.hop_count();
  const std::uint32_t ttl = config.effective_ttl();

  // Backward pass: beta[t][h] = P(delivery | at (t, h)).
  std::vector<std::vector<double>> beta(ttl + 1,
                                        std::vector<double>(hops, 0.0));
  for (std::uint32_t t = ttl; t-- > 0;) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(config, slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const double continue_beta = slot == ttl ? 0.0 : beta[t + 1][h];
      if (firing == h) {
        const double ps = links.up_probability(
            h, config.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops ? 1.0
                          : (slot == ttl ? 0.0 : beta[t + 1][h + 1]);
        beta[t][h] = ps * success_beta + (1.0 - ps) * continue_beta;
      } else {
        beta[t][h] = continue_beta;
      }
    }
  }

  // Forward pass accumulating the adjoint: each attempt of hop h at slot
  // s contributes mass * (beta_success - beta_failure) to dR/dps_h.
  std::vector<double> sensitivity(hops, 0.0);
  std::vector<double> mass(hops, 0.0);
  mass[0] = 1.0;
  for (std::uint32_t slot = 1; slot <= ttl; ++slot) {
    const std::optional<std::size_t> firing = hop_in_slot(config, slot);
    if (firing.has_value()) {
      const std::size_t h = *firing;
      if (mass[h] > 0.0) {
        const double ps = links.up_probability(
            h, config.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops ? 1.0
                          : (slot == ttl ? 0.0 : beta[slot][h + 1]);
        const double failure_beta = slot == ttl ? 0.0 : beta[slot][h];
        sensitivity[h] += mass[h] * (success_beta - failure_beta);
        const double moved = mass[h] * ps;
        mass[h] -= moved;
        if (h + 1 < hops) mass[h + 1] += moved;
        // Delivered mass leaves the transient system.
      }
    }
    if (slot == ttl) break;
  }
  return sensitivity;
}

/// The kernel dispatch of reachability_sensitivity over a bare config.
std::vector<double> sensitivity_of(const PathModelConfig& config,
                                   const LinkProbabilityProvider& links,
                                   TransientKernel kernel) {
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  if (kernel == TransientKernel::kSuperframeProduct &&
      links.cycle_stationary())
    return sensitivity_superframe(config, links);
  return sensitivity_per_slot(config, links);
}

}  // namespace

std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links,
    TransientKernel kernel) {
  return sensitivity_of(model.config(), links, kernel);
}

std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads,
    TransientKernel kernel) {
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
        per_hop_all[p] = sensitivity_of(config, links, kernel);
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
