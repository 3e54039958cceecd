#include "whart/hart/failure.hpp"

#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/hart/analytic.hpp"
#include "whart/link/failure_script.hpp"

namespace whart::hart {

double cycle_shift_reachability(std::uint32_t hops, double ps,
                                std::uint32_t reporting_interval,
                                std::uint32_t lost_cycles) {
  if (lost_cycles >= reporting_interval) return 0.0;
  const std::vector<double> cycles = analytic_cycle_probabilities(
      hops, ps, reporting_interval - lost_cycles);
  return std::accumulate(cycles.begin(), cycles.end(), 0.0);
}

double scripted_failure_reachability(const PathModelConfig& config,
                                     const std::vector<link::LinkModel>& hops,
                                     std::size_t failed_hop,
                                     std::uint32_t failure_cycles) {
  expects(failed_hop < hops.size(), "failed hop in range");
  const ScriptedLinks links(
      hops, failed_hop,
      {link::cycle_window(0, failure_cycles,
                          config.superframe.cycle_slots())});
  const PathTransientResult result = analyze_per_slot(config, links);
  return std::accumulate(result.cycle_probabilities.begin(),
                         result.cycle_probabilities.end(), 0.0);
}

double random_duration_failure_reachability(std::uint32_t hops, double ps,
                                            std::uint32_t reporting_interval,
                                            double continue_probability,
                                            std::uint32_t max_cycles) {
  expects(continue_probability >= 0.0 && continue_probability < 1.0,
          "0 <= q < 1");
  expects(max_cycles >= 1, "max_cycles >= 1");
  double mixed = 0.0;
  double mass_left = 1.0;
  for (std::uint32_t k = 1; k <= max_cycles; ++k) {
    const double weight = k == max_cycles
                              ? mass_left
                              : mass_left * (1.0 - continue_probability);
    mixed += weight *
             cycle_shift_reachability(hops, ps, reporting_interval, k);
    mass_left -= weight;
  }
  return mixed;
}

std::vector<LinkFailureImpact> one_cycle_link_failure(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, net::LinkId failed_link) {
  std::vector<LinkFailureImpact> impacts;
  impacts.reserve(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    LinkFailureImpact impact;
    impact.path_index = p;

    const PathModelConfig config = PathModelConfig::from_schedule(
        schedule, p, superframe, reporting_interval);
    const std::vector<link::LinkModel> hop_models =
        paths[p].hop_models(network);
    const std::vector<net::LinkId> hop_links =
        paths[p].resolve_links(network);

    const SteadyStateLinks steady(hop_models);
    const PathTransientResult nominal = analyze_per_slot(config, steady);
    impact.reachability_nominal =
        std::accumulate(nominal.cycle_probabilities.begin(),
                        nominal.cycle_probabilities.end(), 0.0);

    std::size_t failed_hop = hop_links.size();
    for (std::size_t h = 0; h < hop_links.size(); ++h)
      if (hop_links[h] == failed_link) failed_hop = h;
    impact.affected = failed_hop < hop_links.size();

    if (!impact.affected) {
      impact.reachability_cycle_shift = impact.reachability_nominal;
      impact.reachability_exact = impact.reachability_nominal;
    } else {
      // The paper's Table III uses homogeneous links; use the failed
      // hop's availability as the per-attempt success probability.
      const double ps =
          hop_models[failed_hop].steady_state_availability();
      impact.reachability_cycle_shift = cycle_shift_reachability(
          static_cast<std::uint32_t>(config.hop_count()), ps,
          reporting_interval, 1);
      impact.reachability_exact = scripted_failure_reachability(
          config, hop_models, failed_hop, 1);
    }
    impacts.push_back(std::move(impact));
  }
  return impacts;
}

std::vector<std::optional<net::Path>> reroute_after_permanent_failure(
    const net::Network& network, const std::vector<net::Path>& paths,
    net::LinkId failed_link) {
  std::vector<std::optional<net::Path>> rerouted;
  rerouted.reserve(paths.size());
  for (const net::Path& path : paths) {
    if (!path.uses_link(network, failed_link)) {
      rerouted.emplace_back(path);
      continue;
    }
    rerouted.push_back(net::shortest_uplink_path_avoiding(
        network, path.source(), {failed_link}));
  }
  return rerouted;
}

}  // namespace whart::hart
