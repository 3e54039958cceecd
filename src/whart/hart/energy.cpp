#include "whart/hart/energy.hpp"

#include <limits>

#include "whart/common/contracts.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {

double NodeEnergy::battery_life_days(const EnergyParameters& params,
                                     double interval_milliseconds) const {
  expects(interval_milliseconds > 0.0, "interval duration > 0");
  if (mj_per_interval <= 0.0) return std::numeric_limits<double>::infinity();
  const double intervals = params.battery_joules * 1000.0 / mj_per_interval;
  return intervals * interval_milliseconds / (1000.0 * 60.0 * 60.0 * 24.0);
}

std::vector<NodeEnergy> estimate_node_energy(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, const EnergyParameters& params) {
  expects(!paths.empty(), "at least one path");
  expects(params.tx_mj_per_attempt >= 0.0 && params.rx_mj_per_attempt >= 0.0,
          "non-negative energy costs");

  std::vector<NodeEnergy> energies(network.node_count());
  for (std::uint32_t id = 0; id < network.node_count(); ++id)
    energies[id].node = net::NodeId{id};

  for (std::size_t p = 0; p < paths.size(); ++p) {
    const PathModelConfig config = PathModelConfig::from_schedule(
        schedule, p, superframe, reporting_interval);
    const SteadyStateLinks links(paths[p].hop_models(network));
    const PathTransientResult result = analyze_per_slot(config, links);
    for (std::size_t h = 0; h < paths[p].hop_count(); ++h) {
      const auto [from, to] = paths[p].hop(h);
      const double attempts = result.expected_transmissions_per_hop[h];
      energies[from.value].tx_attempts_per_interval += attempts;
      energies[to.value].rx_attempts_per_interval += attempts;
    }
  }

  for (NodeEnergy& node : energies) {
    node.mj_per_interval =
        node.tx_attempts_per_interval * params.tx_mj_per_attempt +
        node.rx_attempts_per_interval * params.rx_mj_per_attempt;
  }
  return energies;
}

std::size_t hottest_node(const std::vector<NodeEnergy>& energies) {
  expects(!energies.empty(), "at least one node");
  std::size_t hottest = 0;
  for (std::size_t i = 1; i < energies.size(); ++i)
    if (energies[i].mj_per_interval > energies[hottest].mj_per_interval)
      hottest = i;
  return hottest;
}

}  // namespace whart::hart
