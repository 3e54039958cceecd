#include "whart/hart/network_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/phy/frame.hpp"

namespace whart::hart {

NetworkMeasures analyze_network(const net::Network& network,
                                const std::vector<net::Path>& paths,
                                const net::Schedule& schedule,
                                net::SuperframeConfig superframe,
                                std::uint32_t reporting_interval,
                                const AnalysisOptions& options) {
  WHART_REQUEST_SPAN("analyze_network");
  expects(!paths.empty(), "at least one path");
  WHART_COUNT("hart.network.analyses");
  WHART_GAUGE_SET("hart.network.paths", static_cast<double>(paths.size()));

  std::vector<PathModelConfig> configs(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p)
    configs[p] = PathModelConfig::from_schedule(schedule, p, superframe,
                                                reporting_interval);
  PathAnalysisOptions path_options;
  path_options.kernel = options.kernel;

  std::vector<PathMeasures> per_path(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathModelConfig& config = configs[p];
        std::vector<double> availability;
        availability.reserve(config.hop_count());
        for (const link::LinkModel& model : paths[p].hop_models(network))
          availability.push_back(model.steady_state_availability());
        if (options.channel.has_value()) {
          // Channel-enlarged solve: each hop runs the overlay rescaled to
          // its own availability.
          std::vector<link::ChannelModel> channels;
          channels.reserve(availability.size());
          for (double a : availability)
            channels.push_back(options.channel->with_marginal_success(a));
          const ChannelLinks links(std::move(channels));
          per_path[p] = measures_from_transient(
              config, analyze_path(config, links, path_options));
        } else {
          const SteadyStateLinks links(std::move(availability));
          per_path[p] = measures_from_transient(
              config, analyze_path(config, links, path_options));
        }
      },
      options.threads);
  return aggregate_measures(std::move(per_path));
}

NetworkMeasures aggregate_measures(std::vector<PathMeasures> per_path) {
  expects(!per_path.empty(), "at least one path");
  NetworkMeasures result;
  result.per_path = std::move(per_path);

  const double path_count = static_cast<double>(result.per_path.size());
  // Mass is merged per 10 ms slot index, not per raw double delay: equal
  // delays reached through different arithmetic (different gateway slots
  // plus whole cycles) must land in one bin.
  std::map<std::int64_t, double> delay_mass;
  for (std::size_t p = 0; p < result.per_path.size(); ++p) {
    const PathMeasures& m = result.per_path[p];
    result.mean_delay_ms += m.expected_delay_ms / path_count;
    result.network_utilization += m.utilization;
    result.network_utilization_delivered += m.utilization_delivered;
    for (std::size_t i = 0; i < m.delays_ms.size(); ++i)
      delay_mass[static_cast<std::int64_t>(
          std::llround(m.delays_ms[i] / phy::kSlotMilliseconds))] +=
          m.delay_distribution[i] / path_count;
    if (m.expected_delay_ms >
        result.per_path[result.bottleneck_by_delay].expected_delay_ms)
      result.bottleneck_by_delay = p;
    if (m.reachability <
        result.per_path[result.bottleneck_by_reachability].reachability)
      result.bottleneck_by_reachability = p;
    if (m.diagnostics.has_value()) {
      const SolverDiagnostics& d = *m.diagnostics;
      ++result.diagnostics.dtmc_solves;
      result.diagnostics.states_solved += d.dtmc_states;
      result.diagnostics.solve_ns_total += d.solve_ns;
      result.diagnostics.max_mass_residual =
          std::max(result.diagnostics.max_mass_residual, d.mass_residual);
    }
  }
  result.overall_delay_distribution.reserve(delay_mass.size());
  for (const auto& [slot, probability] : delay_mass)
    result.overall_delay_distribution.push_back(
        {static_cast<double>(slot) * phy::kSlotMilliseconds, probability});
  return result;
}

}  // namespace whart::hart
