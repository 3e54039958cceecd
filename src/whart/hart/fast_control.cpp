#include "whart/hart/fast_control.hpp"

#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/hart/analytic.hpp"

namespace whart::hart {

std::vector<ReportingIntervalPoint> sweep_reporting_interval(
    PathModelConfig base_config, double ps,
    const std::vector<std::uint32_t>& reporting_intervals) {
  expects(!reporting_intervals.empty(), "at least one reporting interval");
  std::vector<ReportingIntervalPoint> points;
  points.reserve(reporting_intervals.size());
  for (std::uint32_t is : reporting_intervals) {
    expects(is >= 1, "Is >= 1");
    PathModelConfig config = base_config;
    config.reporting_interval = is;
    config.ttl.reset();
    const SteadyStateLinks links(config.hop_count(),
                                 link::LinkModel::from_availability(ps));
    ReportingIntervalPoint point;
    point.reporting_interval = is;
    point.measures =
        measures_from_transient(config, analyze_per_slot(config, links));
    point.delivered_per_cycle = point.measures.reachability / is;
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<MessageBlock> one_hop_message_blocks(double ps,
                                                 std::uint32_t window_cycles,
                                                 std::uint32_t Is) {
  expects(Is >= 1, "Is >= 1");
  expects(window_cycles % Is == 0, "window is a multiple of Is");
  expects(ps >= 0.0 && ps <= 1.0, "0 <= ps <= 1");
  double reach = 0.0;
  double miss = 1.0;
  for (std::uint32_t c = 0; c < Is; ++c) {
    reach += miss * ps;
    miss *= 1.0 - ps;
  }
  std::vector<MessageBlock> blocks;
  for (std::uint32_t born = 0; born < window_cycles; born += Is)
    blocks.push_back(MessageBlock{born, Is, reach});
  return blocks;
}

std::optional<std::uint32_t> minimum_reporting_interval(
    std::uint32_t hops, double ps, double target_reachability,
    std::uint32_t max_interval) {
  expects(hops >= 1, "hops >= 1");
  expects(ps >= 0.0 && ps <= 1.0, "0 <= ps <= 1");
  expects(target_reachability >= 0.0 && target_reachability <= 1.0,
          "0 <= target <= 1");
  expects(max_interval >= 1, "max_interval >= 1");
  // Reachability is monotone in Is, so scan the (short) ladder once.
  const std::vector<double> cycles =
      analytic_cycle_probabilities(hops, ps, max_interval);
  double reach = 0.0;
  for (std::uint32_t is = 1; is <= max_interval; ++is) {
    reach += cycles[is - 1];
    if (reach >= target_reachability) return is;
  }
  return std::nullopt;
}

}  // namespace whart::hart
