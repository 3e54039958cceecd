#include "whart/net/plant_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::net {

namespace {

/// Largest-remainder apportionment of `total` devices over the hop-depth
/// fractions; guarantees the counts sum to `total` and depth 1 gets at
/// least one device (someone must talk to the gateway directly).
std::vector<std::uint32_t> apportion_depths(const PlantProfile& profile) {
  const std::vector<double> fractions{
      profile.fraction_one_hop, profile.fraction_two_hop,
      profile.fraction_three_hop, profile.fraction_four_hop};
  const double sum = std::accumulate(fractions.begin(), fractions.end(), 0.0);
  expects(std::abs(sum - 1.0) < 1e-9, "hop fractions sum to 1");

  std::vector<std::uint32_t> counts(fractions.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::uint32_t assigned = 0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double exact = fractions[i] * profile.device_count;
    counts[i] = static_cast<std::uint32_t>(std::floor(exact));
    assigned += counts[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < profile.device_count; ++k, ++assigned)
    ++counts[remainders[k % remainders.size()].second];
  if (counts[0] == 0) {
    // Steal one device from the deepest non-empty tier.
    for (std::size_t i = counts.size(); i-- > 1;) {
      if (counts[i] > 0) {
        --counts[i];
        ++counts[0];
        break;
      }
    }
  }
  // A depth can only be populated when the previous depth is.
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] > 0 && counts[i - 1] == 0) {
      counts[i - 1] += counts[i];
      counts[i] = 0;
    }
  }
  return counts;
}

}  // namespace

GeneratedPlant generate_plant(const PlantProfile& profile) {
  expects(profile.device_count >= 1, "at least one device");
  expects(profile.min_availability > 0.0 &&
              profile.min_availability <= profile.max_availability &&
              profile.max_availability <= 1.0,
          "0 < min_availability <= max_availability <= 1");

  numeric::Xoshiro256 rng(profile.seed);
  const auto draw_model = [&] {
    const double span =
        profile.max_availability - profile.min_availability;
    const double availability = profile.min_availability + rng.uniform() * span;
    return link::LinkModel::from_availability(availability,
                                              profile.recovery_probability);
  };

  const std::vector<std::uint32_t> depth_counts = apportion_depths(profile);

  Network network;
  std::vector<std::vector<NodeId>> by_depth(depth_counts.size() + 1);
  by_depth[0].push_back(kGateway);
  std::uint32_t device_number = 1;
  for (std::size_t depth = 1; depth <= depth_counts.size(); ++depth) {
    for (std::uint32_t i = 0; i < depth_counts[depth - 1]; ++i) {
      const NodeId node =
          network.add_node("n" + std::to_string(device_number++));
      const auto& parents = by_depth[depth - 1];
      const NodeId parent = parents[rng.below(parents.size())];
      network.add_link(node, parent, draw_model());
      by_depth[depth].push_back(node);
    }
  }

  // One uplink path per device, following the single relay chain upward.
  std::vector<Path> paths;
  for (std::uint32_t id = 1; id < network.node_count(); ++id) {
    std::vector<NodeId> chain{NodeId{id}};
    while (chain.back() != kGateway) {
      // Each node has exactly one neighbor closer to the gateway: the
      // first neighbor added (its parent).
      const auto neighbors = network.neighbors(chain.back());
      chain.push_back(neighbors.front());
    }
    paths.emplace_back(std::move(chain));
  }

  const std::uint32_t fup = required_uplink_slots(paths);
  Schedule schedule = build_schedule(paths, fup, profile.policy);
  return GeneratedPlant{std::move(network), std::move(paths),
                        std::move(schedule),
                        SuperframeConfig::symmetric(fup)};
}

}  // namespace whart::net
