// rank_link_upgrades determinism golden: the ranking
// is computed by a parallel per-path fan-out, so it must be independent
// of the worker count — bitwise, not merely within tolerance — and ties
// between equal-score upgrades must resolve the same way every time.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/sensitivity.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

void expect_same_ranking(const std::vector<LinkSensitivity>& golden,
                         const std::vector<LinkSensitivity>& other) {
  ASSERT_EQ(golden.size(), other.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i].link, other[i].link) << "rank " << i;
    EXPECT_EQ(golden[i].paths_using, other[i].paths_using) << "rank " << i;
    EXPECT_EQ(golden[i].total_dR_dpi, other[i].total_dR_dpi) << "rank " << i;
  }
}

TEST(RankLinkUpgradesDeterminism, ParallelEqualsSerialAcrossThreadCounts) {
  // The heterogeneous typical network: distinct scores, so any ordering
  // instability shows as a rank swap; the serial run is the golden.
  const net::TypicalNetwork t = net::make_typical_network();
  const auto golden = rank_link_upgrades(t.network, t.paths, t.eta_a,
                                         t.superframe,
                                         net::kTypicalReportingInterval, 1);
  for (const unsigned threads : {4u, 16u}) {
    const auto ranking =
        rank_link_upgrades(t.network, t.paths, t.eta_a, t.superframe,
                           net::kTypicalReportingInterval, threads);
    expect_same_ranking(golden, ranking);
  }
}

TEST(RankLinkUpgradesDeterminism, BatchedLanesKeepTheOrderAcrossThreads) {
  // The homogeneous typical network (every link at pi = 0.83): links in
  // the same position of equal-shape paths tie, so the ranking leans on
  // the stable tie order.  Repeated runs at 1, 4 and 16 threads must
  // equal the serial golden bitwise, order included.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const auto golden = rank_link_upgrades(t.network, t.paths, t.eta_a,
                                         t.superframe,
                                         net::kTypicalReportingInterval, 1);
  for (const unsigned threads : {1u, 4u, 16u}) {
    const auto ranking =
        rank_link_upgrades(t.network, t.paths, t.eta_a, t.superframe,
                           net::kTypicalReportingInterval, threads);
    expect_same_ranking(golden, ranking);
  }
}

TEST(RankLinkUpgradesDeterminism, EqualScoreTiesResolveIdenticallyEverywhere) {
  // A star of identical one-hop paths: every link has exactly the same
  // dR/dpi, so the whole ranking is one big tie — the order must come
  // out ascending by link id for every thread count, or two
  // runs of the same analysis would recommend different upgrades.
  net::Network star;
  std::vector<net::Path> paths;
  for (int d = 0; d < 6; ++d) {
    const net::NodeId node = star.add_node("d" + std::to_string(d + 1));
    star.add_link(net::kGateway, node,
                  link::LinkModel::from_availability(0.8));
    paths.push_back(net::Path({node, net::kGateway}));
  }
  const net::Schedule schedule = net::build_schedule(
      paths, 6, net::SchedulingPolicy::kShortestPathsFirst);
  const net::SuperframeConfig superframe =
      net::SuperframeConfig::symmetric(6);
  for (const unsigned threads : {1u, 4u, 16u}) {
    const auto ranking =
        rank_link_upgrades(star, paths, schedule, superframe, 3, threads);
    ASSERT_EQ(ranking.size(), 6u);
    EXPECT_EQ(ranking.front().total_dR_dpi, ranking.back().total_dR_dpi);
    for (std::size_t i = 0; i < ranking.size(); ++i)
      EXPECT_EQ(ranking[i].link.value, static_cast<std::uint32_t>(i))
          << "threads " << threads;
  }
}

}  // namespace
}  // namespace whart::hart
