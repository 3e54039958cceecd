#include "whart/hart/network_analysis.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

NetworkMeasures typical_measures(double availability,
                                 bool use_eta_b = false) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(availability));
  return analyze_network(t.network, t.paths,
                         use_eta_b ? t.eta_b : t.eta_a, t.superframe,
                         net::kTypicalReportingInterval);
}

TEST(NetworkAnalysis, TenPathMeasures) {
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_EQ(m.per_path.size(), 10u);
}

TEST(NetworkAnalysis, ReachabilityDecreasesWithHopCount) {
  const NetworkMeasures m = typical_measures(0.83);
  // Paths 1-3 (one hop) > paths 4-8 (two hops) > paths 9-10 (three hops).
  EXPECT_GT(m.per_path[0].reachability, m.per_path[4].reachability);
  EXPECT_GT(m.per_path[4].reachability, m.per_path[9].reachability);
}

TEST(NetworkAnalysis, MeanDelayMatchesPaperFig15) {
  // Paper: E[Gamma] = 235 ms for eta_a at pi(up) = 0.83.
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_NEAR(m.mean_delay_ms, 235.0, 1.5);
}

TEST(NetworkAnalysis, BottleneckIsPathTen) {
  // Paper: path 10 has E[tau] ~ 421 ms under eta_a.
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_EQ(m.bottleneck_by_delay, 9u);
  EXPECT_NEAR(m.per_path[9].expected_delay_ms, 421.4, 1.0);
  EXPECT_EQ(m.bottleneck_by_reachability, 8u);  // first 3-hop path
}

TEST(NetworkAnalysis, OverallDelayDistributionSumsToMeanReachShare) {
  const NetworkMeasures m = typical_measures(0.83);
  double mass = 0.0;
  for (const auto& point : m.overall_delay_distribution)
    mass += point.probability;
  // Each path's tau sums to 1, so the average sums to 1.
  EXPECT_NEAR(mass, 1.0, 1e-12);
  // Sorted ascending by delay.
  for (std::size_t i = 1; i < m.overall_delay_distribution.size(); ++i)
    EXPECT_LT(m.overall_delay_distribution[i - 1].delay_ms,
              m.overall_delay_distribution[i].delay_ms);
}

TEST(NetworkAnalysis, OverallDelayFirstCycleShareMatchesPaperFig14) {
  // Paper: 70.8% of the messages reach the gateway in the first cycle and
  // 21.7% in the second.
  const NetworkMeasures m = typical_measures(0.83);
  double first_cycle = 0.0;
  double second_cycle = 0.0;
  for (const auto& point : m.overall_delay_distribution) {
    if (point.delay_ms < 400.0)
      first_cycle += point.probability;
    else if (point.delay_ms < 800.0)
      second_cycle += point.probability;
  }
  EXPECT_NEAR(first_cycle, 0.708, 0.005);
  EXPECT_NEAR(second_cycle, 0.217, 0.005);
}

TEST(NetworkAnalysis, UtilizationDecreasesWithAvailability) {
  // Paper Table II: utilization falls from 0.313 at 0.693 to 0.24 at
  // 0.989.
  double previous = 1.0;
  for (double pi : {0.693, 0.774, 0.83, 0.903, 0.948, 0.989}) {
    const NetworkMeasures m = typical_measures(pi);
    EXPECT_LT(m.network_utilization, previous) << "pi=" << pi;
    previous = m.network_utilization;
  }
}

TEST(NetworkAnalysis, UtilizationMatchesPaperTable2Anchors) {
  // Table II uses delivered-only accounting; at these availabilities the
  // discard mass is tiny, so the exact count is close as well.
  EXPECT_NEAR(typical_measures(0.903).network_utilization_delivered, 0.263,
              0.002);
  EXPECT_NEAR(typical_measures(0.948).network_utilization_delivered, 0.250,
              0.002);
  EXPECT_NEAR(typical_measures(0.989).network_utilization_delivered, 0.240,
              0.002);
  EXPECT_NEAR(typical_measures(0.948).network_utilization, 0.250, 0.005);
}

TEST(NetworkAnalysis, EtaBBalancesDelays) {
  const NetworkMeasures a = typical_measures(0.83, false);
  const NetworkMeasures b = typical_measures(0.83, true);
  // Paper Fig. 16: path 10 drops from ~421 to ~291 ms...
  EXPECT_NEAR(b.per_path[9].expected_delay_ms, 291.9, 1.0);
  // ... the spread narrows ...
  const auto spread = [](const NetworkMeasures& m) {
    double lo = 1e18;
    double hi = 0.0;
    for (const auto& p : m.per_path) {
      lo = std::min(lo, p.expected_delay_ms);
      hi = std::max(hi, p.expected_delay_ms);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(b), spread(a));
  // ... and the overall mean rises slightly (paper: 235 -> 272 ms).
  EXPECT_NEAR(b.mean_delay_ms, 272.0, 1.5);
  EXPECT_GT(b.mean_delay_ms, a.mean_delay_ms);
}

TEST(NetworkAnalysis, ReachabilityUnaffectedBySchedulePolicy) {
  const NetworkMeasures a = typical_measures(0.83, false);
  const NetworkMeasures b = typical_measures(0.83, true);
  for (std::size_t p = 0; p < 10; ++p)
    EXPECT_NEAR(a.per_path[p].reachability, b.per_path[p].reachability,
                1e-12);
}

TEST(NetworkAnalysis, DiagnosticsAccountForEveryPath) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));

  // Every path is solved once, under either kernel, even where paths
  // share a shape (10 paths, 3 shapes): one diagnostics block per path.
  for (const TransientKernel kernel :
       {TransientKernel::kSuperframeProduct, TransientKernel::kPerSlot}) {
    AnalysisOptions options;
    options.kernel = kernel;
    const NetworkMeasures measures =
        analyze_network(t.network, t.paths, t.eta_a, t.superframe,
                        net::kTypicalReportingInterval, options);
    EXPECT_EQ(measures.diagnostics.dtmc_solves, t.paths.size());
    EXPECT_EQ(measures.diagnostics.cache_hits, 0u);
    EXPECT_LT(measures.diagnostics.max_mass_residual, 1e-9);
    std::uint64_t states = 0;
    for (const PathMeasures& m : measures.per_path) {
      ASSERT_TRUE(m.diagnostics.has_value());
      EXPECT_EQ(m.diagnostics->kernel, kernel);
      EXPECT_GT(m.diagnostics->dtmc_states, 0u);
      EXPECT_EQ(m.diagnostics->dtmc_states,
                m.diagnostics->transient_states +
                    m.diagnostics->absorbing_states);
      EXPECT_EQ(m.diagnostics->forward_steps,
                std::uint64_t{net::kTypicalReportingInterval} *
                    t.superframe.uplink_slots);
      states += m.diagnostics->dtmc_states;
    }
    EXPECT_EQ(measures.diagnostics.states_solved, states);
  }
}

TEST(NetworkAnalysis, AggregateRejectsEmptyInput) {
  EXPECT_THROW(aggregate_measures({}), precondition_error);
}

}  // namespace
}  // namespace whart::hart
