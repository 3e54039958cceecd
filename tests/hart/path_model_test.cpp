#include "whart/hart/path_model.hpp"

#include <limits>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/markov/transient.hpp"

namespace whart::hart {
namespace {

/// The paper's Section V-A example: 3-hop path, Fup = 7, schedule
/// (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>), i.e. hop slots 3, 6, 7.
PathModelConfig example_config(std::uint32_t is) {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = is;
  return config;
}

TEST(PathModelConfig, Derived) {
  const PathModelConfig config = example_config(4);
  EXPECT_EQ(config.hop_count(), 3u);
  EXPECT_EQ(config.horizon(), 28u);
  EXPECT_EQ(config.effective_ttl(), 28u);
  EXPECT_EQ(config.gateway_slot(), 7u);
}

TEST(PathModel, InvalidConfigsThrow) {
  PathModelConfig config = example_config(1);
  config.hop_slots = {};
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(1);
  config.hop_slots = {3, 8, 7};  // beyond Fup
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(1);
  config.hop_slots = {3, 3, 7};  // duplicate slot
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(0);
  EXPECT_THROW(PathModel{config}, precondition_error);
}

TEST(PathModelConfig, HorizonOverflowIsRejected) {
  // Is * Fup = 2^32 wraps to 0 and 2^32 + 2 wraps to 2 in 32 bits; both
  // must fail on the horizon check, not on a wrapped TTL.
  for (const std::uint32_t is : {1u << 31, (1u << 31) + 1}) {
    PathModelConfig config;
    config.hop_slots = {1};
    config.superframe = net::SuperframeConfig::symmetric(2);
    config.reporting_interval = is;
    SCOPED_TRACE(is);
    try {
      config.validate();
      FAIL() << "expected precondition_error";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("Is * Fup"), std::string::npos)
          << e.what();
    }
    const SteadyStateLinks links(std::vector<double>{0.9});
    EXPECT_THROW((void)analyze_collapsed(config, links), precondition_error);
  }
  // The largest horizon that fits still validates.
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.horizon(), std::numeric_limits<std::uint32_t>::max());
}

TEST(PathModel, SingleCycleGoalProbabilityIsProductOfAvailabilities) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  ASSERT_EQ(result.cycle_probabilities.size(), 1u);
  EXPECT_NEAR(result.cycle_probabilities[0], 0.75 * 0.75 * 0.75, 1e-12);
  EXPECT_NEAR(result.discard_probability,
              1.0 - result.cycle_probabilities[0], 1e-12);
}

TEST(PathModel, MassIsConservedAtHorizon) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  const double mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(),
                      result.discard_probability);
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(PathModel, GoalTrajectoryIsMonotoneStepFunction) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  ASSERT_EQ(result.goal_trajectory.size(), 29u);  // t = 0..28
  for (std::size_t t = 1; t < result.goal_trajectory.size(); ++t)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_GE(result.goal_trajectory[t][i],
                result.goal_trajectory[t - 1][i]);
  // Goal i can only fill at its cycle's gateway slot: t = 7, 14, 21, 28.
  EXPECT_DOUBLE_EQ(result.goal_trajectory[6][0], 0.0);
  EXPECT_GT(result.goal_trajectory[7][0], 0.0);
  EXPECT_DOUBLE_EQ(result.goal_trajectory[13][1], 0.0);
  EXPECT_GT(result.goal_trajectory[14][1], 0.0);
}

TEST(PathModel, GoalStateNamesFollowPaper) {
  const PathModel model(example_config(4));
  EXPECT_EQ(model.goal_state_name(1), "R7");
  EXPECT_EQ(model.goal_state_name(2), "R14");
  EXPECT_EQ(model.goal_state_name(4), "R28");
  EXPECT_THROW((void)model.goal_state_name(0), precondition_error);
  EXPECT_THROW((void)model.goal_state_name(5), precondition_error);
}

TEST(PathModel, ExplicitDtmcMatchesForwardAnalysis) {
  const PathModel model(example_config(2));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.83));
  const markov::Dtmc dtmc = model.to_dtmc(links);

  const linalg::Vector final = markov::distribution_after(
      dtmc, markov::point_distribution(dtmc.num_states(), 0),
      model.config().horizon());

  const PathTransientResult forward = model.analyze(links);
  const auto r7 = dtmc.find_state("R7");
  const auto r14 = dtmc.find_state("R14");
  const auto discard = dtmc.find_state("Discard");
  ASSERT_TRUE(r7 && r14 && discard);
  EXPECT_NEAR(final[*r7], forward.cycle_probabilities[0], 1e-12);
  EXPECT_NEAR(final[*r14], forward.cycle_probabilities[1], 1e-12);
  EXPECT_NEAR(final[*discard], forward.discard_probability, 1e-12);
}

TEST(PathModel, DtmcHasPaperStateNames) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const markov::Dtmc dtmc = model.to_dtmc(links);
  // The initial state is the fresh message at the source: "(1,-,-)".
  EXPECT_EQ(dtmc.state_name(model.initial_state()), "(1,-,-)");
  EXPECT_TRUE(dtmc.find_state("Discard").has_value());
  EXPECT_TRUE(dtmc.find_state("R7").has_value());
}

TEST(PathModel, StateCountGrowsLinearlyInReportingInterval) {
  // Paper Section IV: complexity O(Is * Fup * n).
  const std::size_t s1 = PathModel(example_config(1)).state_count();
  const std::size_t s2 = PathModel(example_config(2)).state_count();
  const std::size_t s4 = PathModel(example_config(4)).state_count();
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s4);
  EXPECT_LE(s4, 4 * 7 * 3 + 4 + 1);
}

TEST(PathModel, TtlShorterThanHorizonDiscardsEarly) {
  PathModelConfig config = example_config(4);
  config.ttl = 7;  // only the first cycle is allowed
  const PathModel model(config);
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  EXPECT_NEAR(result.cycle_probabilities[0], 0.421875, 1e-12);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[1], 0.0);
  EXPECT_NEAR(result.discard_probability, 1.0 - 0.421875, 1e-12);
}

TEST(PathModel, OutOfOrderScheduleNeedsExtraCycle) {
  // Hop 2's slot precedes hop 1's: the message always waits one cycle.
  PathModelConfig config;
  config.hop_slots = {5, 2};
  config.superframe = net::SuperframeConfig::symmetric(6);
  config.reporting_interval = 2;
  const PathModel model(config);
  const SteadyStateLinks links(2, link::LinkModel::from_availability(1.0));
  const PathTransientResult result = model.analyze(links);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[0], 0.0);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[1], 1.0);
}

TEST(PathModel, PerfectLinksGiveDegenerateChain) {
  const PathModel model(example_config(3));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(1.0));
  const PathTransientResult result = model.analyze(links);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[0], 1.0);
  EXPECT_DOUBLE_EQ(result.discard_probability, 0.0);
  // The frozen DTMC stays stochastic even with ps = 1 transitions.
  EXPECT_NO_THROW(model.to_dtmc(links));
}

TEST(PathModel, ExpectedTransmissionsSingleCycle) {
  // Is = 1: the message attempts hop 1 always, hop 2 w.p. ps, hop 3 w.p.
  // ps^2 => E[attempts] = 1 + ps + ps^2.
  const PathModel model(example_config(1));
  const double ps = 0.75;
  const SteadyStateLinks links(3, link::LinkModel::from_availability(ps));
  const PathTransientResult result = model.analyze(links);
  EXPECT_NEAR(result.expected_transmissions, 1.0 + ps + ps * ps, 1e-12);
}

TEST(PathModel, PerHopAttemptsSumToTotalAndDecreaseAlongPath) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  ASSERT_EQ(result.expected_transmissions_per_hop.size(), 3u);
  double total = 0.0;
  for (double a : result.expected_transmissions_per_hop) total += a;
  EXPECT_NEAR(total, result.expected_transmissions, 1e-12);
  // Later hops see the message only after earlier hops succeeded, so
  // their attempt counts cannot exceed the first hop's.
  EXPECT_GE(result.expected_transmissions_per_hop[0],
            result.expected_transmissions_per_hop[1]);
  EXPECT_GE(result.expected_transmissions_per_hop[1],
            result.expected_transmissions_per_hop[2]);
}

TEST(PathModel, ProviderWithTooFewHopsThrows) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(2, link::LinkModel::from_availability(0.9));
  EXPECT_THROW(model.analyze(links), precondition_error);
}

}  // namespace
}  // namespace whart::hart
