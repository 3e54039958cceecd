// Translation relations of the path solvers, checked without any
// reference solver: with steady-state links the per-attempt success
// probability does not depend on the slot, so shifting every
// transmission opportunity of a path by the same offset (staying inside
// the frame) keeps each firing in its superframe cycle and in the same
// order.  Both kernels then perform the same arithmetic and must return
// bitwise-equal solver outputs; only the delays, which start at the
// gateway slot, move with the shift.  A TTL inside a frame breaks the
// relation, because the shift moves firings across it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {
namespace {

PathModelConfig config_with_slots(std::vector<net::SlotNumber> slots,
                                  std::uint32_t fup = 20,
                                  std::uint32_t is = 4) {
  PathModelConfig config;
  config.hop_slots = std::move(slots);
  config.superframe = net::SuperframeConfig::symmetric(fup);
  config.reporting_interval = is;
  return config;
}

PathTransientResult solve(const PathModelConfig& config,
                          const std::vector<double>& availability,
                          TransientKernel kernel) {
  PathAnalysisOptions options;
  options.kernel = kernel;
  return analyze_path(config, SteadyStateLinks(availability), options);
}

/// Every solver output must match bit for bit.
void expect_bitwise_equal(const PathTransientResult& a,
                          const PathTransientResult& b) {
  EXPECT_EQ(a.cycle_probabilities, b.cycle_probabilities);
  EXPECT_EQ(a.discard_probability, b.discard_probability);
  EXPECT_EQ(a.expected_transmissions, b.expected_transmissions);
  EXPECT_EQ(a.expected_transmissions_per_hop,
            b.expected_transmissions_per_hop);
  EXPECT_EQ(a.expected_transmissions_delivered,
            b.expected_transmissions_delivered);
}

constexpr TransientKernel kKernels[] = {TransientKernel::kPerSlot,
                                        TransientKernel::kSuperframeProduct};

TEST(PathTranslation, TranslatedConfigsGiveBitwiseEqualCycleProbabilities) {
  for (const TransientKernel kernel : kKernels) {
    SCOPED_TRACE(static_cast<int>(kernel));
    // Two hops with the same relative layout, shifted by 0 / 4 / 17.
    const std::vector<double> two{0.9, 0.8};
    const PathTransientResult base =
        solve(config_with_slots({1, 2}), two, kernel);
    expect_bitwise_equal(solve(config_with_slots({5, 6}), two, kernel), base);
    expect_bitwise_equal(solve(config_with_slots({18, 19}), two, kernel),
                         base);
  }
}

TEST(PathTranslation, ShiftedLayoutsGiveBitwiseEqualMeasures) {
  const std::vector<double> three{0.83, 0.91, 0.87};
  const SteadyStateLinks links(three);
  struct Layout {
    std::vector<net::SlotNumber> slots;
    std::vector<net::SlotNumber> shifted;
    double shift_ms;
  };
  // Three hops, in order, spread out and out of order (an extra cycle).
  const std::vector<Layout> layouts{{{1, 2, 3}, {4, 5, 6}, 30.0},
                                    {{1, 6, 9}, {7, 12, 15}, 60.0},
                                    {{7, 1, 15}, {9, 3, 17}, 20.0}};
  for (const TransientKernel kernel : kKernels) {
    SCOPED_TRACE(static_cast<int>(kernel));
    PathAnalysisOptions options;
    options.kernel = kernel;
    for (const Layout& layout : layouts) {
      const PathModelConfig config = config_with_slots(layout.slots);
      const PathModelConfig shifted = config_with_slots(layout.shifted);
      const PathTransientResult base = solve(config, three, kernel);
      expect_bitwise_equal(solve(shifted, three, kernel), base);
      // The solve-then-measures split that analyze_network runs equals
      // the direct path-model route bit for bit.
      const PathMeasures a = measures_from_transient(config, base);
      const PathMeasures direct =
          compute_path_measures(PathModel(config), links, options);
      EXPECT_EQ(a.cycle_probabilities, direct.cycle_probabilities);
      EXPECT_EQ(a.reachability, direct.reachability);
      EXPECT_EQ(a.discard_probability, direct.discard_probability);
      EXPECT_EQ(a.delays_ms, direct.delays_ms);
      EXPECT_EQ(a.delay_distribution, direct.delay_distribution);
      EXPECT_EQ(a.expected_delay_ms, direct.expected_delay_ms);
      EXPECT_EQ(a.expected_transmissions, direct.expected_transmissions);
      EXPECT_EQ(a.utilization, direct.utilization);
      EXPECT_EQ(a.utilization_delivered, direct.utilization_delivered);
      EXPECT_EQ(a.expected_intervals_to_first_loss,
                direct.expected_intervals_to_first_loss);
      EXPECT_EQ(a.delay_jitter_ms, direct.delay_jitter_ms);
      // The shifted layout keeps every measure but the delays, which
      // move with its gateway slot.
      const PathMeasures b =
          measures_from_transient(shifted, solve(shifted, three, kernel));
      EXPECT_EQ(b.cycle_probabilities, a.cycle_probabilities);
      EXPECT_EQ(b.delay_distribution, a.delay_distribution);
      EXPECT_EQ(b.utilization, a.utilization);
      EXPECT_EQ(b.utilization_delivered, a.utilization_delivered);
      ASSERT_EQ(b.delays_ms.size(), a.delays_ms.size());
      for (std::size_t i = 0; i < a.delays_ms.size(); ++i)
        EXPECT_DOUBLE_EQ(b.delays_ms[i] - a.delays_ms[i], layout.shift_ms);
      EXPECT_NEAR(b.expected_delay_ms - a.expected_delay_ms, layout.shift_ms,
                  1e-9);
    }
  }
}

TEST(PathTranslation, MidFrameTtlIsNotTranslationInvariant) {
  const std::vector<double> availability{0.9, 0.8};
  PathModelConfig late = config_with_slots({18, 19});
  late.ttl = 30;
  PathModelConfig early = config_with_slots({1, 2});
  early.ttl = 30;
  for (const TransientKernel kernel : kKernels) {
    SCOPED_TRACE(static_cast<int>(kernel));
    // The early chain's second-cycle slots 21, 22 lie before the TTL;
    // the late chain's 38, 39 do not.
    const PathTransientResult e = solve(early, availability, kernel);
    const PathTransientResult l = solve(late, availability, kernel);
    EXPECT_EQ(e.cycle_probabilities[0], l.cycle_probabilities[0]);
    EXPECT_GT(e.cycle_probabilities[1], 0.0);
    EXPECT_EQ(l.cycle_probabilities[1], 0.0);
    EXPECT_GT(e.expected_transmissions, l.expected_transmissions);
    EXPECT_GT(l.discard_probability, e.discard_probability);
  }
}

TEST(PathTranslation, DelaysFollowTheCallerGatewaySlot) {
  const std::vector<double> availability{0.9};
  for (const TransientKernel kernel : kKernels) {
    SCOPED_TRACE(static_cast<int>(kernel));
    const PathModelConfig first = config_with_slots({1});
    const PathModelConfig shifted = config_with_slots({7});
    const PathMeasures a =
        measures_from_transient(first, solve(first, availability, kernel));
    const PathMeasures b =
        measures_from_transient(shifted, solve(shifted, availability, kernel));
    // Same solve...
    EXPECT_EQ(a.cycle_probabilities, b.cycle_probabilities);
    EXPECT_EQ(a.delay_distribution, b.delay_distribution);
    // ...but each path's delays start at its own gateway slot.
    EXPECT_DOUBLE_EQ(a.delays_ms[0], 10.0);
    EXPECT_DOUBLE_EQ(b.delays_ms[0], 70.0);
    EXPECT_DOUBLE_EQ(b.expected_delay_ms - a.expected_delay_ms, 60.0);
  }
}

TEST(PathTranslation, RetrySlotsTranslateWithTheChain) {
  const std::vector<double> availability{0.7, 0.7};
  PathModelConfig with_retry = config_with_slots({3, 5});
  with_retry.retry_slots = {4, 6};
  PathModelConfig shifted = config_with_slots({7, 9});
  shifted.retry_slots = {8, 10};
  // A missing retry slot (0) is not an opportunity: dropping one changes
  // the chain.
  PathModelConfig partial = config_with_slots({3, 5});
  partial.retry_slots = {4, 0};
  for (const TransientKernel kernel : kKernels) {
    SCOPED_TRACE(static_cast<int>(kernel));
    const PathTransientResult base = solve(with_retry, availability, kernel);
    expect_bitwise_equal(solve(shifted, availability, kernel), base);
    EXPECT_GT(base.cycle_probabilities[0],
              solve(partial, availability, kernel).cycle_probabilities[0]);
  }
}

}  // namespace
}  // namespace whart::hart
