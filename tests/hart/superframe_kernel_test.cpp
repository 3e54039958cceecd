// The superframe kernel (TransientKernel::kSuperframeProduct, the dense
// firing-only cycle collapse of DESIGN.md §11) against the per-slot
// solver and the independent dense reference solvers: the collapse must
// reproduce every solver output to 1e-12 across a seeded corpus of
// generated scenarios (out-of-order slots, retry slots, mid-horizon
// TTLs, degenerate links, correlated channels) and the structural edge
// cases — Fup = 1, TTL = 1, ps in {0, 1}, and horizons that are not a
// multiple of the superframe.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/verify/reference_solver.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::hart {
namespace {

constexpr double kTol = 1e-12;

/// Relative agreement at kTol.
void expect_close(double actual, double expected, const std::string& what) {
  EXPECT_LE(std::abs(actual - expected),
            kTol * std::max({1.0, std::abs(actual), std::abs(expected)}))
      << what << ": " << actual << " vs " << expected;
}

/// Every solver output of the collapse must match the dense reference.
void expect_matches_reference(const PathTransientResult& collapsed,
                              const verify::ReferenceResult& ref) {
  ASSERT_EQ(collapsed.cycle_probabilities.size(),
            ref.cycle_probabilities.size());
  for (std::size_t i = 0; i < ref.cycle_probabilities.size(); ++i)
    expect_close(collapsed.cycle_probabilities[i], ref.cycle_probabilities[i],
                 "reference g(" + std::to_string(i + 1) + ")");
  expect_close(collapsed.discard_probability, ref.discard_probability,
               "reference discard");
  expect_close(collapsed.expected_transmissions, ref.expected_transmissions,
               "reference transmissions");
  expect_close(collapsed.expected_transmissions_delivered,
               ref.expected_transmissions_delivered,
               "reference delivered transmissions");
  ASSERT_EQ(collapsed.expected_transmissions_per_hop.size(),
            ref.expected_transmissions_per_hop.size());
  for (std::size_t h = 0; h < ref.expected_transmissions_per_hop.size(); ++h)
    expect_close(collapsed.expected_transmissions_per_hop[h],
                 ref.expected_transmissions_per_hop[h],
                 "reference transmissions of hop " + std::to_string(h));
}

PathAnalysisOptions superframe_options() {
  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  return options;
}

/// Every solver output of the two kernels must agree to kTol, and each
/// must match the dense reference.
void expect_equivalent(const PathModelConfig& config,
                       const std::vector<double>& availabilities) {
  const PathModel model(config);
  const SteadyStateLinks links{availabilities};
  const PathTransientResult per_slot = model.analyze(links);
  const PathTransientResult collapsed =
      analyze_path(config, links, superframe_options());

  ASSERT_EQ(collapsed.diagnostics.kernel, TransientKernel::kSuperframeProduct);
  ASSERT_EQ(per_slot.diagnostics.kernel, TransientKernel::kPerSlot);
  // The model-free entry point runs the very same core.
  const PathTransientResult direct = analyze_collapsed(config, links);
  EXPECT_EQ(direct.cycle_probabilities, collapsed.cycle_probabilities);
  EXPECT_EQ(direct.expected_transmissions_delivered,
            collapsed.expected_transmissions_delivered);
  const verify::ReferenceResult ref =
      verify::reference_solve(config, availabilities);
  expect_matches_reference(collapsed, ref);
  expect_matches_reference(per_slot, ref);

  ASSERT_EQ(collapsed.cycle_probabilities.size(),
            per_slot.cycle_probabilities.size());
  for (std::size_t i = 0; i < per_slot.cycle_probabilities.size(); ++i)
    EXPECT_NEAR(collapsed.cycle_probabilities[i],
                per_slot.cycle_probabilities[i], kTol)
        << "cycle " << i;
  EXPECT_NEAR(collapsed.discard_probability, per_slot.discard_probability,
              kTol);
  EXPECT_NEAR(collapsed.expected_transmissions,
              per_slot.expected_transmissions, kTol);
  EXPECT_NEAR(collapsed.expected_transmissions_delivered,
              per_slot.expected_transmissions_delivered, kTol);
  ASSERT_EQ(collapsed.expected_transmissions_per_hop.size(),
            per_slot.expected_transmissions_per_hop.size());
  for (std::size_t h = 0; h < per_slot.expected_transmissions_per_hop.size();
       ++h)
    EXPECT_NEAR(collapsed.expected_transmissions_per_hop[h],
                per_slot.expected_transmissions_per_hop[h], kTol)
        << "hop " << h;
  EXPECT_LE(collapsed.diagnostics.mass_residual, 1e-12);
  EXPECT_LE(per_slot.diagnostics.mass_residual, 1e-12);
}

TEST(SuperframeKernel, EquivalentAcrossSeededScenarioCorpus) {
  const verify::ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::Scenario scenario = generator.generate(seed);
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " path " +
                   std::to_string(p));
      expect_equivalent(scenario.path_config(p),
                        scenario.hop_availabilities(p));
    }
  }
}

TEST(SuperframeKernel, EquivalentWithSingleSlotFrame) {
  // Fup = 1: the "cycle product" is the single slot matrix and every
  // cycle delivers or retries the one hop.
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig{1, 1};
  config.reporting_interval = 6;
  expect_equivalent(config, {0.7});
}

TEST(SuperframeKernel, EquivalentWithTtlOne) {
  // TTL = 1: the very first uplink slot is also the discard slot, so the
  // whole solve is tail — the collapse must not advance a single cycle.
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig{4, 4};
  config.reporting_interval = 3;
  config.ttl = 1;
  expect_equivalent(config, {0.9, 0.8, 0.7});
}

TEST(SuperframeKernel, EquivalentWithMidCycleTtl) {
  // A TTL strictly inside a later cycle: full cycles collapse, the TTL
  // cycle runs per-slot, trailing cycles contribute nothing.
  PathModelConfig config;
  config.hop_slots = {2, 1, 4};  // out of hop order on purpose
  config.superframe = net::SuperframeConfig{5, 5};
  config.reporting_interval = 4;
  config.ttl = 13;
  expect_equivalent(config, {0.85, 0.6, 0.95});
}

TEST(SuperframeKernel, EquivalentWithTtlOnCycleBoundary) {
  PathModelConfig config;
  config.hop_slots = {1, 3};
  config.superframe = net::SuperframeConfig{3, 3};
  config.reporting_interval = 4;
  config.ttl = 6;  // exactly two cycles
  expect_equivalent(config, {0.75, 0.8});
}

TEST(SuperframeKernel, EquivalentWithRetrySlots) {
  PathModelConfig config;
  config.hop_slots = {1, 3};
  config.retry_slots = {2, 0};
  config.superframe = net::SuperframeConfig{4, 4};
  config.reporting_interval = 3;
  expect_equivalent(config, {0.5, 0.9});
}


// --- many points of one shape -----------------------------------------
//
// The BatchSolve suite name dates from the batched-lane solver these
// checks first guarded; a "batch" is now a run of availability points of
// one shape solved back to back through the collapse, each held to its
// own per-slot ("scalar") solve and to the dense reference.

/// Deform base availabilities into `points` distinct points, all
/// strictly inside (0, 1).
std::vector<std::vector<double>> deformed_points(
    const std::vector<double>& base, std::size_t points) {
  std::vector<std::vector<double>> out;
  out.reserve(points);
  for (std::size_t l = 0; l < points; ++l) {
    std::vector<double> point = base;
    const double blend = 0.08 * static_cast<double>(l);
    for (double& a : point)
      a = a * (1.0 - blend) + 0.5 * blend + 0.001 * static_cast<double>(l);
    out.push_back(std::move(point));
  }
  return out;
}

void expect_points_equivalent(
    const PathModelConfig& config,
    const std::vector<std::vector<double>>& points) {
  for (std::size_t l = 0; l < points.size(); ++l) {
    SCOPED_TRACE("point " + std::to_string(l));
    expect_equivalent(config, points[l]);
  }
}

PathModelConfig three_hop_config() {
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.superframe = net::SuperframeConfig::symmetric(9);
  config.reporting_interval = 4;
  return config;
}

TEST(BatchSolve, EveryLaneMatchesScalarAcrossScenarioCorpus) {
  const verify::ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::Scenario scenario = generator.generate(seed);
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " path " +
                   std::to_string(p));
      expect_points_equivalent(
          scenario.path_config(p),
          deformed_points(scenario.hop_availabilities(p), 4));
    }
  }
}

TEST(BatchSolve, SingleLaneBatchMatchesScalar) {
  expect_points_equivalent(three_hop_config(),
                           deformed_points({0.7, 0.85, 0.9}, 1));
}

TEST(BatchSolve, TtlCutBatchesMatchScalar) {
  PathModelConfig config = three_hop_config();
  config.ttl = 14;  // cuts the horizon mid-cycle
  expect_points_equivalent(config, deformed_points({0.6, 0.8, 0.95}, 5));
}

TEST(BatchSolve, OneSlotFrameBatchesMatchScalar) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = 3;
  expect_points_equivalent(config, deformed_points({0.75}, 4));
}

TEST(BatchSolve, DegenerateLanesFallBackInsideAMixedBatch) {
  // ps of exactly 0 or 1 on some hops, mixed with ordinary points of the
  // same shape: the dense collapse has no sparsity pattern to lose, so
  // these need no fallback and solve like any other point.
  expect_points_equivalent(three_hop_config(), {{0.7, 0.85, 0.9},
                                                {0.0, 0.85, 0.9},
                                                {1.0, 1.0, 1.0},
                                                {0.72, 0.83, 0.88},
                                                {0.68, 0.8, 0.93}});
  PathModelConfig config;
  config.hop_slots = {1, 2, 4};
  config.superframe = net::SuperframeConfig{5, 5};
  config.reporting_interval = 3;
  expect_points_equivalent(
      config, {{1.0, 0.7, 0.0}, {1.0, 1.0, 1.0}, {0.0, 0.4, 0.9}});
}

TEST(BatchSolve, PerSlotKernelFallsBackToScalarLanes) {
  // analyze_path routes a point to the per-slot walk when the per-slot
  // kernel is asked for, and — under the collapse kernel — when the
  // provider is time-varying; either way the point must equal
  // PathModel::analyze bitwise.
  const PathModelConfig config = three_hop_config();
  const PathModel model(config);
  PathAnalysisOptions per_slot_options;
  per_slot_options.kernel = TransientKernel::kPerSlot;
  for (const std::vector<double>& point :
       deformed_points({0.7, 0.85, 0.9}, 3)) {
    const SteadyStateLinks links{point};
    const PathTransientResult routed =
        analyze_path(config, links, per_slot_options);
    const PathTransientResult direct = model.analyze(links);
    EXPECT_EQ(routed.diagnostics.kernel, TransientKernel::kPerSlot);
    EXPECT_EQ(routed.cycle_probabilities, direct.cycle_probabilities);
    EXPECT_EQ(routed.expected_transmissions_delivered,
              direct.expected_transmissions_delivered);
  }
  const TransientLinks warming(
      {link::LinkModel::from_availability(0.8),
       link::LinkModel::from_availability(0.6),
       link::LinkModel::from_availability(0.9)},
      {0.0, 1.0, 0.5});
  ASSERT_FALSE(warming.cycle_stationary());
  const PathTransientResult routed =
      analyze_path(config, warming, superframe_options());
  const PathTransientResult direct = model.analyze(warming);
  EXPECT_EQ(routed.diagnostics.kernel, TransientKernel::kPerSlot);
  EXPECT_EQ(routed.cycle_probabilities, direct.cycle_probabilities);
  EXPECT_EQ(routed.discard_probability, direct.discard_probability);
  EXPECT_EQ(routed.expected_transmissions_delivered,
            direct.expected_transmissions_delivered);
}

// --- the dense cycle matrix -------------------------------------------

/// A small 2-hop model (Fup = 3, Fdown = 3).
PathModelConfig small_config() {
  PathModelConfig config;
  config.hop_slots = {1, 2};
  config.superframe = net::SuperframeConfig{3, 3};
  config.reporting_interval = 2;
  return config;
}

/// One cycle of per-slot steps from state `from` of the compact i.i.d.
/// chain (hops, Goal, Discard) — the naive product the cycle matrix
/// collapses.
std::vector<double> one_cycle_per_slot(const PathModelConfig& config,
                                       const std::vector<double>& ps,
                                       std::size_t from) {
  const std::size_t hops = config.hop_count();
  std::vector<double> p(hops + 2, 0.0);
  p[from] = 1.0;
  for (std::uint32_t slot = 1; slot <= config.superframe.uplink_slots;
       ++slot) {
    const auto h = config.hop_in_slot(slot);
    if (!h.has_value()) continue;
    const double moved = p[*h] * ps[*h];
    p[*h] -= moved;
    p[*h + 1 == hops ? hops : *h + 1] += moved;
  }
  return p;
}

TEST(SuperframeKernel, ProductIsRowStochastic) {
  const linalg::Matrix m = cycle_matrix(
      small_config(), SteadyStateLinks(std::vector<double>{0.8, 0.6}));
  ASSERT_EQ(m.rows(), 4u);  // 2 hops + Goal + Discard
  ASSERT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m(r, c), 0.0);
      sum += m(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-15) << "row " << r;
  }
  // Goal and Discard are absorbing.
  EXPECT_EQ(m(2, 2), 1.0);
  EXPECT_EQ(m(3, 3), 1.0);
}

TEST(SuperframeKernel, StepsNotMultipleOfPeriodUseTail) {
  // A TTL two slots into the third cycle: two full cycles advance
  // through the cycle matrix and the tail walks its firings; every
  // measure matches the per-slot walk.
  PathModelConfig config = small_config();
  config.reporting_interval = 4;
  config.ttl = 2 * config.superframe.uplink_slots + 2;
  expect_equivalent(config, {0.55, 0.45});
}

TEST(SuperframeKernel, ZeroStepsReturnsInitialUnchanged) {
  // With TTL = 1 nothing beyond the first slot ever moves.
  PathModelConfig config = small_config();
  const SteadyStateLinks links(std::vector<double>{0.8, 0.6});
  const PathTransientResult result = analyze_collapsed(config, links);
  ASSERT_EQ(result.cycle_probabilities.size(), config.reporting_interval);
  config.ttl = 1;
  const PathTransientResult cut = analyze_collapsed(config, links);
  for (double g : cut.cycle_probabilities) EXPECT_EQ(g, 0.0);
  EXPECT_NEAR(cut.discard_probability, 1.0, 1e-15);
  EXPECT_NEAR(cut.expected_transmissions, 1.0, 1e-15);  // the slot-1 try
}

TEST(SuperframeKernel, LongIntervalMatchesNegativeBinomialInLinearMemory) {
  // One hop that fires once per cycle: delivery in cycle i is the
  // negative-binomial g_i = p (1 - p)^(i-1).  At Is = 100 000 any
  // per-slot or per-cycle copy of the Is-long goal vector would need
  // hundreds of GB, so this also pins both kernels' memory to O(Is).
  constexpr double kP = 3e-5;  // (1 - p)^Is ~ e^-3: every cycle matters
  PathModelConfig config;
  config.hop_slots = {2};
  config.superframe = net::SuperframeConfig{4, 4};
  config.reporting_interval = 100000;
  const SteadyStateLinks links(std::vector<double>{kP});
  PathAnalysisOptions per_slot_options;
  per_slot_options.kernel = TransientKernel::kPerSlot;
  for (const PathAnalysisOptions& options :
       {superframe_options(), per_slot_options}) {
    const PathTransientResult result = analyze_path(config, links, options);
    SCOPED_TRACE(result.diagnostics.kernel == TransientKernel::kPerSlot
                     ? "per-slot"
                     : "collapse");
    EXPECT_EQ(result.diagnostics.kernel, options.kernel);
    ASSERT_EQ(result.cycle_probabilities.size(), config.reporting_interval);
    double reachability = 0.0;
    for (std::size_t i = 0; i < result.cycle_probabilities.size(); ++i) {
      const double expected =
          kP * std::pow(1.0 - kP, static_cast<double>(i));
      ASSERT_NEAR(result.cycle_probabilities[i], expected, 1e-12)
          << "g(" << i + 1 << ")";
      reachability += result.cycle_probabilities[i];
    }
    EXPECT_NEAR(reachability + result.discard_probability, 1.0, 1e-12);
    EXPECT_NEAR(result.discard_probability,
                std::pow(1.0 - kP, config.reporting_interval), 1e-12);
  }
}

TEST(SuperframeKernel, BatchedSolveMatchesSequentialRows) {
  // Row x of the cycle matrix is the one-cycle distribution from state x,
  // i.e. all start states advanced together match each one stepped
  // slot by slot.
  PathModelConfig config;
  config.hop_slots = {3, 1, 4};  // out of hop order
  config.retry_slots = {0, 2, 0};
  config.superframe = net::SuperframeConfig{5, 2};
  config.reporting_interval = 2;
  const std::vector<double> ps = {0.7, 0.55, 0.9};
  const linalg::Matrix m = cycle_matrix(config, SteadyStateLinks(ps));
  for (std::size_t x = 0; x < m.rows(); ++x) {
    const std::vector<double> row = one_cycle_per_slot(config, ps, x);
    for (std::size_t c = 0; c < m.cols(); ++c)
      EXPECT_NEAR(m(x, c), row[c], 1e-15) << "row " << x << " col " << c;
  }
}

TEST(SuperframeKernel, PerturbedProductEntryChangesTheSolve) {
  const PathModelConfig config = small_config();
  const SteadyStateLinks links(std::vector<double>{0.8, 0.6});
  PathAnalysisOptions corrupt = superframe_options();
  corrupt.inject_product_error = 1e-3;
  const linalg::Matrix m = cycle_matrix(config, links, corrupt);
  EXPECT_NEAR(m(0, 0) + m(0, 1) + m(0, 2) + m(0, 3), 1.0 + 1e-3, 1e-15);
  const PathTransientResult clean = analyze_collapsed(config, links);
  const PathTransientResult bad = analyze_collapsed(config, links, corrupt);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < clean.cycle_probabilities.size(); ++i)
    max_diff = std::max(max_diff, std::abs(clean.cycle_probabilities[i] -
                                           bad.cycle_probabilities[i]));
  EXPECT_GT(max_diff, 1e-5);
  EXPECT_GT(bad.diagnostics.mass_residual, 1e-5);
}

TEST(SuperframeKernel, RejectsEmptyAndMismatchedMatrices) {
  // The collapse needs a valid config, a provider covering every hop
  // and a cycle-stationary provider.
  PathModelConfig config = small_config();
  const SteadyStateLinks one_hop(std::vector<double>{0.8});
  EXPECT_THROW((void)analyze_collapsed(config, one_hop), precondition_error);
  const TransientLinks transient(
      {link::LinkModel::from_availability(0.8),
       link::LinkModel::from_availability(0.6)},
      {1.0, 1.0});
  EXPECT_THROW((void)analyze_collapsed(config, transient), precondition_error);
  EXPECT_THROW((void)cycle_matrix(config, transient), precondition_error);
  config.hop_slots.clear();
  EXPECT_THROW((void)analyze_collapsed(
                   config, SteadyStateLinks(std::vector<double>{})),
               precondition_error);
}

// --- correlated channels -----------------------------------------------

/// Channel collapse vs the per-slot walk vs the dense channel reference,
/// every output to kTol.
void expect_channel_equivalent(
    const PathModelConfig& config,
    const std::vector<link::ChannelModel>& channels) {
  const ChannelLinks links(channels);
  const PathTransientResult per_slot = analyze_per_slot(config, links);
  const PathTransientResult collapsed =
      analyze_path(config, links, superframe_options());
  ASSERT_EQ(collapsed.diagnostics.kernel, TransientKernel::kSuperframeProduct);
  std::size_t enlarged = 0;
  for (const link::ChannelModel& c : channels) enlarged += c.state_count();
  EXPECT_EQ(collapsed.diagnostics.transient_states, enlarged);
  EXPECT_EQ(per_slot.diagnostics.transient_states, enlarged);
  for (std::size_t i = 0; i < per_slot.cycle_probabilities.size(); ++i)
    expect_close(collapsed.cycle_probabilities[i],
                 per_slot.cycle_probabilities[i],
                 "per-slot g(" + std::to_string(i + 1) + ")");
  expect_close(collapsed.discard_probability, per_slot.discard_probability,
               "per-slot discard");
  expect_close(collapsed.expected_transmissions_delivered,
               per_slot.expected_transmissions_delivered,
               "per-slot delivered transmissions");
  const verify::ReferenceResult ref =
      verify::reference_solve_channel(config, channels);
  expect_matches_reference(collapsed, ref);
  expect_matches_reference(per_slot, ref);
}

TEST(SuperframeKernel, ChannelEquivalentAcrossSeededScenarioCorpus) {
  verify::GeneratorLimits limits;
  limits.channel_probability = 1.0;
  const verify::ScenarioGenerator generator(limits);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::Scenario scenario = generator.generate(seed);
    ASSERT_TRUE(scenario.channel.has_value());
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " path " +
                   std::to_string(p));
      expect_channel_equivalent(scenario.path_config(p),
                                scenario.hop_channels(p));
    }
  }
}

TEST(SuperframeKernel, ChannelEquivalentWithRetrySlotsAndMidCycleTtl) {
  PathModelConfig config;
  config.hop_slots = {4, 1, 3};
  config.retry_slots = {0, 2, 5};
  config.superframe = net::SuperframeConfig{6, 7};
  config.reporting_interval = 5;
  config.ttl = 17;
  const link::ChannelModel ge =
      link::ChannelModel::gilbert_elliott(0.05, 0.1, 0.02, 0.65);
  expect_channel_equivalent(
      config, {ge.with_marginal_success(0.8), ge.with_marginal_success(0.6),
               link::ChannelModel::iid(0.9)});
}

TEST(SuperframeKernel, ChannelProductEntryInjectionChangesTheSolve) {
  PathModelConfig config = small_config();
  config.reporting_interval = 3;
  const ChannelLinks links(
      2, link::ChannelModel::gilbert_elliott(0.1, 0.3, 0.05, 0.6));
  PathAnalysisOptions corrupt = superframe_options();
  corrupt.inject_product_error = 1e-3;
  const PathTransientResult clean = analyze_collapsed(config, links);
  const PathTransientResult bad = analyze_collapsed(config, links, corrupt);
  EXPECT_GT(std::abs(clean.cycle_probabilities.back() -
                     bad.cycle_probabilities.back()) +
                std::abs(clean.discard_probability - bad.discard_probability),
            1e-5);
  const linalg::Matrix m = cycle_matrix(config, links);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) sum += m(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-14) << "row " << r;
  }
}

}  // namespace
}  // namespace whart::hart
