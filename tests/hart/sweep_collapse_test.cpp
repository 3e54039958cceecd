// Sweeps through the dense cycle collapse (DESIGN.md §11): every grid
// point solved by the default kernel must match the per-slot walk —
// same point order, same CSV shape, measures equal to well below
// reporting precision.  Plus the linspace count == 1 regression (a
// degenerate grid is one point, not a duplicated endpoint) and the
// reachability adjoint and link ranking against finite differences of
// the collapsed reachability.
//
// The SweepBatch / SensitivityBatch / RankLinkUpgradesBatch suite names
// date from the batched-lane solver these checks first guarded; a
// "batch" is now a sweep's grid of points solved through the collapse,
// and "scalar" / "unbatched" is the per-slot walk.
#include "whart/hart/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

// The collapse agrees with the per-slot walk to rounding; 1e-12
// relative leaves three orders of magnitude of slack.
void expect_value_close(double collapsed, double baseline,
                        const std::string& what) {
  const double scale =
      std::max({1.0, std::abs(collapsed), std::abs(baseline)});
  EXPECT_LE(std::abs(collapsed - baseline), 1e-12 * scale) << what;
}

void expect_series_close(const SweepSeries& batched,
                         const SweepSeries& baseline) {
  EXPECT_EQ(batched.parameter_name, baseline.parameter_name);
  ASSERT_EQ(batched.points.size(), baseline.points.size());
  for (std::size_t i = 0; i < baseline.points.size(); ++i) {
    const std::string at = "point " + std::to_string(i);
    EXPECT_EQ(batched.points[i].parameter, baseline.points[i].parameter)
        << at;
    const PathMeasures& b = batched.points[i].measures;
    const PathMeasures& s = baseline.points[i].measures;
    expect_value_close(b.reachability, s.reachability, at + " R");
    expect_value_close(b.discard_probability, s.discard_probability,
                       at + " discard");
    expect_value_close(b.expected_delay_ms, s.expected_delay_ms,
                       at + " delay");
    expect_value_close(b.expected_transmissions, s.expected_transmissions,
                       at + " transmissions");
    expect_value_close(b.utilization, s.utilization, at + " U");
    expect_value_close(b.utilization_delivered, s.utilization_delivered,
                       at + " Ud");
    ASSERT_EQ(b.cycle_probabilities.size(), s.cycle_probabilities.size())
        << at;
    for (std::size_t k = 0; k < s.cycle_probabilities.size(); ++k)
      expect_value_close(b.cycle_probabilities[k],
                         s.cycle_probabilities[k],
                         at + " g(" + std::to_string(k + 1) + ")");
  }
}

PathModelConfig section6_config() {
  // The Section VI single-path shape behind the availability sweep.
  PathModelConfig config;
  config.hop_slots = {1, 2, 3, 4};
  config.superframe = net::SuperframeConfig::symmetric(20);
  config.reporting_interval = 4;
  return config;
}

// Parse one CSV into its lines for structural comparison.
std::vector<std::string> csv_lines(const SweepSeries& series) {
  std::ostringstream out;
  write_series_csv(out, series);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(out.str());
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(SweepBatch, AvailabilitySweepMatchesUnbatchedGolden) {
  const PathModelConfig config = section6_config();
  const std::vector<double> grid = linspace(0.65, 0.99, 18);
  const SweepSeries per_slot =
      sweep_availability(config, grid, 1, TransientKernel::kPerSlot);
  const SweepSeries collapsed = sweep_availability(config, grid, 1);
  expect_series_close(collapsed, per_slot);

  // Golden CSV: identical structure, and each line's fields round to
  // the same printed digits unless the underlying values differ beyond
  // reporting precision (which expect_series_close already forbids).
  const std::vector<std::string> golden = csv_lines(per_slot);
  const std::vector<std::string> lines = csv_lines(collapsed);
  ASSERT_EQ(lines.size(), golden.size());
  EXPECT_EQ(lines.front(), golden.front());  // header
}

TEST(SweepBatch, NonContiguousSameShapePointsShareABatch) {
  // Repeated reporting intervals interleaved with other ones: output
  // order is the caller's and every point matches the per-slot walk.
  PathModelConfig base = section6_config();
  const std::vector<std::uint32_t> intervals = {16, 8, 16, 4, 8, 16, 16};
  const SweepSeries per_slot = sweep_reporting_interval_series(
      base, 0.85, intervals, 1, TransientKernel::kPerSlot);
  const SweepSeries collapsed =
      sweep_reporting_interval_series(base, 0.85, intervals, 1);
  ASSERT_EQ(collapsed.points.size(), intervals.size());
  for (std::size_t i = 0; i < intervals.size(); ++i)
    EXPECT_EQ(collapsed.points[i].parameter,
              static_cast<double>(intervals[i]));
  expect_series_close(collapsed, per_slot);
}

TEST(SweepBatch, HopSweepDegeneratesToShapeSingletons) {
  // Every hop count is its own shape, so every point builds its own
  // cycle matrix; each must still match the per-slot walk.
  const SweepSeries per_slot =
      sweep_hop_count(4, 0.85, net::SuperframeConfig::symmetric(10), 4, 1,
                      TransientKernel::kPerSlot);
  const SweepSeries collapsed =
      sweep_hop_count(4, 0.85, net::SuperframeConfig::symmetric(10), 4, 1);
  expect_series_close(collapsed, per_slot);
}

TEST(SweepBatch, LaneCountBeyondGridStillWorks) {
  // More workers than grid points: the surplus workers find nothing to
  // solve, and every point still matches the serial per-slot sweep
  // bitwise-independently of the worker count.
  const PathModelConfig config = section6_config();
  const std::vector<double> grid = linspace(0.7, 0.9, 5);
  const SweepSeries per_slot =
      sweep_availability(config, grid, 1, TransientKernel::kPerSlot);
  const SweepSeries serial = sweep_availability(config, grid, 1);
  const SweepSeries wide = sweep_availability(config, grid, 64);
  expect_series_close(wide, per_slot);
  ASSERT_EQ(wide.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i)
    EXPECT_EQ(wide.points[i].measures.cycle_probabilities,
              serial.points[i].measures.cycle_probabilities)
        << "point " << i;
}

TEST(SweepBatch, BerSweepBatchesMatchScalar) {
  const PathModelConfig config = section6_config();
  const std::vector<double> bers = {1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 2e-3};
  const SweepSeries per_slot =
      sweep_ber(config, bers, 1, TransientKernel::kPerSlot);
  const SweepSeries collapsed = sweep_ber(config, bers, 1);
  expect_series_close(collapsed, per_slot);
}

TEST(Linspace, CountOneIsASinglePoint) {
  // Regression: count == 1 used to divide by (count - 1) and duplicate
  // the endpoint; a degenerate grid must be exactly {first}.
  const std::vector<double> single = linspace(0.8, 0.95, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.front(), 0.8);
  const std::vector<double> flat = linspace(0.7, 0.7, 1);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat.front(), 0.7);
}

TEST(Linspace, EndpointsInclusiveForLargerCounts) {
  const std::vector<double> grid = linspace(0.5, 0.9, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.5);
  EXPECT_DOUBLE_EQ(grid.back(), 0.9);
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_GT(grid[i], grid[i - 1]);
}

/// dR/dps_h of the collapse by finite differences: central inside
/// [0, 1], second-order one-sided at a boundary.  The adjoint shares no
/// code with the collapse, so agreement checks both.
double collapsed_gradient(const PathModelConfig& config,
                          std::vector<double> point, std::size_t h) {
  constexpr double kStep = 1e-6;
  const double p = point[h];
  const auto reachability = [&](double x) {
    point[h] = x;
    const PathTransientResult r =
        analyze_collapsed(config, SteadyStateLinks(point));
    double sum = 0.0;
    for (double g : r.cycle_probabilities) sum += g;
    return sum;
  };
  if (p - kStep < 0.0)
    return (-3.0 * reachability(p) + 4.0 * reachability(p + kStep) -
            reachability(p + 2.0 * kStep)) /
           (2.0 * kStep);
  if (p + kStep > 1.0)
    return (3.0 * reachability(p) - 4.0 * reachability(p - kStep) +
            reachability(p - 2.0 * kStep)) /
           (2.0 * kStep);
  return (reachability(p + kStep) - reachability(p - kStep)) / (2.0 * kStep);
}

constexpr double kGradientTolerance = 1e-8;

TEST(SensitivityBatch, LanesMatchScalarAdjointSweeps) {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = 4;
  const PathModel model(config);

  const std::vector<std::vector<double>> points = {
      {0.9, 0.75, 0.85}, {0.8, 0.8, 0.8}, {0.95, 0.7, 0.92},
      {0.7, 0.9, 0.6}, {0.85, 0.85, 0.99}, {1.0, 0.5, 0.0}};
  for (std::size_t l = 0; l < points.size(); ++l) {
    const std::vector<double> adjoint =
        reachability_sensitivity(model, SteadyStateLinks(points[l]));
    ASSERT_EQ(adjoint.size(), points[l].size());
    for (std::size_t h = 0; h < adjoint.size(); ++h)
      EXPECT_NEAR(adjoint[h], collapsed_gradient(config, points[l], h),
                  kGradientTolerance)
          << "point " << l << " hop " << h;
  }
}

TEST(RankLinkUpgradesBatch, RankingMatchesScalarPath) {
  // Each link's score is the sum, over the paths using it, of the
  // collapsed R's finite-difference gradient at that hop.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const std::vector<LinkSensitivity> ranking =
      rank_link_upgrades(t.network, t.paths, t.eta_a, t.superframe, 4, 1);
  std::vector<double> expected(t.network.links().size(), 0.0);
  std::vector<std::size_t> using_paths(expected.size(), 0);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    const PathModelConfig config =
        PathModelConfig::from_schedule(t.eta_a, p, t.superframe, 4);
    std::vector<double> point;
    for (const link::LinkModel& m : t.paths[p].hop_models(t.network))
      point.push_back(m.steady_state_availability());
    const std::vector<net::LinkId> hop_links =
        t.paths[p].resolve_links(t.network);
    for (std::size_t h = 0; h < hop_links.size(); ++h) {
      expected[hop_links[h].value] += collapsed_gradient(config, point, h);
      ++using_paths[hop_links[h].value];
    }
  }
  ASSERT_EQ(ranking.size(), expected.size());
  for (const LinkSensitivity& s : ranking) {
    EXPECT_EQ(s.paths_using, using_paths[s.link.value])
        << "link " << s.link.value;
    EXPECT_NEAR(s.total_dR_dpi, expected[s.link.value], kGradientTolerance)
        << "link " << s.link.value;
  }
}

}  // namespace
}  // namespace whart::hart
