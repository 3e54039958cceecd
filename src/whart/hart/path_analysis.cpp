#include "whart/hart/path_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "whart/common/contracts.hpp"
#include "whart/phy/frame.hpp"

namespace whart::hart {

PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links) {
  return compute_path_measures(model, links, PathAnalysisOptions{});
}

PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links,
                                   const PathAnalysisOptions& options) {
  return measures_from_transient(
      model.config(), analyze_path(model.config(), links, options));
}

PathMeasures measures_from_transient(const PathModelConfig& config,
                                     const PathTransientResult& transient) {
  PathMeasures m = measures_from_cycles(config, transient.cycle_probabilities,
                                        transient.expected_transmissions);
  // Replace the closed-form delivered-only estimate (exact only for
  // in-order schedules) with the exact backward-pass count.
  m.utilization_delivered =
      transient.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  m.diagnostics = transient.diagnostics;
  return m;
}

PathMeasures measures_from_cycles(const PathModelConfig& config,
                                  std::vector<double> cycle_probabilities,
                                  double expected_transmissions) {
  expects(cycle_probabilities.size() == config.reporting_interval,
          "one cycle probability per cycle of the reporting interval");
  PathMeasures m;
  m.cycle_probabilities = std::move(cycle_probabilities);
  // The cycle probabilities of a near-certain path can sum to 1 plus a
  // rounding ulp; R is a probability, so cap it (and keep discard >= 0).
  m.reachability =
      std::min(1.0, std::accumulate(m.cycle_probabilities.begin(),
                                    m.cycle_probabilities.end(), 0.0));
  m.discard_probability = 1.0 - m.reachability;

  const double cycle_ms = config.superframe.cycle_milliseconds();
  m.delays_ms.reserve(config.reporting_interval);
  m.delay_distribution.reserve(config.reporting_interval);
  for (std::uint32_t i = 0; i < config.reporting_interval; ++i) {
    const double delay =
        config.gateway_slot() * phy::kSlotMilliseconds + i * cycle_ms;
    m.delays_ms.push_back(delay);
    m.delay_distribution.push_back(
        m.reachability > 0.0 ? m.cycle_probabilities[i] / m.reachability
                             : 0.0);
    m.expected_delay_ms += delay * m.delay_distribution.back();
  }

  const double schedule_slots =
      static_cast<double>(config.reporting_interval) *
      config.superframe.uplink_slots;
  m.expected_transmissions = expected_transmissions;
  m.utilization = expected_transmissions / schedule_slots;
  m.utilization_delivered =
      delivered_transmissions(m.cycle_probabilities, config.hop_count(),
                              config.reporting_interval) /
      schedule_slots;
  m.expected_intervals_to_first_loss =
      m.discard_probability > 0.0
          ? 1.0 / m.discard_probability
          : std::numeric_limits<double>::infinity();

  double second_moment = 0.0;
  for (std::uint32_t i = 0; i < config.reporting_interval; ++i)
    second_moment +=
        m.delays_ms[i] * m.delays_ms[i] * m.delay_distribution[i];
  const double variance =
      second_moment - m.expected_delay_ms * m.expected_delay_ms;
  m.delay_jitter_ms = variance > 0.0 ? std::sqrt(variance) : 0.0;
  return m;
}

double PathMeasures::delay_percentile_ms(double quantile) const {
  expects(quantile >= 0.0 && quantile <= 1.0, "0 <= quantile <= 1");
  double cumulative = 0.0;
  for (std::size_t i = 0; i < delays_ms.size(); ++i) {
    cumulative += delay_distribution[i];
    if (cumulative >= quantile - 1e-12) return delays_ms[i];
  }
  return delays_ms.empty() ? 0.0 : delays_ms.back();
}

double PathMeasures::delay_cdf(double delay_ms) const {
  double cumulative = 0.0;
  for (std::size_t i = 0; i < delays_ms.size(); ++i)
    if (delays_ms[i] <= delay_ms + 1e-12) cumulative += delay_distribution[i];
  return cumulative;
}

double closed_form_transmissions(const std::vector<double>& cycle_probs,
                                 std::size_t hops,
                                 std::uint32_t reporting_interval) {
  expects(cycle_probs.size() == reporting_interval,
          "one probability per cycle");
  double attempts = 0.0;
  double reachability = 0.0;
  for (std::uint32_t i = 0; i < reporting_interval; ++i) {
    attempts += cycle_probs[i] * static_cast<double>(hops + i);
    reachability += cycle_probs[i];
  }
  attempts += (1.0 - reachability) *
              static_cast<double>(hops + reporting_interval - 1);
  return attempts;
}

double delivered_transmissions(const std::vector<double>& cycle_probs,
                               std::size_t hops,
                               std::uint32_t reporting_interval) {
  expects(cycle_probs.size() == reporting_interval,
          "one probability per cycle");
  double attempts = 0.0;
  for (std::uint32_t i = 0; i < reporting_interval; ++i)
    attempts += cycle_probs[i] * static_cast<double>(hops + i);
  return attempts;
}

}  // namespace whart::hart
