// The four end-to-end workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (ops that threw or mismatched).
  std::vector<std::string> failures;
  /// Untraced runs: the end-to-end metrics.  Traced runs: per-layer.
  std::vector<Metric> metrics;
  /// Everything else worth keeping: latency summaries with percentile
  /// and count, the reference mix, seeds and sizes.
  json::Object detail;
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Generate the workload's inputs from the seed, set up, run closed-loop
/// ops for the requested seconds and check every op's output.
Result run_workload(const Options& options);

}  // namespace e2e
