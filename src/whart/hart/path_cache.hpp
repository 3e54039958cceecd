// Memoized path-analysis cache.  Large generated plants contain many
// structurally identical paths (the 30/50/20 hop-count mix of the HART
// plant statistics): a 1-hop path scheduled in slot 7 behaves exactly
// like a 1-hop path scheduled in slot 1, apart from a constant delay
// offset that the measure derivation reapplies anyway.  The cache keys
// each solve by a canonical fingerprint of (PathModelConfig, per-hop
// steady-state availabilities) and stores the solver outputs (cycle
// probabilities, expected transmissions), so structurally identical
// paths are solved once and shared.
//
// Exactness: with steady-state links the per-attempt success
// probability is slot-independent, and translating every transmission
// opportunity by the same offset toward slot 1 keeps each firing event
// in the same superframe cycle (slots are congruent mod Fup and stay
// within [1, Fup]) — the forward/backward passes perform the identical
// arithmetic sequence, so the canonical solve is bit-identical to the
// direct one.  Translation is only applied when the effective TTL is
// the full horizon (a mid-frame TTL is not translation invariant).
// Cached results are therefore exactly equal to uncached ones.
//
// Observability: hit/miss/eviction counts live on per-instance
// obs::Counter cells (exact per-cache accounting for tests and benches)
// and are mirrored into the process-wide registry under
// hart.path_cache.{hits,misses,evictions} with a hart.path_cache.size
// gauge, so a --metrics dump reports the cumulative cache behaviour of
// the whole run.
//
// Thread safety: all members are safe to call concurrently; the cache is
// shared by the parallel per-path workers of hart::analyze_network.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <mutex>
#include <vector>

#include "whart/common/obs.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {

class PathAnalysisCache {
 public:
  /// Unbounded cache (every distinct fingerprint is kept).
  PathAnalysisCache() = default;

  /// Cache holding at most `max_entries` solves (0 = unbounded).  When
  /// full, an arbitrary entry is evicted to make room — correctness is
  /// unaffected (an evicted fingerprint is simply re-solved), only the
  /// hit rate.
  explicit PathAnalysisCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// Measures of `config` under steady-state links with the given
  /// per-hop UP probabilities, solving (and memoizing) on a miss.
  /// Bit-identical to compute_path_measures on a SteadyStateLinks
  /// provider with the same availabilities and kernel (the translation
  /// argument in the header holds for the cycle collapse too: it visits
  /// the same firings in the same order and skips idle i.i.d. slots).
  PathMeasures measures(const PathModelConfig& config,
                        const std::vector<double>& hop_availability,
                        TransientKernel kernel = TransientKernel::kPerSlot);

  /// Canonical fingerprint of (config, availabilities, kernel); two
  /// calls with the same fingerprint share one solve.  Solves by
  /// different kernels never share an entry — they agree only to
  /// rounding, and the cache promises bit-identical replay.  Exposed for
  /// tests.
  [[nodiscard]] static std::string fingerprint(
      const PathModelConfig& config,
      const std::vector<double>& hop_availability,
      TransientKernel kernel = TransientKernel::kPerSlot);

  /// Lookups served from a stored entry (this instance only).
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.value(); }

  /// Lookups that required a fresh solve (this instance only).
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.value();
  }

  /// Entries discarded to respect the capacity bound.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.value();
  }

  /// Capacity bound (0 = unbounded).
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  /// The solver outputs a measure reconstruction needs; everything else
  /// in PathMeasures is derived from these plus the (uncanonicalized)
  /// config.
  struct Entry {
    std::vector<double> cycle_probabilities;
    double expected_transmissions = 0.0;
    double expected_transmissions_delivered = 0.0;
    SolverDiagnostics diagnostics;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::size_t max_entries_ = 0;
  common::obs::Counter hits_;
  common::obs::Counter misses_;
  common::obs::Counter evictions_;
};

}  // namespace whart::hart
