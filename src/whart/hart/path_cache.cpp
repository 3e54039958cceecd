#include "whart/hart/path_cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "whart/common/contracts.hpp"

namespace whart::hart {

namespace {

/// True when every firing event keeps its cycle under translation toward
/// slot 1: the TTL must be the full horizon (a mid-frame TTL cuts a
/// different number of attempts once the slots move).
bool translation_invariant(const PathModelConfig& config) {
  return config.effective_ttl() == config.horizon();
}

/// Smallest transmission-opportunity slot (hop or retry; retry slot 0
/// means "none" and is ignored).
net::SlotNumber min_opportunity_slot(const PathModelConfig& config) {
  net::SlotNumber min_slot = std::numeric_limits<net::SlotNumber>::max();
  for (net::SlotNumber s : config.hop_slots) min_slot = std::min(min_slot, s);
  for (net::SlotNumber s : config.retry_slots)
    if (s != 0) min_slot = std::min(min_slot, s);
  return min_slot;
}

/// The config translated so its earliest opportunity sits in slot 1
/// (identity when translation is not applicable).
PathModelConfig canonicalize(const PathModelConfig& config) {
  PathModelConfig canonical = config;
  if (!translation_invariant(config)) return canonical;
  const net::SlotNumber shift = min_opportunity_slot(config) - 1;
  if (shift == 0) return canonical;
  for (net::SlotNumber& s : canonical.hop_slots) s -= shift;
  for (net::SlotNumber& s : canonical.retry_slots)
    if (s != 0) s -= shift;
  return canonical;
}

void append_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
}

void append_double_bits(std::string& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
}

}  // namespace

std::string PathAnalysisCache::fingerprint(
    const PathModelConfig& config,
    const std::vector<double>& hop_availability, TransientKernel kernel) {
  const PathModelConfig canonical = canonicalize(config);
  std::string key;
  key.push_back(static_cast<char>(kernel));
  key.reserve(16 + 4 * canonical.hop_slots.size() +
              4 * canonical.retry_slots.size() + 8 * canonical.hop_count());
  // The solve depends only on the uplink frame length, the reporting
  // interval, the effective TTL, the firing pattern and the
  // availabilities — Fdown and the gateway slot offset enter the
  // *measures*, which are re-derived from the caller's config on every
  // lookup.
  append_u32(key, canonical.superframe.uplink_slots);
  append_u32(key, canonical.reporting_interval);
  append_u32(key, canonical.effective_ttl());
  append_u32(key, static_cast<std::uint32_t>(canonical.hop_slots.size()));
  for (net::SlotNumber s : canonical.hop_slots) append_u32(key, s);
  append_u32(key, static_cast<std::uint32_t>(canonical.retry_slots.size()));
  for (net::SlotNumber s : canonical.retry_slots) append_u32(key, s);
  for (std::size_t h = 0; h < canonical.hop_count(); ++h)
    append_double_bits(key, hop_availability[h]);
  return key;
}

PathMeasures PathAnalysisCache::measures(
    const PathModelConfig& config,
    const std::vector<double>& hop_availability, TransientKernel kernel) {
  expects(hop_availability.size() >= config.hop_count(),
          "one availability per hop");

  bool found = false;
  Entry entry;
  std::string key;
  {
    WHART_TIMER("hart.stage.cache_lookup.ns");
    key = fingerprint(config, hop_availability, kernel);
    const std::lock_guard lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      found = true;
      entry = it->second;
    }
  }
  if (found) {
    hits_.add(1);
    WHART_COUNT("hart.path_cache.hits");
    WHART_EVENT(kCacheHit, "hart.path_cache", config.hop_count(), 0);
  } else {
    misses_.add(1);
    WHART_COUNT("hart.path_cache.misses");
    WHART_EVENT(kCacheMiss, "hart.path_cache", config.hop_count(), 0);
  }

  if (!found) {
    // Solve the canonical model outside the lock; a concurrent miss on
    // the same key solves twice and stores the identical entry — benign.
    const SteadyStateLinks links(std::vector<double>(
        hop_availability.begin(),
        hop_availability.begin() +
            static_cast<std::ptrdiff_t>(config.hop_count())));
    PathAnalysisOptions options;
    options.kernel = kernel;
    const PathTransientResult transient =
        analyze_path(canonicalize(config), links, options);
    entry.cycle_probabilities = transient.cycle_probabilities;
    entry.expected_transmissions = transient.expected_transmissions;
    entry.expected_transmissions_delivered =
        transient.expected_transmissions_delivered;
    entry.diagnostics = transient.diagnostics;
    std::size_t size_after = 0;
    {
      const std::lock_guard lock(mutex_);
      if (max_entries_ > 0 && entries_.size() >= max_entries_ &&
          !entries_.contains(key)) {
        entries_.erase(entries_.begin());
        evictions_.add(1);
        WHART_COUNT("hart.path_cache.evictions");
      }
      entries_.emplace(key, entry);
      size_after = entries_.size();
    }
    WHART_GAUGE_SET("hart.path_cache.size", static_cast<double>(size_after));
  }

  // Re-derive the measures from the caller's (untranslated) config —
  // the same steps compute_path_measures performs on a direct solve.
  PathMeasures m = measures_from_cycles(config, entry.cycle_probabilities,
                                        entry.expected_transmissions);
  m.utilization_delivered =
      entry.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  m.diagnostics = entry.diagnostics;
  if (found) {
    m.diagnostics->from_cache = true;
    m.diagnostics->solve_ns = 0;
  }
  return m;
}

std::size_t PathAnalysisCache::size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

void PathAnalysisCache::clear() {
  const std::lock_guard lock(mutex_);
  entries_.clear();
  hits_.reset();
  misses_.reset();
  evictions_.reset();
}

}  // namespace whart::hart
