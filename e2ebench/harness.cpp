#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "heap_meter.hpp"
#include "whart/common/obs.hpp"

namespace e2e {

namespace {

/// Obs counters, then stage histograms (their ns sums), that per-layer
/// metrics read.  Names are the library's own.
const char* const kCounters[] = {
    "hart.skeleton.builds",         "hart.skeleton.refills",
    "hart.skeleton.store_evictions", "hart.path_cache.hits",
    "hart.path_cache.misses",       "hart.path_solve.channel",
    "hart.batch.remainder_points",  "hart.whatif.paths_resolved",
    "hart.whatif.incremental_fallback", "markov.transient.steps",
    "markov.superframe.builds",     "markov.superframe.steps_collapsed",
    "markov.incremental.rows_replayed", "sim.slots",
};
const char* const kStageHistograms[] = {
    "hart.stage.skeleton_build.ns",    "hart.stage.refill.ns",
    "hart.stage.product_build.ns",     "hart.stage.tail_solve.ns",
    "hart.stage.cache_lookup.ns",      "hart.stage.incremental_refill.ns",
    "hart.stage.batch_refill.ns",
};

constexpr std::size_t kGemmN = 64;
constexpr int kMapInserts = 2000;
constexpr std::size_t kChaseEntries = std::size_t{1} << 20;  // 4 MB
constexpr int kChaseSteps = 20000;
/// The kernels' times on a quiet 2.1 GHz Xeon (Sapphire Rapids) KVM
/// vCPU, GCC 12 -O3: the speed SpeedProbe::measure() reads as 1.
constexpr double kReferenceGemmMs = 0.065;
constexpr double kReferenceMapMs = 0.280;
constexpr double kReferenceChaseMs = 1.5;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

SpeedProbe::SpeedProbe(bool memory_bound)
    : a_(kGemmN * kGemmN), b_(kGemmN * kGemmN), c_(kGemmN * kGemmN) {
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = static_cast<double>(i % 7) * 0.25;
    b_[i] = static_cast<double>(i % 5) * 0.5;
  }
  if (!memory_bound) return;
  // One random cycle through every entry (Sattolo's shuffle).
  next_.resize(kChaseEntries);
  for (std::size_t i = 0; i < kChaseEntries; ++i)
    next_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = state_;
  for (std::size_t i = kChaseEntries - 1; i > 0; --i)
    std::swap(next_[i], next_[xorshift(x) % i]);
}

double SpeedProbe::measure() {
  const std::uint64_t start = now_ns();
  std::fill(c_.begin(), c_.end(), 0.0);
  for (std::size_t i = 0; i < kGemmN; ++i)
    for (std::size_t k = 0; k < kGemmN; ++k) {
      const double aik = a_[i * kGemmN + k];
      for (std::size_t j = 0; j < kGemmN; ++j)
        c_[i * kGemmN + j] += aik * b_[k * kGemmN + j];
    }
  const std::uint64_t gemm_end = now_ns();
  // Unmetered, so the probe never shows in the heap meter's readings.
  std::map<std::uint64_t, double, std::less<>,
           UnmeteredAllocator<std::pair<const std::uint64_t, double>>>
      map;
  for (int i = 0; i < kMapInserts; ++i)
    map[xorshift(state_) % 65536] += c_[i % c_.size()];
  const std::uint64_t map_end = now_ns();
  // Keep the results observable (the sum is never negative).
  if (map.begin()->second < 0.0) state_ ^= 1;
  double product = static_cast<double>(gemm_end - start) / 1e6 /
                   kReferenceGemmMs *
                   static_cast<double>(map_end - gemm_end) / 1e6 /
                   kReferenceMapMs;
  if (next_.empty()) return std::sqrt(product);

  std::uint32_t at = chase_at_;
  for (int i = 0; i < kChaseSteps; ++i) at = next_[at];
  chase_at_ = at;
  product *= static_cast<double>(now_ns() - map_end) / 1e6 / kReferenceChaseMs;
  return std::cbrt(product);
}

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  summary.p50 = samples[(n - 1) / 2];
  // The highest percentile with ten samples beyond it is the eleventh
  // largest sample, at percentile 100 (n - 10) / n; below 21 samples
  // that would fall under the median, which is reported instead.
  const std::size_t tail = n > 20 ? n - 11 : (n - 1) / 2;
  summary.tail = samples[tail];
  summary.tail_percentile =
      100.0 * static_cast<double>(tail + 1) / static_cast<double>(n);
  return summary;
}

Tracer::Tracer() { sums_.reserve(kMaxNames); }

void Tracer::add(const char* name, std::uint64_t ns) {
  for (auto& [known, sum] : sums_)
    if (std::strcmp(known, name) == 0) {
      sum += ns;
      return;
    }
  sums_.emplace_back(name, ns);
}

void Tracer::drain_into(std::map<std::string, double>& out) {
  for (auto& [name, sum] : sums_) {
    out[name] += static_cast<double>(sum);
    sum = 0;
  }
}

ObsProbe::ObsProbe() {
  auto& registry = whart::common::obs::Registry::instance();
  for (const char* name : kCounters) {
    names_.emplace_back(name);
    counters_.push_back(&registry.counter(name));
  }
  for (const char* name : kStageHistograms) {
    names_.emplace_back(name);
    histograms_.push_back(&registry.histogram(name));
  }
}

std::vector<std::uint64_t> ObsProbe::read() const {
  std::vector<std::uint64_t> values;
  values.reserve(names_.size());
  for (const auto* counter : counters_) values.push_back(counter->value());
  for (const auto* histogram : histograms_) values.push_back(histogram->sum());
  return values;
}

OpScope::OpScope(Stream& stream, Tracer& tracer, const ObsProbe& probe,
                 bool traced)
    : stream_(stream), tracer_(tracer), probe_(probe), traced_(traced) {
  ++stream_.attempted;
  if (!traced_) return;
  obs_before_ = probe_.read();
  const heap::Totals totals = heap::totals();
  allocs_before_ = totals.allocs;
  bytes_before_ = totals.bytes;
  outer_peak_ = heap::peak_bytes();
  live_before_ = heap::live_bytes();
  heap::reset_peak();
  tracer_.set_active(true);
}

OpScope::~OpScope() {
  if (!traced_) return;
  tracer_.set_active(false);
  const std::size_t op_peak = heap::peak_bytes();
  const heap::Totals totals = heap::totals();
  const std::vector<std::uint64_t> obs_after = probe_.read();
  ++stream_.traced;
  tracer_.drain_into(stream_.sums);
  for (std::size_t i = 0; i < obs_after.size(); ++i)
    stream_.sums[probe_.names()[i]] +=
        static_cast<double>(obs_after[i] - obs_before_[i]);
  stream_.sums["mem.allocs"] += static_cast<double>(totals.allocs - allocs_before_);
  stream_.sums["mem.bytes"] += static_cast<double>(totals.bytes - bytes_before_);
  double& peak = stream_.maxes["mem.peak_live_bytes"];
  peak = std::max(peak, static_cast<double>(op_peak - live_before_));
  heap::restore_peak(std::max(outer_peak_, op_peak));
}

}  // namespace e2e
