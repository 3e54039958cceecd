// Measurement harness shared by the workloads: op timing, benchmark-side
// trace spans, per-op obs-registry deltas and heap-meter readings, and
// the summary statistics the result lines report.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace whart::common::obs {
class Counter;
class Histogram;
}  // namespace whart::common::obs

namespace e2e {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median and tail of a latency sample.  The tail is the highest
/// percentile with at least ten samples beyond it (the eleventh largest
/// sample), reported with that percentile and the sample count.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Benchmark-side spans around the public calls into each whart module,
/// summed by span name.  Spans record only while the tracer is active,
/// which OpScope arranges for the body of a traced op; an inactive
/// tracer reads no clock.  Span names are string literals.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] bool active() const noexcept { return active_; }
  void set_active(bool active) noexcept { active_ = active; }

  /// Add `ns` to the span `name` (no allocation for the first
  /// kMaxNames names).
  void add(const char* name, std::uint64_t ns);

  /// Add the sums since the last drain to `out` (ns by span name) and
  /// zero them.
  void drain_into(std::map<std::string, double>& out);

 private:
  static constexpr std::size_t kMaxNames = 32;
  bool active_ = false;
  std::vector<std::pair<const char*, std::uint64_t>> sums_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name), start_(tracer.active() ? now_ns() : 0) {}
  ~Span() {
    if (start_ != 0) tracer_.add(name_, now_ns() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t start_;
};

/// Values of the library's obs counters and stage-histogram sums the
/// per-layer metrics read, taken through obs::Registry.
class ObsProbe {
 public:
  ObsProbe();
  /// Counter values, then histogram sums, in names() order.
  [[nodiscard]] std::vector<std::uint64_t> read() const;
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

 private:
  std::vector<std::string> names_;
  std::vector<const whart::common::obs::Counter*> counters_;
  std::vector<const whart::common::obs::Histogram*> histograms_;
};

/// One op's measurements.
struct Sample {
  double ms = 0.0;          // op latency
  std::uint32_t round = 0;  // measurement round the op ran in
  bool traced = false;
  double analysis_ms = 0.0;  // whole-network analysis inside the op
  double work_ms = 0.0;      // time of the part that did the op's work ...
  double units = 0.0;        // ... and the units of work it completed
};

/// Allocator that bypasses the replaced operator new, so the benchmark's
/// own sample storage, which grows with the op rate, stays out of the
/// heap meter's readings.
template <class T>
struct UnmeteredAllocator {
  using value_type = T;
  UnmeteredAllocator() = default;
  template <class U>
  UnmeteredAllocator(const UnmeteredAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }
  friend bool operator==(const UnmeteredAllocator&,
                         const UnmeteredAllocator&) noexcept {
    return true;
  }
};

template <class T>
using UnmeteredVector = std::vector<T, UnmeteredAllocator<T>>;

/// How much slower than a reference host the CPU runs right now.  Short
/// kernels that share no code with whart run back to back: a naive
/// 64x64 dense GEMM (vectorised floating point, like the solver's matrix
/// products) and ordered-map inserts (branches, pointer chasing and
/// malloc, like the solver's bookkeeping); for a memory-bound workload
/// also a random pointer chase through 4 MB, which misses the core's own
/// caches.  measure() returns the geometric mean of their times over
/// fixed reference times, so 1 means reference speed and 1.5 means
/// everything takes half as long again.
class SpeedProbe {
 public:
  explicit SpeedProbe(bool memory_bound = false);
  double measure();

 private:
  std::vector<double> a_, b_, c_;
  std::vector<std::uint32_t> next_;  // the chase's cycle; empty: no chase
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::uint32_t chase_at_ = 0;
};

/// One stream of closed-loop operations of a workload ("op", "sweep" or
/// "setup") and everything measured about it.
struct Stream {
  UnmeteredVector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t traced = 0;
  /// Per-layer sums over traced ops: span ns by span name, obs deltas by
  /// metric name, and values the workload adds itself.
  std::map<std::string, double> sums;
  std::map<std::string, double> maxes;
};

/// Wraps one op: in traced mode it activates the tracer for the body,
/// takes obs and heap readings around it and folds spans and deltas into
/// the stream.  The caller times the body itself.
class OpScope {
 public:
  OpScope(Stream& stream, Tracer& tracer, const ObsProbe& probe,
          bool traced);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Stream& stream_;
  Tracer& tracer_;
  const ObsProbe& probe_;
  bool traced_;
  std::vector<std::uint64_t> obs_before_;
  std::uint64_t allocs_before_ = 0;
  std::uint64_t bytes_before_ = 0;
  std::size_t live_before_ = 0;
  std::size_t outer_peak_ = 0;
};

}  // namespace e2e
