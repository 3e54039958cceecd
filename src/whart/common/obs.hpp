// Observability subsystem: a process-wide metrics registry (counters,
// gauges, log-bucketed histograms with quantile estimation), scoped
// trace spans with cross-thread causality (span ids, parent links, flow
// records across ThreadPool boundaries), a flight recorder (EventLog —
// fixed-size structured events in per-thread rings, dumped from the
// contracts.hpp failure path), and a background Sampler that turns the
// registry into a timestamped time series.  The analysis engine's hot
// paths (path solves, the thread pool, the Monte-Carlo shards) report
// through the macros at the bottom of this header;
// `report/metrics_export` turns snapshots into JSON / Chrome trace /
// Prometheus text / CSV and `whart_cli --obs-dir` writes the bundle.
//
// Cost model: metric handles are resolved once per call site (static
// reference behind a magic-static), so the hot path is a single relaxed
// atomic op per event.  Every macro first checks a runtime enable flag
// (one relaxed atomic load); metrics and the event log default ON,
// tracing defaults OFF because span buffers grow with the run (event
// rings are fixed-size, so the recorder can always be on).  Compiling a
// translation unit with WHART_OBS_DISABLED expands every macro to
// nothing, removing even the flag check.
//
// Naming convention (see DESIGN.md §9): `<layer>.<component>.<metric>`,
// lowercase, dot-separated; duration histograms end in `.ns` and record
// nanoseconds; counters are monotonic; gauges hold "current value";
// event kinds are snake_case verbs-in-the-past ("solve_done",
// "request_begin") and event names reuse the metric namespace of the
// component that emitted them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace whart::common::obs {

// ---------------------------------------------------------------------
// Metric primitives.  All operations are safe to call concurrently.
// ---------------------------------------------------------------------

/// Monotonic counter; add() is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Current value: last-write-wins set() plus lock-free add() deltas (a
/// CAS loop on the double bits), so producers that only know "one more"
/// / "one less" (e.g. the thread-pool queue depth) need no lock.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed (base-2) histogram over unsigned 64-bit samples —
/// intended for nanosecond latencies and integer sizes.  Bucket 0 holds
/// exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].  The
/// hot path is a handful of relaxed atomic ops.
class Histogram {
 public:
  /// Bucket 0 plus one bucket per possible bit width of a 64-bit value.
  static constexpr std::size_t kBucketCount = 65;

  void record(std::uint64_t value) noexcept;

  /// Index of the bucket containing `value` (== bit width of value).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Smallest / largest value landing in bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_lower_bound(
      std::size_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::size_t index) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Smallest / largest recorded sample (min() is 0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------------
// Snapshots (plain values, safe to serialize without further locking).
// ---------------------------------------------------------------------

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  struct Bucket {
    std::uint64_t lower = 0;  // inclusive
    std::uint64_t upper = 0;  // inclusive
    std::uint64_t count = 0;
  };
  /// Non-empty buckets only, in ascending value order.
  std::vector<Bucket> buckets;

  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket where the cumulative count crosses q*count, clamped to the
  /// observed [min, max].  Exact when the bucket holds a single distinct
  /// value (bucket 0, or min == max within the bucket); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// One registry snapshot with the trace-clock timestamp it was taken at
/// (what the Sampler accumulates; `report/metrics_export` renders a
/// vector of these as the time-series CSV).
struct TimedMetricsSnapshot {
  std::uint64_t t_ns = 0;  // trace_now_ns() at sampling time
  MetricsSnapshot metrics;
};

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// Process-wide registry of named metrics.  Registration (first lookup
/// of a name) takes a mutex; the returned references stay valid for the
/// process lifetime — reset() zeroes values but never removes entries,
/// so call sites may cache references.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every registered metric (bench/test isolation); entries and
  /// outstanding references remain valid.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------
// Runtime enable flags (one relaxed atomic load per instrumented event).
// ---------------------------------------------------------------------

[[nodiscard]] bool metrics_enabled() noexcept;  // default: true
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool trace_enabled() noexcept;  // default: false
void set_trace_enabled(bool enabled) noexcept;
[[nodiscard]] bool events_enabled() noexcept;  // default: true
void set_events_enabled(bool enabled) noexcept;

// ---------------------------------------------------------------------
// Flight recorder: fixed-size structured events in per-thread rings.
// ---------------------------------------------------------------------

/// What happened; the name identifies where.  Rendered in JSONL via
/// event_kind_name().  Extend at the end to keep dumps comparable.
enum class EventKind : std::uint16_t {
  kGeneric = 0,
  kRequestBegin,     // p0 = request id
  kRequestEnd,       // p0 = request id, p1 = duration ns
  kTaskSubmit,       // p0 = flow id
  kTaskStart,        // p0 = flow id
  kSolveDone,        // p0 = states, p1 = solve ns
  kStage,            // p0 = stage ns
  kContractFailure,  // recorded just before the contract exception
  kSamplerTick,      // p0 = samples taken so far
  kTraceClear,
};

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// One flight-recorder record.  Fixed-size and trivially copyable:
/// names are interned to small ids so the ring never allocates.
struct EventRecord {
  std::uint64_t ts_ns = 0;  // trace clock (same epoch as spans)
  std::uint64_t payload0 = 0;
  std::uint64_t payload1 = 0;
  std::uint32_t thread_id = 0;
  EventKind kind = EventKind::kGeneric;
  std::uint16_t name_id = 0;
};

/// The flight recorder: per-thread fixed-capacity rings of EventRecord.
/// Recording is wait-free against other threads (per-thread mutex is
/// only contended during a drain); when a ring is full the oldest
/// record is overwritten and dropped() grows.  events() merges and
/// time-sorts; write_jsonl() renders one JSON object per line — the
/// contracts.hpp failure path dumps the last records this way so every
/// expects() violation ships its context.
class EventLog {
 public:
  static constexpr std::size_t kRingCapacity = 1024;

  static EventLog& instance();

  /// Intern a name with static storage duration (the macros pass
  /// literals); returns a stable small id.  Takes the registry mutex —
  /// call once per site and cache (WHART_EVENT does).
  std::uint16_t intern(const char* name);

  void record(EventKind kind, std::uint16_t name_id, std::uint64_t p0 = 0,
              std::uint64_t p1 = 0) noexcept;

  /// All surviving records, merged across threads, sorted by timestamp.
  [[nodiscard]] std::vector<EventRecord> events() const;

  /// The interned name for an id ("" when unknown).
  [[nodiscard]] std::string name(std::uint16_t id) const;

  /// Total records overwritten by ring wrap-around since clear().
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// One JSON object per line; `last_n` == 0 means all surviving
  /// records, otherwise only the most recent `last_n`.
  void write_jsonl(std::ostream& out, std::size_t last_n = 0) const;

  void clear();

 private:
  EventLog() = default;
  struct ThreadRing;
  [[nodiscard]] ThreadRing& local_ring();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::uint32_t next_thread_id_ = 0;
  std::vector<const char*> names_;
  std::map<std::string_view, std::uint16_t> ids_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Where the contracts.hpp failure path dumps the flight recorder
/// (JSONL; the failure itself is the first line).  Empty disables the
/// dump; initialized from $WHART_EVENTS_DUMP on first failure when
/// never set explicitly.  `--obs-dir` points it into the bundle.
void set_contract_dump_path(std::string path);
[[nodiscard]] std::string contract_dump_path();

// ---------------------------------------------------------------------
// Scoped trace spans with cross-thread causality.
// ---------------------------------------------------------------------

/// One completed span.  `name` must be a string with static storage
/// duration (the macros pass literals), keeping the record trivially
/// copyable and the hot path allocation-free.
struct SpanRecord {
  const char* name = nullptr;
  std::uint32_t thread_id = 0;  // dense id in first-span order
  std::uint32_t depth = 0;      // nesting level on its thread
  std::uint64_t start_ns = 0;   // since the collector epoch
  std::uint64_t duration_ns = 0;
  std::uint64_t span_id = 0;     // unique per span; 0 = pre-causality
  std::uint64_t parent_id = 0;   // enclosing span (may live on another
                                 // thread via a TaskLink); 0 = root
  std::uint64_t request_id = 0;  // owning request span; 0 = none
  std::uint64_t flow_id = 0;     // nonzero on pool-task spans: the flow
                                 // tying this span to its submit site
};

/// One endpoint of a cross-thread flow arrow: `begin` is recorded on
/// the submitting thread at ThreadPool::submit, the matching end on the
/// worker when the task starts.  Exported as Chrome trace flow events
/// (ph "s"/"f" with the flow id).
struct FlowRecord {
  std::uint64_t flow_id = 0;
  std::uint64_t ts_ns = 0;
  std::uint32_t thread_id = 0;
  bool begin = false;
};

/// Flat per-name aggregate of the recorded spans.  The quantiles are
/// exact (computed from the full duration list, not bucketed).
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// The ambient causality on the current thread: the innermost open
/// span and the owning request.  Captured at ThreadPool::submit and
/// re-established inside the worker (TaskLink/TaskScope).
struct TraceContext {
  std::uint64_t span_id = 0;
  std::uint64_t request_id = 0;
};

[[nodiscard]] TraceContext current_trace_context() noexcept;

/// Nanoseconds since the trace epoch (process start / last clear()).
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// Generation counter bumped by TraceCollector::clear(); spans and task
/// links stamped with an older epoch discard themselves instead of
/// polluting the fresh buffers.
[[nodiscard]] std::uint64_t trace_epoch() noexcept;

/// Owns the per-thread span buffers.  Buffers outlive their threads
/// (shared ownership), so spans recorded by pool workers survive pool
/// destruction.
class TraceCollector {
 public:
  static TraceCollector& instance();

  /// All completed spans, merged across threads and sorted by start
  /// time (ties by thread id, then span id).
  [[nodiscard]] std::vector<SpanRecord> events() const;

  /// All flow endpoints, merged and sorted by timestamp.
  [[nodiscard]] std::vector<FlowRecord> flows() const;

  /// Per-name aggregates, sorted by descending total time.
  [[nodiscard]] std::vector<SpanAggregate> aggregate() const;

  /// Drop every recorded span/flow and restart the epoch.  Safe while
  /// spans are in flight on other threads: clear() advances the trace
  /// epoch, and a span (or pool-task link) created before the clear
  /// discards itself at completion instead of corrupting the buffers.
  void clear();

 private:
  TraceCollector() = default;
  friend class ScopedSpan;
  friend class TaskLink;
  friend class TaskScope;
  struct ThreadBuffer;

  /// This thread's buffer, created and registered on first use.
  [[nodiscard]] ThreadBuffer& local_buffer();

  void record_flow(std::uint64_t flow_id, std::uint64_t ts_ns, bool begin);

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_thread_id_ = 0;
};

/// RAII span: records [construction, destruction) on the calling thread
/// when tracing is enabled; a single relaxed load otherwise.  Allocates
/// a span id, links to the ambient parent span and request, and makes
/// itself the ambient parent for the scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  /// Internal: a pool-task span carrying the flow that delivered it.
  ScopedSpan(const char* name, std::uint64_t flow_id) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  TraceContext saved_{};
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t request_id_ = 0;
  std::uint64_t flow_id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t epoch_ = 0;
  bool active_ = false;
};

/// Root "request" span around an engine entry point (analyze_network,
/// a sweep, the optimizer): allocates a process-unique request id — the
/// future per-tenant request id — that every span and pool task under
/// it inherits, and marks request_begin/request_end in the flight
/// recorder.  Entering a nested instrumented entry point keeps the
/// outermost request id (the root owns the request).
class ScopedRequestSpan {
 public:
  explicit ScopedRequestSpan(const char* name) noexcept;
  ~ScopedRequestSpan();

  ScopedRequestSpan(const ScopedRequestSpan&) = delete;
  ScopedRequestSpan& operator=(const ScopedRequestSpan&) = delete;

  /// The ambient request id inside this scope (0 when both tracing and
  /// the event log are disabled).
  [[nodiscard]] std::uint64_t request_id() const noexcept {
    return request_.id;
  }

 private:
  struct RequestMark {
    explicit RequestMark(const char* name) noexcept;
    ~RequestMark();
    const char* name;
    std::uint64_t id = 0;
    std::uint64_t saved = 0;
    std::uint64_t start_ns = 0;
    bool root = false;
    bool marked = false;
  };
  RequestMark request_;
  ScopedSpan span_;
};

/// Causality captured at a ThreadPool::submit call site.  begin()
/// snapshots the submitting thread's TraceContext, allocates a flow id
/// and records the flow-begin endpoint; inert (all zeros) when tracing
/// is disabled, so the pool pays one relaxed load per submit.
class TaskLink {
 public:
  TaskLink() = default;
  [[nodiscard]] static TaskLink begin() noexcept;
  [[nodiscard]] bool active() const noexcept { return flow_id_ != 0; }
  [[nodiscard]] std::uint64_t flow_id() const noexcept { return flow_id_; }

 private:
  friend class TaskScope;
  TraceContext ctx_{};
  std::uint64_t flow_id_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Re-establishes a TaskLink inside the worker: restores the submitting
/// context as ambient, records the flow-end endpoint and traces the
/// task body as a "pool_task" span whose parent is the submitting span.
/// Inert when the link is inert or the trace epoch advanced since
/// submit (a clear() raced the task).
class TaskScope {
 public:
  explicit TaskScope(const TaskLink& link) noexcept;
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  TraceContext saved_{};
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t request_id_ = 0;
  std::uint64_t flow_id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t epoch_ = 0;
  bool active_ = false;
};

/// RAII histogram timer: records the scope's duration (ns) into
/// `histogram` at destruction; pass nullptr to disable (the WHART_TIMER
/// macro does so when metrics are off).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

// ---------------------------------------------------------------------
// Continuous metrics surface.
// ---------------------------------------------------------------------

/// Background thread snapshotting the registry every `interval` into a
/// bounded timestamped ring (oldest samples dropped past `capacity`).
/// Samples once at start and once at stop, so even runs shorter than
/// one interval produce a two-point series.  The ring is rendered by
/// `report::write_timeseries_csv` and the final snapshot by
/// `report::write_prometheus_text`.
class Sampler {
 public:
  explicit Sampler(std::chrono::milliseconds interval,
                   std::size_t capacity = 512);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stop the background thread (idempotent) after one final sample.
  void stop();

  /// The accumulated series, oldest first.
  [[nodiscard]] std::vector<TimedMetricsSnapshot> series() const;

  /// Samples taken so far (monotonic; may exceed capacity).
  [[nodiscard]] std::size_t samples() const;

 private:
  void loop();
  void take_sample();

  std::chrono::milliseconds interval_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::size_t samples_ = 0;
  std::deque<TimedMetricsSnapshot> ring_;
  std::thread thread_;
};

}  // namespace whart::common::obs

// ---------------------------------------------------------------------
// Instrumentation macros.  Compile to nothing under WHART_OBS_DISABLED;
// otherwise guard on the runtime flags and cache the metric handle in a
// function-local static, so the steady-state cost is one flag load plus
// one relaxed atomic op.
// ---------------------------------------------------------------------

#define WHART_OBS_CONCAT_INNER(a, b) a##b
#define WHART_OBS_CONCAT(a, b) WHART_OBS_CONCAT_INNER(a, b)

#if defined(WHART_OBS_DISABLED)

#define WHART_SPAN(name)
#define WHART_REQUEST_SPAN(name)
#define WHART_TIMER(name)
#define WHART_COUNT(name) \
  do {                    \
  } while (false)
#define WHART_COUNT_N(name, n) \
  do {                         \
    if (false) {               \
      (void)(n);               \
    }                          \
  } while (false)
#define WHART_GAUGE_SET(name, value) \
  do {                               \
    if (false) {                     \
      (void)(value);                 \
    }                                \
  } while (false)
#define WHART_GAUGE_ADD(name, delta) \
  do {                               \
    if (false) {                     \
      (void)(delta);                 \
    }                                \
  } while (false)
#define WHART_OBSERVE(name, value) \
  do {                             \
    if (false) {                   \
      (void)(value);               \
    }                              \
  } while (false)
#define WHART_EVENT(kind, name, p0, p1) \
  do {                                  \
    if (false) {                        \
      (void)(p0);                       \
      (void)(p1);                       \
    }                                   \
  } while (false)

#else

/// Trace the enclosing scope as a span named `name` (string literal).
#define WHART_SPAN(name)                              \
  [[maybe_unused]] const ::whart::common::obs::ScopedSpan \
      WHART_OBS_CONCAT(whart_obs_span_, __LINE__)(name)

/// Trace the enclosing scope as a root request span (unique request id
/// inherited by every span/pool task underneath; request_begin/_end in
/// the flight recorder).
#define WHART_REQUEST_SPAN(name)                             \
  [[maybe_unused]] const ::whart::common::obs::ScopedRequestSpan \
      WHART_OBS_CONCAT(whart_obs_request_, __LINE__)(name)

/// Record the enclosing scope's duration into histogram `name` (ns).
#define WHART_TIMER(name)                                                 \
  [[maybe_unused]] const ::whart::common::obs::ScopedTimer                \
      WHART_OBS_CONCAT(whart_obs_timer_, __LINE__)(                       \
          []() noexcept -> ::whart::common::obs::Histogram* {             \
            if (!::whart::common::obs::metrics_enabled()) return nullptr; \
            static ::whart::common::obs::Histogram& whart_obs_histogram = \
                ::whart::common::obs::Registry::instance().histogram(     \
                    name);                                                \
            return &whart_obs_histogram;                                  \
          }())

#define WHART_COUNT(name) WHART_COUNT_N(name, 1)

#define WHART_COUNT_N(name, n)                                          \
  do {                                                                  \
    if (::whart::common::obs::metrics_enabled()) {                      \
      static ::whart::common::obs::Counter& whart_obs_counter =         \
          ::whart::common::obs::Registry::instance().counter(name);     \
      whart_obs_counter.add(static_cast<std::uint64_t>(n));             \
    }                                                                   \
  } while (false)

#define WHART_GAUGE_SET(name, value)                                    \
  do {                                                                  \
    if (::whart::common::obs::metrics_enabled()) {                      \
      static ::whart::common::obs::Gauge& whart_obs_gauge =             \
          ::whart::common::obs::Registry::instance().gauge(name);       \
      whart_obs_gauge.set(static_cast<double>(value));                  \
    }                                                                   \
  } while (false)

/// Apply a +/- delta to gauge `name` (lock-free CAS on the double).
#define WHART_GAUGE_ADD(name, delta)                                    \
  do {                                                                  \
    if (::whart::common::obs::metrics_enabled()) {                      \
      static ::whart::common::obs::Gauge& whart_obs_gauge =             \
          ::whart::common::obs::Registry::instance().gauge(name);       \
      whart_obs_gauge.add(static_cast<double>(delta));                  \
    }                                                                   \
  } while (false)

#define WHART_OBSERVE(name, value)                                      \
  do {                                                                  \
    if (::whart::common::obs::metrics_enabled()) {                      \
      static ::whart::common::obs::Histogram& whart_obs_histogram =     \
          ::whart::common::obs::Registry::instance().histogram(name);   \
      whart_obs_histogram.record(static_cast<std::uint64_t>(value));    \
    }                                                                   \
  } while (false)

/// Record a flight-recorder event: `kind` is a bare EventKind
/// enumerator (e.g. kSolveDone), `name` a string literal (interned once
/// per call site), p0/p1 the payload words.
#define WHART_EVENT(kind, name, p0, p1)                                    \
  do {                                                                     \
    if (::whart::common::obs::events_enabled()) {                          \
      static const std::uint16_t whart_obs_event_name =                    \
          ::whart::common::obs::EventLog::instance().intern(name);         \
      ::whart::common::obs::EventLog::instance().record(                   \
          ::whart::common::obs::EventKind::kind, whart_obs_event_name,     \
          static_cast<std::uint64_t>(p0), static_cast<std::uint64_t>(p1)); \
    }                                                                      \
  } while (false)

#endif  // WHART_OBS_DISABLED
