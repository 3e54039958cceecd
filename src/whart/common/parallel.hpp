// Parallel execution subsystem: a small fixed-size thread pool plus
// parallel_for / parallel_map helpers used by every fan-out hot path
// (per-path network analysis, parameter sweeps, Monte-Carlo shards).
//
// Determinism contract: the helpers assign results by index, so a
// parallel run produces output bit-identical to the serial loop it
// replaces — threads only change wall-clock time, never results.  The
// worker count comes from an explicit argument when given, otherwise
// from the WHART_THREADS environment variable, otherwise from the
// hardware concurrency; `threads <= 1` (or fewer than two items) falls
// back to running serially on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "whart/common/obs.hpp"

namespace whart::common {

/// Where a resolved thread count came from (exported as the gauge
/// `parallel.threads.source`: 0 = argument, 1 = environment, 2 =
/// hardware).
enum class ThreadCountSource : int {
  kArgument = 0,
  kEnvironment = 1,
  kHardware = 2,
};

struct ResolvedThreadCount {
  unsigned threads = 1;
  ThreadCountSource source = ThreadCountSource::kHardware;
};

/// Resolve an execution width with provenance: `requested` > 0 wins; 0
/// consults the WHART_THREADS environment variable (clamped to >= 1);
/// an unset or unparsable variable falls back to
/// std::thread::hardware_concurrency() (itself clamped to >= 1).
ResolvedThreadCount resolve_thread_count_detailed(unsigned requested = 0);

/// The width alone; also publishes the `parallel.threads.resolved` /
/// `parallel.threads.source` gauges.
unsigned resolve_thread_count(unsigned requested = 0);

/// A fixed-size pool of worker threads draining one task queue.  Tasks
/// must not throw; the parallel_for/parallel_map helpers wrap user
/// callables with exception capture before submitting.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);

  /// Joins all workers after the queue drains.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t next_task_ = 0;   // queue_ front (popped lazily)
  std::size_t in_flight_ = 0;   // queued + running tasks
  bool stopping_ = false;
};

namespace detail {

/// Runs fn(i) for i in [0, n) on `threads` resolved workers, pulling
/// indices from a shared atomic counter (dynamic scheduling — per-item
/// cost is uneven in every caller).  The first exception thrown by fn is
/// rethrown on the calling thread after all workers finish.
void parallel_for_impl(std::size_t n,
                       const std::function<void(std::size_t)>& fn,
                       unsigned threads);

}  // namespace detail

/// Invoke fn(i) for every i in [0, n); fn must be safe to call from
/// several threads at once.  Serial when the resolved width is 1 or
/// n < 2.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, unsigned threads = 0) {
  const unsigned width = resolve_thread_count(threads);
  if (width <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::parallel_for_impl(n, std::function<void(std::size_t)>(fn), width);
}

/// Map fn over items; result i is fn(items[i]), in input order regardless
/// of which thread computed it.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn, unsigned threads = 0)
    -> std::vector<decltype(fn(items[std::size_t{0}]))> {
  std::vector<decltype(fn(items[std::size_t{0}]))> results(items.size());
  parallel_for(
      items.size(), [&](std::size_t i) { results[i] = fn(items[i]); },
      threads);
  return results;
}

}  // namespace whart::common
