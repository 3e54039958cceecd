#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Iterations per second of an xorshift spin loop on each of `threads`
/// threads running at once, summed.
double spin_rate(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> iterations(threads, 0);
  std::vector<std::uint64_t> sinks(threads, 0);
  std::vector<std::thread> workers;
  const auto start = Clock::now();
  for (unsigned t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      std::uint64_t x = 88172645463325252ULL + t;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 4096; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        n += 4096;
      }
      iterations[t] = n;
      sinks[t] = x;
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  const double elapsed = seconds_since(start);
  std::uint64_t total = 0;
  for (unsigned t = 0; t < threads; ++t) total += iterations[t] + (sinks[t] & 1);
  return static_cast<double>(total) / elapsed;
}

/// Median SpeedProbe slowdown over a few readings.
double probe_slowdown() {
  SpeedProbe probe;
  std::vector<double> readings;
  for (int i = 0; i < 9; ++i) readings.push_back(probe.measure());
  std::sort(readings.begin(), readings.end());
  return readings[readings.size() / 2];
}

/// The CPU quota of the process's cgroup: v2 `cpu.max`, else the v1
/// quota and period, else "unavailable".
std::string cgroup_cpu_max() {
  const auto first_line = [](const char* path) {
    std::ifstream file(path);
    std::string line;
    if (file) std::getline(file, line);
    return line;
  };
  std::string v2 = first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  const std::string quota = first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period =
      first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (!quota.empty() && !period.empty()) return quota + " " + period;
  return "unavailable";
}

}  // namespace

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

json::Object host_context() {
  const auto affinity = static_cast<int>(allowed_cpus().size());
  const unsigned probe_threads =
      static_cast<unsigned>(std::clamp(affinity, 1, 8));
  const double one = spin_rate(1, 0.08);
  const double many = spin_rate(probe_threads, 0.08);

  json::Object host;
  host.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .num("affinity_cpus", affinity)
      .str("cgroup_cpu_max", cgroup_cpu_max())
      .num("spin_probe_threads", probe_threads)
      .num("spin_probe_usable_cpus", one > 0.0 ? many / one : 0.0)
      .str("compiler", WHART_E2E_COMPILER)
      .str("build_type", WHART_E2E_BUILD_TYPE)
      .num("calibration_slowdown", probe_slowdown())
      .str("parallel_scaling",
           "unmeasured: every workload pins threads=1; the spin probe "
           "estimates usable CPUs only");
  return host;
}

}  // namespace e2e
