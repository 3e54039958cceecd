// whart_verify — property-based verification of the analysis engine:
// fuzz random scenarios, check structural invariants and cross-validate
// the production solver against an independent dense reference solver
// and the Monte-Carlo simulator (statistical confidence bounds, no
// fixed epsilons).  Failures are shrunk to minimal reproducers and
// their seeds persisted to a corpus for replay.
//
// Usage:
//   whart_verify [options]
//
// Options:
//   --seed <s>           base seed of the fresh-scenario stream (default 1)
//   --runs <n>           fresh scenarios to generate (default 100)
//   --corpus <file>      seed corpus to replay and extend
//   --no-shrink          report failures without shrinking them
//   --no-sim             deterministic legs only (skip the simulator)
//   --intervals <n>      Monte-Carlo intervals per scenario (default 4000)
//   --shards <n>         Monte-Carlo shards (default 4)
//   --threads <n>        scenario fan-out workers (default: WHART_THREADS)
//   --channel-prob <p>   probability [0, 1] that a generated scenario
//                        carries a correlated-channel overlay (default
//                        0.45; 1 makes every scenario a channel one —
//                        the GE row of the CI fuzz matrix)
//   --inject <fault>     corrupt the production leg on purpose:
//                        link-bias | discard-leak | cycle-shift |
//                        product-entry | channel-state-leak (a
//                        healthy harness must then FAIL)
//   --obs-dir=<dir>      the observability bundle, the only export:
//                        metrics.json, trace.json and events.jsonl
//                        written into <dir>
//
// Exit status: 0 when every scenario passes, 1 on any finding, 2 on
// usage errors.  Reproduce any reported failure with --seed <seed>
// --runs 1.
#include <iostream>
#include <memory>
#include <string>

#include "whart/report/obs_dir.hpp"
#include "whart/verify/runner.hpp"

namespace {

int usage() {
  std::cerr << "usage: whart_verify [--seed <s>] [--runs <n>] "
               "[--corpus <file>] [--no-shrink] [--no-sim] "
               "[--intervals <n>] [--shards <n>] [--threads <n>] "
               "[--channel-prob <p>] "
               "[--inject link-bias|discard-leak|cycle-shift|product-entry|"
               "channel-state-leak] "
               "[--obs-dir=<dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  whart::verify::VerifyConfig config;
  std::string obs_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    try {
      if (arg == "--seed") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.seed = std::stoull(v);
      } else if (arg == "--runs") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.runs = std::stoull(v);
      } else if (arg == "--corpus") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.corpus_path = v;
      } else if (arg == "--no-shrink") {
        config.shrink = false;
      } else if (arg == "--no-sim") {
        config.oracle.run_simulation = false;
      } else if (arg == "--intervals") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.oracle.sim_intervals = std::stoull(v);
      } else if (arg == "--shards") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.oracle.sim_shards =
            static_cast<std::uint32_t>(std::stoul(v));
      } else if (arg == "--threads") {
        const char* v = value();
        if (v == nullptr) return usage();
        config.threads = static_cast<unsigned>(std::stoul(v));
      } else if (arg == "--channel-prob") {
        const char* v = value();
        if (v == nullptr) return usage();
        const double p = std::stod(v);
        if (p < 0.0 || p > 1.0) return usage();
        config.limits.channel_probability = p;
      } else if (arg == "--inject") {
        const char* v = value();
        if (v == nullptr) return usage();
        const std::string fault = v;
        if (fault == "link-bias")
          config.oracle.injection = whart::verify::Injection::kLinkBias;
        else if (fault == "discard-leak")
          config.oracle.injection = whart::verify::Injection::kDiscardLeak;
        else if (fault == "cycle-shift")
          config.oracle.injection = whart::verify::Injection::kCycleShift;
        else if (fault == "product-entry")
          config.oracle.injection = whart::verify::Injection::kProductEntry;
        else if (fault == "channel-state-leak")
          config.oracle.injection =
              whart::verify::Injection::kChannelStateLeak;
        else
          return usage();
      } else if (arg.starts_with("--obs-dir=")) {
        obs_dir = arg.substr(std::string("--obs-dir=").size());
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  std::unique_ptr<whart::report::ObsDirSession> obs_session;
  if (!obs_dir.empty())
    obs_session = std::make_unique<whart::report::ObsDirSession>(obs_dir);

  const whart::verify::VerifyReport report =
      whart::verify::run_verification(config);
  if (obs_session) obs_session->finish();

  std::cout << "scenarios: " << report.scenarios_run << " ("
            << report.corpus_replayed << " from corpus), simulated "
            << report.scenarios_simulated << ", statistical checks "
            << report.statistical_checks << "\n"
            << "invariant violations: " << report.invariant_violations
            << ", deterministic misses: " << report.deterministic_misses
            << ", CI-bound misses: " << report.ci_bound_misses << "\n";

  for (const whart::verify::VerifyFailure& failure : report.failures)
    std::cout << failure.summary();

  if (!report.ok()) {
    std::cout << report.failures.size()
              << " failing scenario(s); reproduce with --seed <seed> "
                 "--runs 1\n";
    return 1;
  }
  std::cout << "all scenarios passed\n";
  return 0;
}
