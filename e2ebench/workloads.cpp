#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness.hpp"
#include "host.hpp"
#include "heap_meter.hpp"
#include "reference.hpp"
#include "whart/cli/spec_parser.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/report/histogram.hpp"
#include "whart/report/table.hpp"
#include "whart/sim/simulator.hpp"

namespace e2e {

namespace {

using namespace whart;

constexpr double kBytesPerMB = 1e6;
constexpr std::size_t kMaxFailureNotes = 8;

// ---------------------------------------------------------------------
// Workload parameters.
// ---------------------------------------------------------------------

constexpr std::uint32_t kPlantDevices = 200;
constexpr std::uint32_t kPlantInterval = 4;
constexpr std::size_t kColdPlants = 16;

constexpr std::uint32_t kLongInterval = 1000;
constexpr std::size_t kLongWarmups = 16;

constexpr std::uint32_t kCrossDevices = 50;
constexpr std::size_t kCrossPlants = 12;
constexpr std::uint64_t kCrossIntervals = 2000;
/// Whole-op false-alarm probability of the simulator check, split over
/// the paths (Bonferroni).
constexpr double kCrossFalseAlarm = 1e-9;

/// The replan plant is fixed (the 200-device plant of generator seed 7):
/// a what-if's cost grows with the paths under the link, so the
/// latency tail is set by the plant's largest subtree, and a plant per
/// seed would turn that structure into seed-to-seed spread.  The seed
/// drives the query rotation, the availabilities and the swept paths.
constexpr std::uint64_t kReplanPlant = 7;
constexpr std::size_t kEngineBuilds = 16;
constexpr std::size_t kSweepsPerHopCount = 2;
constexpr std::size_t kSweepPoints = 64;
constexpr std::size_t kQueriesPerSweep = 32;

/// The section-6 bursty setting: Gilbert-Elliott bad bursts of mean
/// 1 / 0.0125 = 80 slots, total loss in the bad state.
link::ChannelModel bursty_channel() {
  return link::ChannelModel::gilbert_elliott(0.005, 0.0125, 0.0, 1.0);
}

hart::AnalysisOptions cli_analysis_options() {
  hart::AnalysisOptions options;  // whart_cli's defaults ...
  options.threads = 1;            // ... pinned to one thread
  return options;
}

// ---------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent sub-seed `salt` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(seed ^ splitmix(salt));
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = splitmix(state_); }
  double uniform(double low, double high) {
    return low + (high - low) * static_cast<double>(next() >> 11) * 0x1p-53;
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------
// Bench: streams, tracer and the op runner of one run.
// ---------------------------------------------------------------------

class Bench {
 public:
  Bench(const Options& options, bool memory_bound)
      : options(options), cpus_(allowed_cpus()), speed_(memory_bound) {}

  const Options& options;
  Tracer tracer;
  ObsProbe probe;
  Stream setup, op, sweep;
  std::vector<std::string> failures;

  /// Start of the measured window: inputs and references exist, set-up
  /// has not run.  Peak memory is counted from here.
  void start_window() {
    baseline_live_ = heap::live_bytes();
    heap::reset_peak();
  }
  [[nodiscard]] double peak_mb() const {
    return static_cast<double>(heap::peak_bytes() - baseline_live_) /
           kBytesPerMB;
  }

  /// Run one op: `body()` is timed (spans inside it record when the op
  /// is traced); `check(out, stream, traced)` then runs untimed and
  /// returns "" or a failure description.  In trace mode every set-up op
  /// and a pseudo-random half of the other streams' ops are traced, so
  /// traced and untraced latencies interleave over every input of a
  /// rotation (a fixed parity would trace the same inputs each rotation).
  template <class Body, class Check>
  void run_op(Stream& stream, Body&& body, Check&& check) {
    const bool traced =
        options.trace &&
        (&stream == &setup || (splitmix(stream.attempted) & 1) != 0);
    Sample sample;
    sample.traced = traced;
    sample.round = round_;
    std::optional<decltype(body())> out;
    std::string error;
    double ms = 0.0;
    {
      OpScope scope(stream, tracer, probe, traced);
      const std::uint64_t start = now_ns();
      try {
        out.emplace(body());
      } catch (const std::exception& e) {
        error = std::string("op threw: ") + e.what();
      }
      ms = static_cast<double>(now_ns() - start) / 1e6;
    }
    const std::size_t peak = heap::peak_bytes();
    sample.ms = ms;
    stream.samples.push_back(sample);
    if (out.has_value()) {
      try {
        error = check(*out, stream, traced);
      } catch (const std::exception& e) {
        error = std::string("check threw: ") + e.what();
      }
    }
    heap::restore_peak(peak);
    if (!error.empty()) {
      ++stream.failed;
      if (failures.size() < kMaxFailureNotes) failures.push_back(error);
    }
    if (now_ns() - last_probe_ns_ >= kProbeEveryNs) probe_speed();
  }

  /// Start the next measurement round, on the next CPU the process may
  /// use, and read the host's speed there.
  void next_round() {
    ++round_;
    if (!cpus_.empty()) pin_to_cpu(cpus_[round_ % cpus_.size()]);
    for (int i = 0; i < kRoundStartProbes; ++i) probe_speed();
  }

  /// Host slowdown readings of each round (SpeedProbe), by round.  They
  /// grow between ops, so they stay out of the heap meter's readings.
  using Readings = UnmeteredVector<UnmeteredVector<double>>;
  [[nodiscard]] const Readings& slowdowns() const { return slowdowns_; }

  /// Closed loop for the requested seconds; `step(k)` runs op k.  Ops
  /// run in rounds of whole input rotations (`rotation` ops) lasting at
  /// least kRoundSeconds.
  template <class Step>
  void loop(std::size_t rotation, Step&& step) {
    constexpr double kRoundSeconds = 0.5;
    const auto seconds = [](double s) {
      return static_cast<std::uint64_t>(s * 1e9);
    };
    const std::uint64_t end = now_ns() + seconds(options.seconds);
    std::uint64_t k = 0;
    do {
      next_round();
      const std::uint64_t round_end = now_ns() + seconds(kRoundSeconds);
      do {
        step(k++);
      } while (k % rotation != 0 || now_ns() < round_end);
    } while (now_ns() < end);
  }

 private:
  /// Probes at the start of a round, and the least time between probes
  /// (each takes about half a millisecond, outside every op).
  static constexpr int kRoundStartProbes = 8;
  static constexpr std::uint64_t kProbeEveryNs = 10'000'000;

  void probe_speed() {
    slowdowns_.resize(round_ + 1);
    slowdowns_[round_].push_back(speed_.measure());
    last_probe_ns_ = now_ns();
  }

  std::vector<int> cpus_;
  std::uint32_t round_ = 0;
  std::size_t baseline_live_ = 0;
  SpeedProbe speed_;
  Readings slowdowns_;
  std::uint64_t last_probe_ns_ = 0;
};

/// Time `fn()` into `ms` (a sub-op latency), returning fn's result.
template <class Fn>
auto timed_part(double& ms, Fn&& fn) {
  const std::uint64_t start = now_ns();
  auto result = fn();
  ms = static_cast<double>(now_ns() - start) / 1e6;
  return result;
}

// ---------------------------------------------------------------------
// Inputs and their references.
// ---------------------------------------------------------------------

struct ReferenceMix {
  std::size_t analytic = 0, walk = 0;
  void count(RefKind kind) {
    ++(kind == RefKind::kAnalytic ? analytic : walk);
  }
};

std::vector<double> hop_availability(const net::Network& network,
                                     const net::Path& path) {
  std::vector<double> out;
  for (const link::LinkModel& model : path.hop_models(network))
    out.push_back(model.steady_state_availability());
  return out;
}

/// i.i.d. references of every path of a plant.
std::vector<RefMeasures> plant_references(const net::Network& network,
                                          const std::vector<net::Path>& paths,
                                          const net::Schedule& schedule,
                                          net::SuperframeConfig superframe,
                                          std::uint32_t interval,
                                          ReferenceMix& mix) {
  std::vector<RefMeasures> refs;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    RefKind kind = RefKind::kAnalytic;
    refs.push_back(reference_iid(
        hart::PathModelConfig::from_schedule(schedule, p, superframe,
                                             interval),
        hop_availability(network, paths[p]), &kind));
    mix.count(kind);
  }
  return refs;
}

/// Compare every path of `measures` with its reference.
std::string check_paths(const std::vector<hart::PathMeasures>& measures,
                        const std::vector<RefMeasures>& refs) {
  if (measures.size() != refs.size())
    return "path count " + std::to_string(measures.size()) + " vs " +
           std::to_string(refs.size());
  std::string why;
  for (std::size_t p = 0; p < refs.size(); ++p)
    if (!agrees(measures[p], refs[p], why))
      return "path " + std::to_string(p) + ": " + why;
  return "";
}

net::GeneratedPlant make_plant(std::uint32_t devices, std::uint64_t seed) {
  net::PlantProfile profile;  // HART hop mix and availability defaults
  profile.device_count = devices;
  profile.seed = seed;
  return net::generate_plant(profile);
}

/// The plant as whart_cli spec text; link models as exact pfl/prc pairs
/// and every generated route pinned, so parsing rebuilds the plant.
std::string render_spec(const net::GeneratedPlant& plant,
                        std::uint32_t interval) {
  std::ostringstream out;
  out.precision(17);
  out << "superframe " << plant.superframe.uplink_slots << " "
      << plant.superframe.downlink_slots << "\ninterval " << interval
      << "\nschedule shortest\n";
  const net::Network& network = plant.network;
  for (std::uint32_t id = 1; id < network.node_count(); ++id)
    out << "node " << network.node_name(net::NodeId{id}) << "\n";
  for (const net::LinkId id : network.links()) {
    const net::Link& link = network.link(id);
    out << "link " << network.node_name(link.a) << " "
        << network.node_name(link.b) << " pfl "
        << link.model.failure_probability() << " prc "
        << link.model.recovery_probability() << "\n";
  }
  for (const net::Path& path : plant.paths) {
    out << "path";
    for (const net::NodeId node : path.nodes())
      out << " " << network.node_name(node);
    out << "\n";
  }
  return out.str();
}

/// whart_cli's analysis report (per-path table, network line, solver
/// line and the overall delay histogram), rendered to a string.
std::string render_report(const net::Network& network,
                          const std::vector<net::Path>& paths,
                          const net::Schedule& schedule,
                          net::SuperframeConfig superframe,
                          std::uint32_t interval,
                          const hart::NetworkMeasures& measures) {
  using report::Table;
  std::ostringstream out;
  out << "Schedule eta = " << schedule.to_string(network) << "\n"
      << "Superframe: Fup=" << superframe.uplink_slots
      << " Fdown=" << superframe.downlink_slots
      << "  reporting interval Is=" << interval << "\n\n";
  Table table({"path", "hops", "reachability", "E[delay] ms", "utilization",
               "E[intervals to 1st loss]"});
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const hart::PathMeasures& m = measures.per_path[p];
    table.add_row({paths[p].to_string(network),
                   std::to_string(paths[p].hop_count()),
                   Table::percent(m.reachability, 3),
                   Table::fixed(m.expected_delay_ms, 1),
                   Table::fixed(m.utilization, 4),
                   Table::fixed(m.expected_intervals_to_first_loss, 1)});
  }
  table.print(out);
  out << "\nNetwork: E[Gamma] = " << Table::fixed(measures.mean_delay_ms, 1)
      << " ms, utilization U = "
      << Table::fixed(measures.network_utilization, 4)
      << "\nbottleneck (delay): path "
      << paths[measures.bottleneck_by_delay].to_string(network)
      << "\nbottleneck (reachability): path "
      << paths[measures.bottleneck_by_reachability].to_string(network)
      << "\n";
  const hart::NetworkDiagnostics& diag = measures.diagnostics;
  out << "solver: " << diag.dtmc_solves << " DTMC solves ("
      << diag.states_solved << " states), " << diag.cache_hits
      << " cache hits, max mass residual " << diag.max_mass_residual << "\n";
  out << "\nOverall delay distribution:\n";
  std::vector<std::string> labels;
  std::vector<double> values;
  for (const auto& point : measures.overall_delay_distribution) {
    labels.push_back(Table::fixed(point.delay_ms, 0) + " ms");
    values.push_back(point.probability);
  }
  report::print_histogram(out, labels, values);
  return out.str();
}

/// Solver counts of one analysis, folded into a traced op's sums.
void add_diagnostics(Stream& stream, const hart::NetworkMeasures& measures) {
  const hart::NetworkDiagnostics& d = measures.diagnostics;
  stream.sums["hart.dtmc_solves"] += static_cast<double>(d.dtmc_solves);
  stream.sums["hart.cache_hits"] += static_cast<double>(d.cache_hits);
  stream.sums["hart.states_solved"] += static_cast<double>(d.states_solved);
  double& peak = stream.maxes["hart.peak_chain_states"];
  for (const hart::PathMeasures& m : measures.per_path)
    if (m.diagnostics.has_value())
      peak = std::max(peak, static_cast<double>(m.diagnostics->dtmc_states));
}

/// Exact two-sided binomial p-value of `k` losses in `n` trials at loss
/// probability `q`: twice the smaller tail, capped at 1.  (The normal
/// approximation behind Wilson intervals breaks down here: most paths
/// expect well under one loss in a run.)
double binomial_p_value(std::uint64_t k, std::uint64_t n, double q) {
  if (q <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (q >= 1.0) return k == n ? 1.0 : 0.0;
  const double log_q = std::log(q), log_1q = std::log1p(-q);
  const auto pmf = [&](std::uint64_t i) {
    const double di = static_cast<double>(i), dn = static_cast<double>(n);
    return std::exp(std::lgamma(dn + 1) - std::lgamma(di + 1) -
                    std::lgamma(dn - di + 1) + di * log_q +
                    (dn - di) * log_1q);
  };
  double lower = 0.0, upper = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) lower += pmf(i);
  for (std::uint64_t i = k; i <= n; ++i) {
    const double term = pmf(i);
    upper += term;
    if (i > k && term < upper * 1e-17) break;
  }
  return std::min(1.0, 2.0 * std::min(lower, upper));
}

/// Output of the analysis-shaped ops.
struct AnalysisOut {
  hart::NetworkMeasures measures;
  std::size_t report_chars = 0;
  double analysis_ms = 0.0;
  double sim_ms = 0.0;
  std::optional<sim::SimulationReport> simulation;
};

/// Check an analysis op; record its analysis time and, when traced,
/// fold its solver counts in.
std::string check_analysis(Stream& stream, const AnalysisOut& out,
                           bool traced, const std::vector<RefMeasures>& refs) {
  stream.samples.back().analysis_ms = out.analysis_ms;
  if (traced) add_diagnostics(stream, out.measures);
  return check_paths(out.measures.per_path, refs);
}

/// Credit `units` of work done in `ms` to the stream's latest op.
void credit(Stream& stream, double units, double ms) {
  stream.samples.back().units = units;
  stream.samples.back().work_ms = ms;
}

// ---------------------------------------------------------------------
// plant_cold.
// ---------------------------------------------------------------------

void plant_cold(Bench& s, json::Object& detail) {
  struct Input {
    std::string spec;
    std::vector<RefMeasures> refs;
  };
  std::vector<Input> inputs;
  ReferenceMix mix;
  for (std::size_t i = 0; i < kColdPlants; ++i) {
    const net::GeneratedPlant plant =
        make_plant(kPlantDevices, derive(s.options.seed, 100 + i));
    Input input{render_spec(plant, kPlantInterval), {}};
    const cli::ParsedSpec parsed = cli::parse_spec_string(input.spec);
    if (parsed.paths != plant.paths ||
        net::build_schedule(parsed.paths, parsed.superframe.uplink_slots,
                            parsed.policy)
                .to_string(parsed.network) !=
            plant.schedule.to_string(plant.network))
      throw std::logic_error("rendered spec does not rebuild the plant");
    input.refs = plant_references(plant.network, plant.paths, plant.schedule,
                                  plant.superframe, kPlantInterval, mix);
    inputs.push_back(std::move(input));
  }
  detail.num("plants", kColdPlants)
      .num("devices", kPlantDevices)
      .num("paths_per_op", kPlantDevices)
      .num("reporting_interval", kPlantInterval)
      .num("ref_analytic_paths", static_cast<double>(mix.analytic))
      .num("ref_walk_paths", static_cast<double>(mix.walk));

  const auto op = [&](const Input& input) {
    return [&s, &input] {
      cli::ParsedSpec spec;
      {
        Span span(s.tracer, "cli.parse_spec");
        spec = cli::parse_spec_string(input.spec);
      }
      std::optional<net::Schedule> schedule;
      {
        Span span(s.tracer, "net.build_schedule");
        schedule = net::build_schedule(
            spec.paths, spec.superframe.uplink_slots, spec.policy);
      }
      AnalysisOut out;
      {
        Span span(s.tracer, "hart.analyze_network");
        out.measures = timed_part(out.analysis_ms, [&] {
          return hart::analyze_network(spec.network, spec.paths, *schedule,
                                       spec.superframe,
                                       spec.reporting_interval,
                                       cli_analysis_options());
        });
      }
      {
        Span span(s.tracer, "report.render");
        out.report_chars =
            render_report(spec.network, spec.paths, *schedule,
                          spec.superframe, spec.reporting_interval,
                          out.measures)
                .size();
      }
      return out;
    };
  };
  const auto check = [&](const Input& input) {
    return [&input](const AnalysisOut& out, Stream& stream, bool traced) {
      if (out.report_chars == 0) return std::string("empty report");
      return check_analysis(stream, out, traced, input.refs);
    };
  };

  s.start_window();
  for (const Input& input : inputs) {
    s.next_round();
    s.run_op(s.setup, op(input), check(input));
  }
  s.loop(inputs.size(), [&](std::uint64_t k) {
    const Input& input = inputs[k % inputs.size()];
    s.run_op(s.op, op(input), [&](const AnalysisOut& out, Stream& stream,
                                  bool traced) {
      const std::string error = check(input)(out, stream, traced);
      if (error.empty()) credit(s.op, kPlantDevices, out.analysis_ms);
      return error;
    });
  });
}

// ---------------------------------------------------------------------
// long_interval.
// ---------------------------------------------------------------------

void long_interval(Bench& s, json::Object& detail) {
  const net::TypicalNetwork typical = net::make_typical_network();
  const net::SchedulingPolicy policy = net::SchedulingPolicy::kShortestPathsFirst;
  ReferenceMix mix;
  const std::vector<RefMeasures> refs = plant_references(
      typical.network, typical.paths,
      net::build_schedule(typical.paths, typical.superframe.uplink_slots,
                          policy),
      typical.superframe, kLongInterval, mix);
  detail.num("paths_per_op", static_cast<double>(typical.paths.size()))
      .num("reporting_interval", kLongInterval)
      .num("ref_analytic_paths", static_cast<double>(mix.analytic))
      .num("ref_walk_paths", static_cast<double>(mix.walk));

  const auto op = [&] {
    std::optional<net::Schedule> schedule;
    {
      Span span(s.tracer, "net.build_schedule");
      schedule = net::build_schedule(typical.paths,
                                     typical.superframe.uplink_slots, policy);
    }
    AnalysisOut out;
    {
      Span span(s.tracer, "hart.analyze_network");
      out.measures = timed_part(out.analysis_ms, [&] {
        return hart::analyze_network(typical.network, typical.paths,
                                     *schedule, typical.superframe,
                                     kLongInterval, cli_analysis_options());
      });
    }
    {
      Span span(s.tracer, "report.render");
      out.report_chars = render_report(typical.network, typical.paths,
                                       *schedule, typical.superframe,
                                       kLongInterval, out.measures)
                             .size();
    }
    return out;
  };
  const auto check = [&](const AnalysisOut& out, Stream& stream,
                         bool traced) {
    if (out.report_chars == 0) return std::string("empty report");
    return check_analysis(stream, out, traced, refs);
  };

  s.start_window();
  for (std::size_t i = 0; i < kLongWarmups; ++i) {
    s.next_round();
    s.run_op(s.setup, op, check);
  }
  s.loop(1, [&](std::uint64_t) {
    s.run_op(s.op, op, [&](const AnalysisOut& out, Stream& stream,
                           bool traced) {
      const std::string error = check(out, stream, traced);
      if (error.empty())
        credit(s.op, static_cast<double>(typical.paths.size()),
               out.analysis_ms);
      return error;
    });
  });
}

// ---------------------------------------------------------------------
// crosscheck.
// ---------------------------------------------------------------------

void crosscheck(Bench& s, json::Object& detail) {
  const link::ChannelModel channel = bursty_channel();
  struct Input {
    net::GeneratedPlant plant;
    std::vector<RefMeasures> refs;
  };
  std::vector<Input> inputs;
  std::size_t paths = 0;
  for (std::size_t i = 0; i < kCrossPlants; ++i) {
    Input input{make_plant(kCrossDevices, derive(s.options.seed, 200 + i)),
                {}};
    const net::GeneratedPlant& plant = input.plant;
    for (std::size_t p = 0; p < plant.paths.size(); ++p) {
      std::vector<link::ChannelModel> hops;
      for (const double a : hop_availability(plant.network, plant.paths[p]))
        hops.push_back(channel.with_marginal_success(a));
      input.refs.push_back(reference_channel(
          hart::PathModelConfig::from_schedule(plant.schedule, p,
                                               plant.superframe,
                                               kPlantInterval),
          hops));
    }
    paths += plant.paths.size();
    inputs.push_back(std::move(input));
  }
  detail.num("plants", kCrossPlants)
      .num("devices", kCrossDevices)
      .num("reporting_interval", kPlantInterval)
      .num("sim_intervals_per_op", static_cast<double>(kCrossIntervals))
      .str("channel", channel.to_string())
      .num("mean_bad_burst_slots", channel.mean_bad_burst_length())
      .num("ref_channel_walk_paths", static_cast<double>(paths));

  std::uint64_t sim_seed_index = 0;
  const auto op = [&](const Input& input) {
    const std::uint64_t sim_seed =
        derive(s.options.seed, 1000000 + sim_seed_index++);
    return [&s, &input, &channel, sim_seed] {
      const net::GeneratedPlant& plant = input.plant;
      AnalysisOut out;
      {
        Span span(s.tracer, "hart.analyze_network");
        out.measures = timed_part(out.analysis_ms, [&] {
          hart::AnalysisOptions options = cli_analysis_options();
          options.channel = channel;
          return hart::analyze_network(plant.network, plant.paths,
                                       plant.schedule, plant.superframe,
                                       kPlantInterval, options);
        });
      }
      out.simulation = timed_part(out.sim_ms, [&] {
        sim::SimulatorConfig config;
        config.superframe = plant.superframe;
        config.reporting_interval = kPlantInterval;
        config.intervals = kCrossIntervals;
        config.seed = sim_seed;
        config.regime = sim::LinkRegime::kChannel;
        config.channel = channel;
        config.shards = 1;
        config.threads = 1;
        std::optional<sim::NetworkSimulator> simulator;
        {
          Span span(s.tracer, "sim.ctor");
          simulator.emplace(plant.network, plant.paths, plant.schedule,
                            config);
        }
        Span span(s.tracer, "sim.run");
        return simulator->run();
      });
      return out;
    };
  };
  const auto check = [&](const Input& input) {
    return [&input](const AnalysisOut& out, Stream& stream, bool traced) {
      std::string error = check_analysis(stream, out, traced, input.refs);
      if (!error.empty()) return error;
      const auto& per_path = out.simulation->per_path;
      if (per_path.size() != input.refs.size())
        return std::string("simulated path count mismatch");
      const double alpha =
          kCrossFalseAlarm / static_cast<double>(per_path.size());
      for (std::size_t p = 0; p < per_path.size(); ++p) {
        const sim::PathStatistics& stats = per_path[p];
        std::uint64_t delivered = 0;
        for (const std::uint64_t n : stats.delivered_per_cycle) delivered += n;
        const double r = out.measures.per_path[p].reachability;
        if (stats.messages != kCrossIntervals ||
            binomial_p_value(stats.messages - delivered, stats.messages,
                             1.0 - r) < alpha)
          return "path " + std::to_string(p) + ": " +
                 std::to_string(stats.messages - delivered) + " of " +
                 std::to_string(stats.messages) +
                 " simulated messages lost, model R " + std::to_string(r);
      }
      return std::string();
    };
  };

  s.start_window();
  for (const Input& input : inputs) {
    s.next_round();
    s.run_op(s.setup, op(input), check(input));
  }
  s.loop(inputs.size(), [&](std::uint64_t k) {
    const Input& input = inputs[k % inputs.size()];
    s.run_op(s.op, op(input), [&](const AnalysisOut& out, Stream& stream,
                                  bool traced) {
      const std::string error = check(input)(out, stream, traced);
      if (error.empty())
        credit(s.op, static_cast<double>(kCrossIntervals), out.sim_ms);
      return error;
    });
  });
}

// ---------------------------------------------------------------------
// replan.
// ---------------------------------------------------------------------

void replan(Bench& s, json::Object& detail) {
  const net::GeneratedPlant plant = make_plant(kPlantDevices, kReplanPlant);
  const net::Network& network = plant.network;
  ReferenceMix mix;
  const std::vector<RefMeasures> baseline_refs =
      plant_references(network, plant.paths, plant.schedule, plant.superframe,
                       kPlantInterval, mix);
  const auto config_of = [&](std::size_t p) {
    return hart::PathModelConfig::from_schedule(plant.schedule, p,
                                                plant.superframe,
                                                kPlantInterval);
  };

  // What-if queries: every link once, in seeded order, each at a seeded
  // availability in [0.6, 0.99]; references per affected path.
  struct Query {
    net::LinkId link;
    double availability = 0.0;
    std::vector<std::size_t> affected;
    std::vector<RefMeasures> refs;
  };
  std::vector<Query> queries;
  Rng rng(derive(s.options.seed, 301));
  std::vector<net::LinkId> links = network.links();
  for (std::size_t i = links.size(); i > 1; --i)
    std::swap(links[i - 1], links[rng.below(i)]);
  for (const net::LinkId link : links) {
    Query query{link, rng.uniform(0.6, 0.99), {}, {}};
    for (std::size_t p = 0; p < plant.paths.size(); ++p) {
      const std::vector<net::LinkId> hop_links =
          plant.paths[p].resolve_links(network);
      if (std::find(hop_links.begin(), hop_links.end(), link) ==
          hop_links.end())
        continue;
      std::vector<double> availability =
          hop_availability(network, plant.paths[p]);
      for (std::size_t h = 0; h < hop_links.size(); ++h)
        if (hop_links[h] == link) availability[h] = query.availability;
      RefKind kind = RefKind::kAnalytic;
      query.affected.push_back(p);
      query.refs.push_back(reference_iid(config_of(p), availability, &kind));
      mix.count(kind);
    }
    queries.push_back(std::move(query));
  }

  // Sweeps: 64-point availability grids over seeded paths, the same
  // number per hop count so every seed sweeps the same hop mix.
  struct SweepInput {
    hart::PathModelConfig config;
    std::vector<RefMeasures> refs;
  };
  std::map<std::size_t, std::vector<std::size_t>> paths_by_hops;
  for (std::size_t p = 0; p < plant.paths.size(); ++p)
    paths_by_hops[plant.paths[p].hop_count()].push_back(p);
  std::vector<std::size_t> sweep_paths;
  for (const auto& [hops, members] : paths_by_hops)
    for (std::size_t i = 0; i < kSweepsPerHopCount; ++i)
      sweep_paths.push_back(members[rng.below(members.size())]);
  const std::vector<double> grid = hart::linspace(0.6, 0.99, kSweepPoints);
  std::vector<SweepInput> sweeps;
  for (const std::size_t p : sweep_paths) {
    SweepInput input{config_of(p), {}};
    for (const double a : grid) {
      RefKind kind = RefKind::kAnalytic;
      input.refs.push_back(reference_iid(
          input.config, std::vector<double>(input.config.hop_count(), a),
          &kind));
      mix.count(kind);
    }
    sweeps.push_back(std::move(input));
  }
  detail.num("devices", kPlantDevices)
      .num("links", static_cast<double>(links.size()))
      .num("reporting_interval", kPlantInterval)
      .num("sweep_points", kSweepPoints)
      .num("queries_per_sweep", kQueriesPerSweep)
      .num("ref_analytic_paths", static_cast<double>(mix.analytic))
      .num("ref_walk_paths", static_cast<double>(mix.walk));

  // Set-up: the engine build (library defaults, one thread), repeated.
  // Both streams run the superframe-product kernel, the library's
  // default and `whart_cli --kernel superframe`: under the CLI's per-slot
  // default the engine never reaches IncrementalProduct.
  std::optional<hart::WhatIfEngine> engine;
  s.start_window();
  for (std::size_t i = 0; i < kEngineBuilds; ++i) {
    engine.reset();
    s.next_round();
    s.run_op(
        s.setup,
        [&] {
          Span span(s.tracer, "hart.whatif_engine_build");
          hart::WhatIfOptions options;
          options.kernel = hart::TransientKernel::kSuperframeProduct;
          options.threads = 1;
          engine.emplace(network, plant.paths, plant.schedule,
                         plant.superframe, kPlantInterval, options);
          return 0;
        },
        [&](int, Stream&, bool) {
          return check_paths(engine->baseline(), baseline_refs);
        });
  }

  struct WhatIfOut {
    hart::NetworkMeasures measures;
    std::size_t resolved = 0;
    double ms = 0.0;
  };
  std::size_t next_sweep = 0;
  s.loop(queries.size(), [&](std::uint64_t k) {
    const Query& query = queries[k % queries.size()];
    s.run_op(
        s.op,
        [&] {
          WhatIfOut out;
          hart::WhatIfResult result;
          {
            Span span(s.tracer, "hart.what_if");
            result = engine->what_if(query.link, query.availability);
          }
          out.resolved = result.paths_resolved;
          Span span(s.tracer, "hart.aggregate_measures");
          out.measures = hart::aggregate_measures(std::move(result.per_path));
          return out;
        },
        [&](const WhatIfOut& out, Stream&, bool traced) {
          if (traced) add_diagnostics(s.op, out.measures);
          if (out.resolved != query.affected.size())
            return "what-if re-solved " + std::to_string(out.resolved) +
                   " paths, " + std::to_string(query.affected.size()) +
                   " use the link";
          std::vector<RefMeasures> refs = baseline_refs;
          for (std::size_t i = 0; i < query.affected.size(); ++i)
            refs[query.affected[i]] = query.refs[i];
          return check_paths(out.measures.per_path, refs);
        });
    if ((k + 1) % kQueriesPerSweep != 0) return;
    const SweepInput& input = sweeps[next_sweep++ % sweeps.size()];
    double sweep_ms = 0.0;
    s.run_op(
        s.sweep,
        [&] {
          Span span(s.tracer, "hart.sweep");
          return timed_part(sweep_ms, [&] {
            return hart::sweep_availability(
                input.config, grid, 1,
                hart::TransientKernel::kSuperframeProduct);
          });
        },
        [&](const hart::SweepSeries& series, Stream&, bool) {
          if (series.points.size() != input.refs.size())
            return std::string("sweep point count mismatch");
          std::string why;
          for (std::size_t i = 0; i < input.refs.size(); ++i)
            if (!agrees(series.points[i].measures, input.refs[i], why))
              return "sweep point " + std::to_string(i) + ": " + why;
          credit(s.sweep, static_cast<double>(series.points.size()),
                 sweep_ms);
          return std::string();
        });
  });
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

double per_op(const Stream& stream, const std::string& key, double scale) {
  if (stream.traced == 0) return 0.0;
  const auto it = stream.sums.find(key);
  return it == stream.sums.end()
             ? 0.0
             : it->second * scale / static_cast<double>(stream.traced);
}

double max_of(const Stream& stream, const std::string& key, double scale) {
  const auto it = stream.maxes.find(key);
  return it == stream.maxes.end() ? 0.0 : it->second * scale;
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              double Sample::*field = &Sample::ms) {
  std::vector<double> out;
  for (const Sample& sample : samples) out.push_back(sample.*field);
  return out;
}

double median(const std::vector<double>& samples) {
  return summarize(samples).p50;
}

/// Op times at reference host speed.  On a shared virtual host, other
/// guests' load can slow every kernel on the benchmark's CPUs by up to
/// half again for minutes at a time; no choice of ops within one run
/// removes that.  So each round reads the host's slowdown with
/// SpeedProbe between its ops, and the timing metrics divide each op's
/// times by its round's median slowdown.
class Timing {
 public:
  explicit Timing(const Bench& s) {
    std::vector<double> all;
    for (const auto& round : s.slowdowns()) {
      const std::vector<double> readings(round.begin(), round.end());
      slowdown_.push_back(readings.empty() ? 1.0 : median(readings));
      all.insert(all.end(), readings.begin(), readings.end());
    }
    median_slowdown = median(all);
  }

  /// The stream's traced (or untraced) ops, their times divided by their
  /// round's slowdown.
  [[nodiscard]] std::vector<Sample> normalized(const Stream& stream,
                                               bool traced) const {
    std::vector<Sample> out;
    for (Sample sample : stream.samples) {
      if (sample.traced != traced) continue;
      const double slowdown = slowdown_.at(sample.round);
      sample.ms /= slowdown;
      sample.analysis_ms /= slowdown;
      sample.work_ms /= slowdown;
      out.push_back(sample);
    }
    return out;
  }

  /// Median set-up op, seconds at reference speed.  Traced runs trace
  /// every set-up op.
  [[nodiscard]] double setup_s(const Bench& s) const {
    return median(latencies(normalized(s.setup, s.options.trace))) / 1e3;
  }

  double median_slowdown = 0.0;

 private:
  std::vector<double> slowdown_;  // by round
};

/// Median units of work per second over the samples that did work (a
/// median, so one descheduled op does not move it).
double rate_per_s(const std::vector<Sample>& samples) {
  std::vector<double> rates;
  for (const Sample& sample : samples)
    if (sample.units > 0.0 && sample.work_ms > 0.0)
      rates.push_back(sample.units / (sample.work_ms / 1e3));
  return median(rates);
}

/// The stream the workload's work_per_s counts: sweeps on replan, the
/// main op stream elsewhere.
const Stream& work_stream(const Bench& s) {
  return s.sweep.attempted > 0 ? s.sweep : s.op;
}

std::vector<Metric> end_to_end_metrics(const Bench& s, const Timing& t,
                                       double peak_mb) {
  return {
      {"setup_s", t.setup_s(s), "s"},
      {"op_ms_p50", median(latencies(t.normalized(s.op, false))), "ms"},
      {"work_per_s", rate_per_s(t.normalized(work_stream(s), false)),
       "1/s"},
      {"peak_mem_mb", peak_mb, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Bench& s, const Timing& t) {
  constexpr double kMs = 1e-6, kUs = 1e-3;  // from ns
  const Stream& op = s.op;
  // Counters that belong to the sweep stream where there is one.
  const Stream& sweepish = work_stream(s);
  std::vector<Metric> m = {
      {"cli.parse_spec_ms", per_op(op, "cli.parse_spec", kMs), "ms"},
      {"net.build_schedule_ms", per_op(op, "net.build_schedule", kMs), "ms"},
      {"report.render_ms", per_op(op, "report.render", kMs), "ms"},
      {"hart.analyze_network_ms", per_op(op, "hart.analyze_network", kMs),
       "ms"},
  };
  const char* const stages[] = {"skeleton_build", "refill", "product_build",
                                "tail_solve",     "cache_lookup",
                                "incremental_refill"};
  double stage_ns = 0.0;
  for (const char* stage : stages) {
    const std::string key = std::string("hart.stage.") + stage + ".ns";
    m.push_back({std::string("hart.stage.") + stage + "_ms",
                 per_op(op, key, kMs), "ms"});
    stage_ns += per_op(op, key, 1.0);
  }
  const double solve_span_ns = per_op(op, "hart.analyze_network", 1.0) +
                               per_op(op, "hart.what_if", 1.0);
  m.push_back({"hart.stage_coverage",
               solve_span_ns > 0.0 ? stage_ns / solve_span_ns : 0.0,
               "ratio"});
  for (const char* name : {"hart.dtmc_solves", "hart.cache_hits",
                           "hart.states_solved", "hart.skeleton.builds",
                           "hart.path_cache.hits", "hart.path_cache.misses",
                           "markov.transient.steps", "markov.superframe.builds",
                           "markov.superframe.steps_collapsed",
                           "hart.whatif.paths_resolved",
                           "hart.whatif.incremental_fallback",
                           "markov.incremental.rows_replayed",
                           "hart.path_solve.channel", "sim.slots"})
    m.push_back({name, per_op(op, name, 1.0), "count"});
  m.push_back({"hart.peak_chain_states",
               max_of(op, "hart.peak_chain_states", 1.0), "count"});
  m.push_back({"hart.whatif_engine_build_ms",
               per_op(s.setup, "hart.whatif_engine_build", kMs), "ms"});
  m.push_back({"hart.what_if_us", per_op(op, "hart.what_if", kUs), "us"});
  m.push_back({"hart.aggregate_measures_us",
               per_op(op, "hart.aggregate_measures", kUs), "us"});
  m.push_back({"hart.sweep_ms", per_op(s.sweep, "hart.sweep", kMs), "ms"});
  m.push_back({"hart.stage.batch_refill_ms",
               per_op(s.sweep, "hart.stage.batch_refill.ns", kMs), "ms"});
  for (const char* name : {"hart.skeleton.refills",
                           "hart.skeleton.store_evictions",
                           "hart.batch.remainder_points"})
    m.push_back({name, per_op(sweepish, name, 1.0), "count"});
  m.push_back({"sim.ctor_ms", per_op(op, "sim.ctor", kMs), "ms"});
  m.push_back({"sim.run_ms", per_op(op, "sim.run", kMs), "ms"});
  const double run_ns = per_op(op, "sim.run", 1.0);
  m.push_back({"sim.slots_per_s",
               run_ns > 0.0 ? per_op(op, "sim.slots", 1.0) / (run_ns / 1e9)
                            : 0.0,
               "1/s"});
  for (const auto& [prefix, stream] :
       {std::pair<std::string, const Stream*>{"mem.", &op},
        std::pair<std::string, const Stream*>{"mem.sweep.", &s.sweep}}) {
    m.push_back({prefix + "alloc_mb_per_op",
                 per_op(*stream, "mem.bytes", 1.0 / kBytesPerMB), "MB"});
    m.push_back({prefix + "allocs_per_op", per_op(*stream, "mem.allocs", 1.0),
                 "count"});
    m.push_back({prefix + "peak_live_mb",
                 max_of(*stream, "mem.peak_live_bytes", 1.0 / kBytesPerMB),
                 "MB"});
  }
  const double untraced = median(latencies(t.normalized(op, false)));
  const double traced = median(latencies(t.normalized(op, true)));
  m.push_back({"trace.overhead_frac",
               untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "ratio"});
  return m;
}

/// Latency summary with its percentile and sample count.
void add_summary(json::Object& detail, const std::string& name,
                 std::vector<double> samples, double scale) {
  const Summary summary = summarize(std::move(samples));
  detail.num(name + "_p50", summary.p50 * scale)
      .num(name + "_tail", summary.tail * scale)
      .num(name + "_tail_percentile", summary.tail_percentile)
      .num(name + "_count", static_cast<double>(summary.count));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"plant_cold", "replan",
                                                 "crosscheck", "long_interval"};
  return names;
}

Result run_workload(const Options& options) {
  // long_interval's op streams a 165 MB working set; the others' ops fit
  // in the core's caches, and a memory kernel in their probe tracked
  // their slowdown worse (see README.md).
  Bench s(options, /*memory_bound=*/options.workload == "long_interval");
  Result result;
  json::Object& detail = result.detail;
  detail.str("workload", options.workload)
      .num("seed", static_cast<double>(options.seed))
      .num("seconds", options.seconds)
      .flag("trace", options.trace)
      .num("threads", 1);

  if (options.workload == "plant_cold")
    plant_cold(s, detail);
  else if (options.workload == "replan")
    replan(s, detail);
  else if (options.workload == "crosscheck")
    crosscheck(s, detail);
  else if (options.workload == "long_interval")
    long_interval(s, detail);
  else
    throw std::invalid_argument("unknown workload '" + options.workload + "'");

  // Read before the summaries below allocate.
  const double peak_mb = s.peak_mb();
  for (const Stream* stream : {&s.setup, &s.op, &s.sweep}) {
    result.attempted += stream->attempted;
    result.failed += stream->failed;
  }
  result.failures = s.failures;
  const Timing timing(s);
  result.metrics = options.trace ? per_layer_metrics(s, timing)
                                 : end_to_end_metrics(s, timing, peak_mb);

  // The workload-specific metrics by their own names, with tails, from
  // the same untraced ops as the end-to-end metrics; the raw times too.
  const std::vector<Sample> ops = timing.normalized(s.op, false);
  std::vector<double> raw_ops;
  for (const Sample& sample : s.op.samples)
    if (!sample.traced) raw_ops.push_back(sample.ms);
  detail.num("failed_op_frac", static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted))
      .num("ops_setup", static_cast<double>(s.setup.attempted))
      .num("ops_main", static_cast<double>(s.op.attempted))
      .num("ops_sweep", static_cast<double>(s.sweep.attempted))
      .num("rounds", static_cast<double>(s.slowdowns().size() - 1))
      .num("host_slowdown_p50", timing.median_slowdown)
      .num("setup_s", timing.setup_s(s))
      .num("peak_mem_mb", peak_mb);
  add_summary(detail, "op_ms", latencies(ops), 1.0);
  add_summary(detail, "op_ms_raw", raw_ops, 1.0);
  if (options.workload == "replan") {
    add_summary(detail, "whatif_us", latencies(ops), 1e3);
    detail.num("sweep_points_per_s",
               rate_per_s(timing.normalized(s.sweep, false)));
  } else {
    add_summary(detail, "analysis_ms", latencies(ops, &Sample::analysis_ms),
                1.0);
    detail.num(options.workload == "crosscheck" ? "sim_intervals_per_s"
                                                : "paths_per_s",
               rate_per_s(ops));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss covers the whole process (inputs, references, code): an
  // upper bound the heap meter's peak must stay under.
  const double rss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 /
                        kBytesPerMB;
  detail.num("max_rss_mb", rss_mb)
      .flag("heap_peak_within_rss", peak_mb <= rss_mb);
  return result;
}

}  // namespace e2e
