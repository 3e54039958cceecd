// whart_cli — analyze a WirelessHART network spec: per-path reachability,
// delay and utilization, plus optional energy/stability reports, CSV
// export and a Monte-Carlo cross-check.
//
// Usage:
//   whart_cli <spec-file> [options]
//   whart_cli --typical   [options]          # the paper's Fig. 12 network
//   cat spec | whart_cli - [options]
//
// Options:
//   --interval <Is>      override the reporting interval (Is >= 1)
//   --simulate <N>       Monte-Carlo cross-check over N >= 1 intervals
//   --energy             per-node energy / battery-life report
//   --stability <R>      assess every path against a target reachability
//                        R in (0, 1]
//   --csv <file>         export per-path measures as CSV
//   --sweep <file>       export an availability sweep (0.65..0.99) of the
//                        worst path as CSV (reachability, delay, jitter)
//   --shards <n>         Monte-Carlo shards, n >= 1 (deterministic per
//                        shard count)
//   --channel <spec>     correlated burst-loss channel overlay:
//                        iid | ge:pgb,pbg,eg,eb | chain:<file>.  Every
//                        hop runs the overlay rescaled to its own
//                        steady-state availability; the analysis solves
//                        the channel-enlarged DTMC, --simulate draws
//                        from the same chains (kChannel regime) and
//                        --sweep evaluates its grid under the overlay
//   --kernel <name>      transient solver: superframe (default; the
//                        dense firing-only cycle collapse) or per-slot
//                        (the Eq. 5 walk; same results to rounding)
//   --what-if link=<id>:<pfl>
//                        what-if (DESIGN.md §11): re-evaluate the
//                        network with link <id>'s per-slot failure
//                        probability set to <pfl> (its recovery
//                        probability kept), re-solving only the paths
//                        scheduled over that link; prints the affected
//                        paths' measure deltas and the new network
//                        summary.  Not available together with --channel
//   --obs-dir=<dir>      the observability bundle, the only export:
//                        enables metrics, tracing and the flight
//                        recorder, then writes metrics.json, trace.json
//                        and events.jsonl into <dir> (created if
//                        missing), plus events_crash.jsonl if a contract
//                        fails
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "whart/cli/spec_parser.hpp"
#include "whart/hart/energy.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/stability.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/report/csv.hpp"
#include "whart/report/histogram.hpp"
#include "whart/report/obs_dir.hpp"
#include "whart/report/table.hpp"
#include "whart/sim/simulator.hpp"

namespace {

using whart::report::Table;

struct Options {
  std::uint64_t simulate_intervals = 0;  // 0 = no Monte-Carlo cross-check
  std::optional<std::uint32_t> interval_override;
  bool energy = false;
  double stability_target = 0.0;  // 0 = off
  std::string csv_path;
  std::string sweep_path;
  std::uint32_t shards = 0;  // 0 = simulator default
  std::string channel_spec;  // empty = per-slot-independent links
  std::string obs_dir;
  whart::hart::TransientKernel kernel =
      whart::hart::TransientKernel::kSuperframeProduct;
  std::string what_if_spec;  // "link=<id>:<pfl>", empty = off
};

/// Strict numeric flag value: the whole of `text` must parse as a T
/// (no sign on unsigned types, no trailing characters) and lie in
/// [low, high]; anything else throws with the flag's name.
template <typename T>
T parse_number(const std::string& flag, const char* text, T low, T high) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end || text == end || !(value >= low) ||
      !(value <= high))
    throw std::invalid_argument(flag + " expects a number in [" +
                                std::to_string(low) + ", " +
                                std::to_string(high) + "], got '" + text +
                                "'");
  return value;
}

int usage() {
  std::cerr << "usage: whart_cli <spec-file>|-|--typical "
               "[--interval <Is>] [--simulate <intervals>] [--energy] "
               "[--stability <targetR>] [--csv <file>] [--sweep <file>] "
               "[--shards <n>] "
               "[--channel iid|ge:pgb,pbg,eg,eb|chain:<file>] "
               "[--kernel superframe|per-slot] "
               "[--what-if link=<id>:<pfl>] "
               "[--obs-dir=<dir>]\n";
  return 2;
}

void print_energy(const whart::cli::ParsedSpec& spec,
                  const whart::net::Schedule& schedule) {
  const auto energies = whart::hart::estimate_node_energy(
      spec.network, spec.paths, schedule, spec.superframe,
      spec.reporting_interval);
  const whart::hart::EnergyParameters params;
  const double interval_ms = spec.superframe.cycle_milliseconds() *
                             static_cast<double>(spec.reporting_interval);

  std::cout << "\nPer-node energy (tx " << params.tx_mj_per_attempt
            << " mJ, rx " << params.rx_mj_per_attempt
            << " mJ per attempt, battery " << params.battery_joules / 1000.0
            << " kJ):\n";
  Table table({"node", "tx/interval", "rx/interval", "mJ/interval",
               "battery life (days)"});
  for (const auto& node : energies) {
    const double days = node.battery_life_days(params, interval_ms);
    table.add_row({spec.network.node_name(node.node),
                   Table::fixed(node.tx_attempts_per_interval, 3),
                   Table::fixed(node.rx_attempts_per_interval, 3),
                   Table::fixed(node.mj_per_interval, 4),
                   std::isinf(days) ? "inf" : Table::fixed(days, 0)});
  }
  table.print(std::cout);
  std::cout << "hottest node: "
            << spec.network.node_name(
                   energies[whart::hart::hottest_node(energies)].node)
            << "\n";
}

void print_stability(const whart::cli::ParsedSpec& spec,
                     const whart::hart::NetworkMeasures& measures,
                     double target) {
  std::cout << "\nStability vs target R >= " << Table::percent(target, 2)
            << " (tolerating at most 1 consecutive loss):\n";
  Table table({"path", "R", "E[N] to loss", "E[N] to 2-loss run",
               "verdict"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto a = whart::hart::assess_stability(
        measures.per_path[p].reachability,
        whart::hart::StabilityRequirement{2, target});
    table.add_row(
        {spec.paths[p].to_string(spec.network),
         Table::percent(a.reachability, 3),
         Table::fixed(a.expected_intervals_to_first_loss, 0),
         Table::fixed(a.expected_intervals_to_violation, 0),
         a.meets_reachability ? "ok" : "BELOW TARGET"});
  }
  table.print(std::cout);
}

void write_csv(const whart::cli::ParsedSpec& spec,
               const whart::hart::NetworkMeasures& measures,
               const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write '" + path + "'");
  whart::report::CsvWriter csv(file);
  csv.write_row({"path", "hops", "reachability", "expected_delay_ms",
                 "utilization", "utilization_delivered",
                 "expected_intervals_to_first_loss"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto& m = measures.per_path[p];
    csv.write_row({spec.paths[p].to_string(spec.network),
                   std::to_string(spec.paths[p].hop_count()),
                   std::to_string(m.reachability),
                   std::to_string(m.expected_delay_ms),
                   std::to_string(m.utilization),
                   std::to_string(m.utilization_delivered),
                   std::to_string(m.expected_intervals_to_first_loss)});
  }
  std::cout << "\nwrote " << spec.paths.size() << " rows to " << path
            << "\n";
}

/// The --what-if mode: re-evaluate the network with one link's failure
/// probability moved to the requested value, through the what-if engine
/// (DESIGN.md §11) — only paths scheduled over the link re-solve.
void print_what_if(const whart::cli::ParsedSpec& spec,
                   const whart::net::Schedule& schedule,
                   const Options& options) {
  const std::string& raw = options.what_if_spec;
  const char* expected = "--what-if expects link=<id>:<pfl>";
  if (raw.rfind("link=", 0) != 0)
    throw std::runtime_error(std::string(expected) + ", got '" + raw + "'");
  const std::size_t colon = raw.find(':', 5);
  if (colon == std::string::npos || colon == 5)
    throw std::runtime_error(std::string(expected) + ", got '" + raw + "'");
  const std::string id_text = raw.substr(5, colon - 5);
  const std::string pfl_text = raw.substr(colon + 1);
  const whart::net::LinkId link{parse_number<std::uint32_t>(
      "--what-if link id", id_text.c_str(), 0,
      std::numeric_limits<std::uint32_t>::max())};
  const double pfl =
      parse_number<double>("--what-if pfl", pfl_text.c_str(), 0.0, 1.0);
  if (link.value >= spec.network.link_count())
    throw std::runtime_error("--what-if: unknown link id " +
                             std::to_string(link.value));
  if (!(pfl >= 0.0) || !(pfl < 1.0))
    throw std::runtime_error("--what-if: pfl must be in [0, 1)");

  // The link keeps its measured recovery probability; only the per-slot
  // failure probability moves, so the what-if availability follows from
  // the two-state model's stationary distribution.
  const whart::link::LinkModel& base = spec.network.link(link).model;
  const double prc = base.recovery_probability();
  const double availability = prc / (prc + pfl);

  whart::hart::WhatIfOptions what_if_options;
  what_if_options.kernel = options.kernel;
  whart::hart::WhatIfEngine engine(spec.network, spec.paths, schedule,
                                   spec.superframe, spec.reporting_interval,
                                   what_if_options);
  const std::vector<whart::hart::PathMeasures>& baseline = engine.baseline();
  whart::hart::WhatIfResult result = engine.what_if(link, availability);

  const whart::net::Link& edge = spec.network.link(link);
  std::cout << "\nWhat-if: link " << link.value << " ("
            << spec.network.node_name(edge.a) << "-"
            << spec.network.node_name(edge.b) << ") pfl "
            << Table::fixed(base.failure_probability(), 4) << " -> "
            << Table::fixed(pfl, 4) << " (availability "
            << Table::percent(base.steady_state_availability(), 2) << " -> "
            << Table::percent(availability, 2) << ")\n";

  Table table({"affected path", "R (base)", "R (what-if)", "E[delay] base",
               "E[delay] what-if"});
  for (std::size_t p : engine.affected_paths(link)) {
    table.add_row({spec.paths[p].to_string(spec.network),
                   Table::percent(baseline[p].reachability, 3),
                   Table::percent(result.per_path[p].reachability, 3),
                   Table::fixed(baseline[p].expected_delay_ms, 1),
                   Table::fixed(result.per_path[p].expected_delay_ms, 1)});
  }
  table.print(std::cout);

  const std::size_t resolved = result.paths_resolved;
  const std::size_t reused = result.paths_reused;
  const whart::hart::NetworkMeasures what_if_measures =
      whart::hart::aggregate_measures(std::move(result.per_path));
  std::cout << "what-if network: E[Gamma] = "
            << Table::fixed(what_if_measures.mean_delay_ms, 1)
            << " ms, utilization U = "
            << Table::fixed(what_if_measures.network_utilization, 4) << "\n"
            << "what-if: " << resolved << " paths re-solved, " << reused
            << " reused\n";
}

void print_analysis(const whart::cli::ParsedSpec& spec,
                    const Options& options) {
  const std::uint64_t simulate_intervals = options.simulate_intervals;
  const whart::net::Schedule schedule = whart::net::build_schedule(
      spec.paths, spec.superframe.uplink_slots, spec.policy);

  // Parsed here, inside main's try block, so a malformed spec reports as
  // a normal CLI error rather than escaping the argument loop.
  std::optional<whart::link::ChannelModel> channel;
  if (!options.channel_spec.empty())
    channel = whart::link::ChannelModel::parse(options.channel_spec);

  if (channel.has_value() && !options.what_if_spec.empty())
    throw std::runtime_error(
        "--what-if is not available together with --channel (the "
        "what-if engine caches i.i.d. link availabilities)");

  whart::hart::AnalysisOptions analysis_options;
  analysis_options.kernel = options.kernel;
  analysis_options.channel = channel;
  const whart::hart::NetworkMeasures measures = whart::hart::analyze_network(
      spec.network, spec.paths, schedule, spec.superframe,
      spec.reporting_interval, analysis_options);

  std::cout << "Schedule eta = " << schedule.to_string(spec.network) << "\n";
  std::cout << "Superframe: Fup=" << spec.superframe.uplink_slots
            << " Fdown=" << spec.superframe.downlink_slots
            << "  reporting interval Is=" << spec.reporting_interval
            << "\n";
  if (channel.has_value()) {
    std::cout << "Channel: " << channel->to_string();
    if (channel->state_count() == 2)
      std::cout << "  (mean bad burst "
                << Table::fixed(channel->mean_bad_burst_length(), 2)
                << " slots)";
    std::cout << "\n";
  }
  std::cout << "\n";

  Table table({"path", "hops", "reachability", "E[delay] ms", "utilization",
               "E[intervals to 1st loss]"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto& m = measures.per_path[p];
    table.add_row({spec.paths[p].to_string(spec.network),
                   std::to_string(spec.paths[p].hop_count()),
                   Table::percent(m.reachability, 3),
                   Table::fixed(m.expected_delay_ms, 1),
                   Table::fixed(m.utilization, 4),
                   Table::fixed(m.expected_intervals_to_first_loss, 1)});
  }
  table.print(std::cout);

  std::cout << "\nNetwork: E[Gamma] = "
            << Table::fixed(measures.mean_delay_ms, 1)
            << " ms, utilization U = "
            << Table::fixed(measures.network_utilization, 4)
            << "\nbottleneck (delay): path "
            << spec.paths[measures.bottleneck_by_delay].to_string(
                   spec.network)
            << "\nbottleneck (reachability): path "
            << spec.paths[measures.bottleneck_by_reachability].to_string(
                   spec.network)
            << "\n";

  const whart::hart::NetworkDiagnostics& diag = measures.diagnostics;
  std::cout << "solver: " << diag.dtmc_solves << " DTMC solves ("
            << diag.states_solved << " states), max mass residual "
            << diag.max_mass_residual << "\n";

  std::cout << "\nOverall delay distribution:\n";
  std::vector<std::string> labels;
  std::vector<double> values;
  for (const auto& point : measures.overall_delay_distribution) {
    labels.push_back(Table::fixed(point.delay_ms, 0) + " ms");
    values.push_back(point.probability);
  }
  whart::report::print_histogram(std::cout, labels, values);

  if (simulate_intervals > 0) {
    whart::sim::SimulatorConfig sim_config;
    sim_config.superframe = spec.superframe;
    sim_config.reporting_interval = spec.reporting_interval;
    sim_config.intervals = simulate_intervals;
    if (options.shards > 0) sim_config.shards = options.shards;
    if (channel.has_value()) {
      sim_config.regime = whart::sim::LinkRegime::kChannel;
      sim_config.channel = channel;
    }
    whart::sim::NetworkSimulator simulator(spec.network, spec.paths,
                                           schedule, sim_config);
    const whart::sim::SimulationReport report = simulator.run();

    std::cout << "\nMonte-Carlo cross-check (" << simulate_intervals
              << " intervals):\n";
    Table sim_table({"path", "R (model)", "R (simulated)", "95% CI"});
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      const auto ci = report.per_path[p].reachability_interval();
      sim_table.add_row({spec.paths[p].to_string(spec.network),
                         Table::percent(measures.per_path[p].reachability, 3),
                         Table::percent(report.per_path[p].reachability(), 3),
                         "[" + Table::percent(ci.low, 3) + ", " +
                             Table::percent(ci.high, 3) + "]"});
    }
    sim_table.print(std::cout);
  }

  if (options.energy) print_energy(spec, schedule);
  if (options.stability_target > 0.0)
    print_stability(spec, measures, options.stability_target);
  if (!options.csv_path.empty())
    write_csv(spec, measures, options.csv_path);
  if (!options.sweep_path.empty()) {
    const std::size_t worst = measures.bottleneck_by_reachability;
    const whart::hart::PathModelConfig config =
        whart::hart::PathModelConfig::from_schedule(
            schedule, worst, spec.superframe, spec.reporting_interval);
    const whart::hart::SweepSeries series = whart::hart::sweep_availability(
        config, whart::hart::linspace(0.65, 0.99, 18), 0, options.kernel,
        channel.has_value() ? &*channel : nullptr);
    std::ofstream file(options.sweep_path);
    if (!file)
      throw std::runtime_error("cannot write '" + options.sweep_path + "'");
    whart::hart::write_series_csv(file, series);
    std::cout << "\nwrote availability sweep of path "
              << spec.paths[worst].to_string(spec.network) << " to "
              << options.sweep_path << "\n";
  }
  if (!options.what_if_spec.empty())
    print_what_if(spec, schedule, options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  std::string source = argv[1];
  Options options;
  try {
    using Limits32 = std::numeric_limits<std::uint32_t>;
    using Limits64 = std::numeric_limits<std::uint64_t>;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--simulate" && i + 1 < argc)
        options.simulate_intervals = parse_number<std::uint64_t>(
            arg, argv[++i], 1, Limits64::max());
      else if (arg == "--interval" && i + 1 < argc)
        options.interval_override = parse_number<std::uint32_t>(
            arg, argv[++i], 1, Limits32::max());
      else if (arg == "--energy")
        options.energy = true;
      else if (arg == "--stability" && i + 1 < argc) {
        options.stability_target =
            parse_number<double>(arg, argv[++i], 0.0, 1.0);
        if (options.stability_target == 0.0)
          throw std::invalid_argument(
              "--stability expects a target reachability in (0, 1]");
      } else if (arg == "--csv" && i + 1 < argc)
        options.csv_path = argv[++i];
      else if (arg == "--sweep" && i + 1 < argc)
        options.sweep_path = argv[++i];
      else if (arg == "--shards" && i + 1 < argc)
        options.shards =
            parse_number<std::uint32_t>(arg, argv[++i], 1, Limits32::max());
      else if (arg == "--channel" && i + 1 < argc)
        options.channel_spec = argv[++i];
      else if (arg == "--kernel" && i + 1 < argc) {
        const std::string name = argv[++i];
        if (name == "per-slot")
          options.kernel = whart::hart::TransientKernel::kPerSlot;
        else if (name == "superframe")
          options.kernel = whart::hart::TransientKernel::kSuperframeProduct;
        else
          return usage();
      } else if (arg == "--what-if" && i + 1 < argc)
        options.what_if_spec = argv[++i];
      else if (arg.rfind("--obs-dir=", 0) == 0)
        options.obs_dir = arg.substr(10);
      else
        return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "whart_cli: " << error.what() << "\n";
    return 2;
  }

  try {
    // The bundle session turns every surface on before the analysis and
    // writes the three artifacts when it goes out of scope (or earlier,
    // at the explicit finish() below).
    std::unique_ptr<whart::report::ObsDirSession> obs_session;
    if (!options.obs_dir.empty())
      obs_session =
          std::make_unique<whart::report::ObsDirSession>(options.obs_dir);

    whart::cli::ParsedSpec spec;
    if (source == "--typical") {
      whart::net::TypicalNetwork typical = whart::net::make_typical_network();
      spec.network = std::move(typical.network);
      spec.paths = std::move(typical.paths);
      spec.superframe = typical.superframe;
      spec.reporting_interval = whart::net::kTypicalReportingInterval;
    } else if (source == "-") {
      spec = whart::cli::parse_spec(std::cin);
    } else {
      std::ifstream file(source);
      if (!file) {
        std::cerr << "whart_cli: cannot open '" << source << "'\n";
        return 1;
      }
      spec = whart::cli::parse_spec(file);
    }
    if (options.interval_override.has_value())
      spec.reporting_interval = *options.interval_override;
    print_analysis(spec, options);
    if (obs_session) obs_session->finish();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "whart_cli: " << error.what() << "\n";
    return 1;
  }
}
