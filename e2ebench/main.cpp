// whart end-to-end benchmark.
//
//   whart_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a detail JSON line (host context, workload-specific metrics with tail
// percentiles and sample counts, reference mix) and, as the last line,
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.  Exits non-zero without a
// result line on bad arguments or when the inputs cannot be built.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host.hpp"
#include "json.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "whart_e2ebench: " << problem
            << "\nusage: whart_e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "workloads:";
  for (const std::string& name : e2e::workload_names())
    std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  bool known = false;
  for (const std::string& name : e2e::workload_names())
    known = known || name == options.workload;
  if (!known) return usage("unknown workload '" + options.workload + "'");

  try {
    const e2e::json::Object host = e2e::host_context();
    e2e::Result result = e2e::run_workload(options);

    for (const std::string& failure : result.failures)
      std::cerr << "whart_e2ebench: failed op: " << failure << "\n";
    std::cout << e2e::json::Object()
                     .raw("detail", result.detail.text())
                     .raw("host", host.text())
                     .text()
              << "\n";

    e2e::json::Object metrics;
    for (const e2e::Metric& metric : result.metrics)
      metrics.raw(metric.name, e2e::json::Object()
                                   .num("value", metric.value)
                                   .str("unit", metric.unit)
                                   .text());
    std::cout << e2e::json::Object()
                     .flag("correct", result.failed == 0)
                     .num("attempted", static_cast<double>(result.attempted))
                     .num("failed", static_cast<double>(result.failed))
                     .raw("metrics", metrics.text())
                     .text()
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "whart_e2ebench: " << error.what() << "\n";
    return 1;
  }
}
