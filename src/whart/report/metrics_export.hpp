// Export surface of the observability subsystem: metrics snapshots as
// JSON (with quantiles, span aggregates and derived figures) and Chrome
// trace_event dumps (complete events plus cross-thread flow arrows).
// These are the writers behind the `--obs-dir=<dir>` bundle
// (report/obs_dir.hpp).
#pragma once

#include <iosfwd>
#include <vector>

#include "whart/common/obs.hpp"

namespace whart::report {

/// Serialize a metrics snapshot as a JSON object with "counters",
/// "gauges", "histograms" (each with p50/p90/p99 estimates), "derived"
/// (figures computable from the counters, e.g. the parallel engine's
/// mean task time) and, when `spans` is non-empty, a "spans" array of flat
/// per-name aggregates including exact quantiles.
void write_metrics_json(std::ostream& out,
                        const common::obs::MetricsSnapshot& snapshot,
                        const std::vector<common::obs::SpanAggregate>& spans =
                            {});

/// Serialize completed spans in Chrome trace_event format: one complete
/// ("ph":"X") event per span, timestamps/durations in microseconds,
/// causality ids in args, plus one flow-start ("ph":"s") / flow-finish
/// ("ph":"f") pair per ThreadPool task handoff when `flows` is given.
void write_chrome_trace_json(
    std::ostream& out, const std::vector<common::obs::SpanRecord>& events,
    const std::vector<common::obs::FlowRecord>& flows = {});

}  // namespace whart::report
