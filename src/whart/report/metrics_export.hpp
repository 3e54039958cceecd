// Export surface of the observability subsystem: metrics snapshots as
// JSON (with quantiles, span aggregates and derived figures), Chrome
// trace_event dumps (complete events plus cross-thread flow arrows),
// Prometheus text exposition, and the Sampler's time-series CSV.  These
// are the writers behind `whart_cli --metrics=<file>`, `--trace=<file>`
// and the `--obs-dir=<dir>` bundle.
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

/// Prometheus text exposition format: counters (`_total` suffix),
/// gauges, and histograms rendered as summaries (quantile labels 0.5 /
/// 0.9 / 0.99 plus _sum/_count).  Names are prefixed `whart_` and
/// sanitized (non-alphanumerics become '_').
void write_prometheus_text(std::ostream& out,
                           const common::obs::MetricsSnapshot& snapshot);

/// The Sampler ring as long-format CSV: `t_ms,name,value`, one row per
/// counter/gauge per sample; histograms expand to `.count`, `.mean`,
/// `.p50`, `.p90`, `.p99` rows.
void write_timeseries_csv(
    std::ostream& out,
    const std::vector<common::obs::TimedMetricsSnapshot>& series);

/// Human-readable aggregate table: name, count, total/mean/p50/p99/
/// min/max ms.
void print_span_table(std::ostream& out,
                      const std::vector<common::obs::SpanAggregate>& spans);

}  // namespace whart::report
