// The engine side of `--obs-dir=<dir>`: one RAII session that turns on
// every observability surface (metrics, tracing, the flight recorder),
// points the contract-failure crash dump into the directory, and on
// finish() writes the three-artifact bundle:
//
//   metrics.json    registry snapshot + span aggregates + derived
//   trace.json      Chrome trace_event spans + cross-thread flow arrows
//   events.jsonl    flight-recorder drain, one JSON object per line
//
// plus `events_crash.jsonl` if a contract fails during the session.
// whart_cli, whart_verify and examples/typical_network drive their
// `--obs-dir` flag through this class, their only observability
// export, so the bundle layout stays identical everywhere.
#pragma once

#include <string>

#include "whart/common/obs.hpp"

namespace whart::report {

class ObsDirSession {
 public:
  /// Creates `dir` (and parents), enables metrics/trace/events, clears
  /// the trace and event buffers and redirects the contract crash dump
  /// to `<dir>/events_crash.jsonl`.
  explicit ObsDirSession(std::string dir);

  /// finish()es if the caller did not.
  ~ObsDirSession();

  ObsDirSession(const ObsDirSession&) = delete;
  ObsDirSession& operator=(const ObsDirSession&) = delete;

  /// Write the three artifacts (idempotent).
  void finish();

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
  bool finished_ = false;
};

}  // namespace whart::report
