// The benchmark's workloads. Each drives Fides only through its public
// entry points, closed loop from one client in this process, and checks its
// own output. See README.md for the configuration tables and the reason
// each workload was chosen.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Working directory for sockets, durable round logs, serverd stderr and
  /// the trace file; must exist.
  std::string work_dir;
};

struct RunResult {
  // Transaction accounting over every timed phase of the run.
  std::uint64_t attempted{0};
  std::uint64_t aborted{0};
  /// Correctness checks that failed (empty when the run is correct).
  std::vector<std::string> check_failures;

  // End-to-end, from the untraced phases.
  double commit_tps{0};
  /// Commit latencies of the chosen episodes, in groups large enough for
  /// a p90 each (see latency_groups).
  std::vector<LatencyTally> commit_ms;
  double audit_txns_per_s{0};
  std::vector<double> setup_s;  ///< every set-up of the chosen episodes
  double peak_rss_mb{0};

  // Traced run only: per-layer values by metric name, and the tie-out.
  std::map<std::string, double> layer;
  TraceSummary trace;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Errors from the library are caught and recorded as
/// check failures.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
