// perfbench: the repo benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID]
//   perfbench --self-check
//
// Prints a build/host stamp line, one human-readable line per metric, and
// as its last line the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// of a traced run with --trace 1. Exits 0 when every correctness check
// passed, 1 when one failed, 2 on bad arguments.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"commit_tps", "txn/s"},       {"commit_p50_ms", "ms"}, {"commit_p90_ms", "ms"},
    {"audit_txns_per_s", "txn/s"}, {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.data_path_ms_per_block", "ms"},
    {"engine.round_ms", "ms"},
    {"engine.coordinator_ms", "ms"},
    {"engine.cohort_critical_ms", "ms"},
    {"engine.spec_revotes", "count"},
    {"proc.cpu_util", "fraction"},
    {"proc.host_steal_pct", "%"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"crypto.batch_verify_us_per_sig", "us"},
    {"crypto.cosi_verify_us", "us"},
    {"crypto.sha256_mb_s", "MB/s"},
    {"crypto.sigs_created_per_txn", "count"},
    {"crypto.sigs_verified_per_txn", "count"},
    {"merkle.mht_ms", "ms"},
    {"merkle.leaf_update_us", "us"},
    {"merkle.build_ms", "ms"},
    {"txn.occ_validate_us", "us"},
    {"serde.block_roundtrip_us", "us"},
    {"serde.rwset_decode_us", "us"},
    {"net.frame_decode_mb_s", "MB/s"},
    {"net.msgs_per_txn", "count"},
    {"net.bytes_per_txn", "B"},
    {"net.serverd_ready_s", "s"},
    {"ledger.round_log_append_us", "us"},
    {"ledger.chain_validate_ms", "ms"},
    {"audit.select_ms", "ms"},
    {"audit.history_ms", "ms"},
    {"audit.datastore_ms", "ms"},
    {"setup.cluster_s", "s"},
    {"setup.mint_s", "s"},
    {"setup.serverd_s", "s"},
    {"abort_ratio", "fraction"},
    {"trace.unaccounted_pct", "%"},
    {"trace.overhead_pct", "%"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string stamp_json(const std::string& commit) {
  std::string out = "{\"commit\": ";
  append_json_string(out, commit);
  out += ", \"compiler\": ";
  append_json_string(out, PERFBENCH_COMPILER);
  out += ", \"flags\": ";
  append_json_string(out, PERFBENCH_CXX_FLAGS);
  out += ", \"build_type\": ";
  append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += ", \"cpu\": ";
  append_json_string(out, cpu_model());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + "}";
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit ID]\n"
               "       perfbench --self-check\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      int failures = self_check();
      for (const std::span<const MetricSpec> list : {std::span<const MetricSpec>(kEndToEnd),
                                                     std::span<const MetricSpec>(kPerLayer)}) {
        for (const MetricSpec& m : list) {
          if (!valid_metric_name(m.name)) {
            std::printf("self-check FAILED: bad metric name %s\n", m.name);
            ++failures;
          }
        }
      }
      std::printf("self-check: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value != "0";
      } else if (arg == "--work-dir") {
        opts.work_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || opts.work_dir.empty() || !(opts.seconds > 0)) {
    return usage("--workload, --work-dir and a positive --seconds are required");
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == opts.workload;
  if (!known) return usage(("unknown workload " + opts.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) return usage(("cannot create " + opts.work_dir).c_str());

  std::printf("stamp: %s\n", stamp_json(commit).c_str());
  std::fflush(stdout);
  RunResult run = run_workload(opts);

  std::vector<Metric> metrics;
  if (!opts.trace) {
    const auto p50 = mean_percentile(run.commit_ms, 50);
    const auto p90 = mean_percentile(run.commit_ms, 90);
    if (!p90 || p90->beyond < 10) {
      run.check_failures.push_back("too few latency samples for a p90");
    }
    for (const LatencyTally& group : run.commit_ms) {
      if (const auto top = highest_supported_percentile(group)) {
        std::printf("latency group: %zu samples (%zu failed); highest supported percentile "
                    "p%g = %.4f ms\n",
                    top->samples, group.failed, top->pct, top->value);
      }
    }
    const double values[] = {run.commit_tps,
                             p50 ? p50->value : 0,
                             p90 ? p90->value : 0,
                             run.audit_txns_per_s,
                             run.setup_s.empty() ? 0 : median(run.setup_s),
                             run.peak_rss_mb};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = run.layer.find(m.name);
      if (it == run.layer.end()) {
        run.check_failures.push_back(std::string("traced run did not measure ") + m.name);
        continue;
      }
      metrics.push_back({m.name, it->second, m.unit});
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : run.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = run.check_failures.empty();
  const std::uint64_t failed = failed_txns(run.attempted, run.aborted, correct);
  std::printf("%s\n", result_json(correct, run.attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
