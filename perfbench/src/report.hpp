// Result accounting for the benchmark harness: metric records, the latency
// percentile picker, failure accounting, and the JSON the harness prints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// Metric names are what later changes refer to: a letter or digit first,
/// then at most 63 more of [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);

/// Latency samples of one run. A failed or refused operation has no
/// latency; it counts as missing every limit, so it sorts above every
/// successful sample.
struct LatencyTally {
  std::vector<double> ok;  ///< latencies of successful operations
  std::size_t failed{0};   ///< operations that failed or were refused

  std::size_t count() const { return ok.size() + failed; }
};

/// A nearest-rank percentile over a tally. `value` is +infinity when the
/// rank lands on a failed operation.
struct Percentile {
  double pct{0};
  double value{0};
  std::size_t samples{0};  ///< every operation, failed ones included
  std::size_t beyond{0};   ///< samples ranked above the percentile
};

/// Nearest-rank `pct` percentile (0 < pct <= 100), failures ranked last.
/// Nullopt for an empty tally.
std::optional<Percentile> percentile(const LatencyTally& tally, double pct);

/// The highest of the standard percentiles (99.9, 99, 95, 90, 75, 50) that
/// has at least `min_beyond` samples ranked above it. Nullopt when not even
/// the median has.
std::optional<Percentile> highest_supported_percentile(const LatencyTally& tally,
                                                       std::size_t min_beyond = 10);

/// Cuts the latency tallies of a run's episodes, in run order, into
/// consecutive groups of at least `min_samples` samples each; a remainder
/// too small for a group of its own joins the last group. Empty when all of
/// them together hold fewer than `min_samples`.
std::vector<LatencyTally> latency_groups(const std::vector<LatencyTally>& episodes,
                                         std::size_t min_samples);

/// The mean over `groups` of each group's nearest-rank `pct` percentile
/// (+infinity when one of them is). `samples` and `beyond` are those of the
/// group with the fewest samples beyond its percentile. Nullopt when there
/// is no group or one is empty.
std::optional<Percentile> mean_percentile(const std::vector<LatencyTally>& groups, double pct);

/// Transactions a run counts as failed: every aborted one, and every one
/// attempted in a run whose correctness check failed.
std::uint64_t failed_txns(std::uint64_t attempted, std::uint64_t aborted,
                          bool checks_passed);

/// Which episodes of a run the end-to-end metrics come from, by index: the
/// least disturbed by the host first (lowest share of CPU time stolen from
/// the VM), until at least half of the episodes and at least `min_samples`
/// latency samples are in, plus every episode as undisturbed as the last one
/// taken (so that with no steal at all, every episode counts).
std::vector<std::size_t> least_disturbed(const std::vector<double>& steal_pct,
                                         const std::vector<std::size_t>& samples,
                                         std::size_t min_samples);

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> values);

/// Appends `value` as a JSON number with every significant digit (null when
/// not finite).
void append_json_number(std::string& out, double value);

/// Appends `s` as a JSON string literal.
void append_json_string(std::string& out, std::string_view s);

/// The harness's final line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Runs the harness's own unit checks (percentile picker, failure
/// accounting, metric names, JSON numbers). Prints each failure; returns
/// the number of failed checks.
int self_check();

}  // namespace perfbench
