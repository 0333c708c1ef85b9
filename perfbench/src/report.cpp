#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::optional<Percentile> percentile(const LatencyTally& tally, double pct) {
  const std::size_t n = tally.count();
  if (n == 0 || !(pct > 0) || pct > 100) return std::nullopt;
  // Nearest rank: the smallest sample with at least pct% of samples at or
  // below it. Integer arithmetic on per-mille keeps 99.9 exact.
  const auto permille = static_cast<std::size_t>(std::llround(pct * 10));
  const std::size_t rank = std::max<std::size_t>(1, (permille * n + 999) / 1000);
  Percentile p;
  p.pct = pct;
  p.samples = n;
  p.beyond = n - rank;
  if (rank > tally.ok.size()) {
    p.value = std::numeric_limits<double>::infinity();
  } else {
    std::vector<double> sorted = tally.ok;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     sorted.end());
    p.value = sorted[rank - 1];
  }
  return p;
}

std::optional<Percentile> highest_supported_percentile(const LatencyTally& tally,
                                                       std::size_t min_beyond) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto p = percentile(tally, pct);
    if (p && p->beyond >= min_beyond) return p;
  }
  return std::nullopt;
}

std::vector<LatencyTally> latency_groups(const std::vector<LatencyTally>& episodes,
                                         std::size_t min_samples) {
  std::vector<LatencyTally> groups;
  LatencyTally open;
  for (const LatencyTally& e : episodes) {
    open.ok.insert(open.ok.end(), e.ok.begin(), e.ok.end());
    open.failed += e.failed;
    if (open.count() >= std::max<std::size_t>(min_samples, 1)) {
      groups.push_back(std::move(open));
      open = LatencyTally{};
    }
  }
  if (open.count() > 0 && !groups.empty()) {
    groups.back().ok.insert(groups.back().ok.end(), open.ok.begin(), open.ok.end());
    groups.back().failed += open.failed;
  }
  return groups;
}

std::optional<Percentile> mean_percentile(const std::vector<LatencyTally>& groups, double pct) {
  double sum = 0;
  std::optional<Percentile> least;
  for (const LatencyTally& g : groups) {
    const auto p = percentile(g, pct);
    if (!p) return std::nullopt;
    sum += p->value;
    if (!least || p->beyond < least->beyond) least = p;
  }
  if (!least) return std::nullopt;
  least->value = sum / static_cast<double>(groups.size());
  return least;
}

std::uint64_t failed_txns(std::uint64_t attempted, std::uint64_t aborted,
                          bool checks_passed) {
  return checks_passed ? std::min(aborted, attempted) : attempted;
}

std::vector<std::size_t> least_disturbed(const std::vector<double>& steal_pct,
                                         const std::vector<std::size_t>& samples,
                                         std::size_t min_samples) {
  std::vector<std::size_t> order(steal_pct.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal_pct[a] < steal_pct[b]; });
  std::vector<std::size_t> chosen;
  std::size_t have = 0;
  for (const std::size_t i : order) {
    const bool enough = chosen.size() * 2 >= order.size() && have >= min_samples;
    if (enough && steal_pct[i] > steal_pct[chosen.back()]) break;
    chosen.push_back(i);
    have += samples[i];
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, metrics[i].name);
    out += ": {\"value\": ";
    append_json_number(out, metrics[i].value);
    out += ", \"unit\": ";
    append_json_string(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

int self_check() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-check FAILED: %s\n", what);
      ++failures;
    }
  };

  // Percentile picker: p90 needs >= 10 samples ranked above it, so 100
  // samples support p90 (ranks 91..100 beyond) and 99 only p75.
  LatencyTally hundred;
  for (int i = 1; i <= 100; ++i) hundred.ok.push_back(i);
  const auto p100 = highest_supported_percentile(hundred);
  expect(p100 && p100->pct == 90.0 && p100->value == 90.0 && p100->beyond == 10 &&
             p100->samples == 100,
         "100 samples support p90 = 90 with 10 beyond");
  LatencyTally ninety_nine;
  for (int i = 1; i <= 99; ++i) ninety_nine.ok.push_back(i);
  const auto p99 = highest_supported_percentile(ninety_nine);
  expect(p99 && p99->pct == 75.0 && p99->samples == 99, "99 samples support only p75");
  LatencyTally thousand;
  for (int i = 1000; i >= 1; --i) thousand.ok.push_back(i);
  const auto p1000 = highest_supported_percentile(thousand);
  expect(p1000 && p1000->pct == 99.0 && p1000->value == 990.0,
         "1000 unsorted samples support p99 = 990");
  LatencyTally few;
  for (int i = 0; i < 15; ++i) few.ok.push_back(i);
  expect(!highest_supported_percentile(few), "15 samples support no percentile");
  const auto med = percentile(hundred, 50);
  expect(med && med->value == 50.0 && med->beyond == 50, "median of 1..100 is 50");
  expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5, "median of a sample");

  // Failure accounting: a failed op ranks above every success, so it is
  // counted as missing any latency limit.
  LatencyTally with_failures = hundred;
  with_failures.ok.resize(95);
  with_failures.failed = 5;
  const auto p95 = percentile(with_failures, 95);
  const auto p96 = percentile(with_failures, 96);
  expect(p95 && p95->value == 95.0 && p95->samples == 100, "p95 below the failures");
  expect(p96 && std::isinf(p96->value), "p96 lands on a failed op");
  LatencyTally all_failed;
  all_failed.failed = 3;
  const auto pf = percentile(all_failed, 50);
  expect(pf && std::isinf(pf->value), "an all-failed tally has no finite median");

  // Latency groups: consecutive episodes until a group holds min_samples;
  // a short remainder joins the last group; the mean is over groups.
  auto tally = [](std::initializer_list<double> ok, std::size_t failed = 0) {
    LatencyTally t;
    t.ok = ok;
    t.failed = failed;
    return t;
  };
  const auto groups = latency_groups({tally({1, 2}), tally({3}, 1), tally({4, 5}), tally({6})}, 2);
  expect(groups.size() == 3 && groups[0].count() == 2 && groups[1].count() == 2 &&
             groups[2].count() == 3 && groups[1].failed == 1,
         "episodes cut into groups of at least 2 samples, remainder joins the last");
  expect(latency_groups({tally({1, 2})}, 3).empty(), "too few samples for a group");
  const auto gm = mean_percentile({tally({10, 20, 30}), tally({8, 1, 4, 7}), tally({5, 6, 7})}, 50);
  expect(gm && gm->value == 10.0 && gm->samples == 3 && gm->beyond == 1,
         "mean over groups of each group's median");
  const auto gf = mean_percentile({tally({1, 2}), tally({3}, 1)}, 100);
  expect(gf && std::isinf(gf->value), "a failed op in one group makes the mean infinite");
  expect(!mean_percentile({}, 50), "no groups, no percentile");

  expect(failed_txns(100, 2, true) == 2, "aborted txns count as failed");
  expect(failed_txns(100, 0, false) == 100, "a failed check fails every txn of the run");

  // Episode selection: least host steal first, at least half of them and
  // enough latency samples; ties with the last one taken come along.
  expect(least_disturbed({5, 0.1, 9, 0.2}, {10, 10, 10, 10}, 0) ==
             std::vector<std::size_t>({1, 3}),
         "the less disturbed half is chosen");
  expect(least_disturbed({5, 0.1, 9, 0.2}, {10, 10, 10, 10}, 30) ==
             std::vector<std::size_t>({0, 1, 3}),
         "more episodes are taken until the latency sample suffices");
  expect(least_disturbed({0, 0, 0}, {1, 1, 1}, 0) == std::vector<std::size_t>({0, 1, 2}),
         "with no steal every episode counts");
  expect(least_disturbed({}, {}, 0).empty(), "no episodes, none chosen");

  // Metric names.
  expect(valid_metric_name("commit_p90_ms"), "commit_p90_ms is a valid name");
  expect(valid_metric_name("crypto.batch_verify_us_per_sig"), "dotted names are valid");
  expect(valid_metric_name("9lives-x"), "a digit may lead");
  expect(!valid_metric_name(""), "empty name rejected");
  expect(!valid_metric_name("_x"), "leading underscore rejected");
  expect(!valid_metric_name("commit tps"), "space rejected");
  expect(!valid_metric_name("tps/s"), "slash rejected");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters accepted");

  // JSON numbers keep every digit; non-finite values become null.
  std::string num;
  append_json_number(num, 0.1);
  expect(num == "0.10000000000000001", "0.1 printed with every digit");
  num.clear();
  append_json_number(num, std::numeric_limits<double>::infinity());
  expect(num == "null", "infinity printed as null");
  expect(result_json(true, 3, 1, {{"x", 1.5, "ms"}}) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
             "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line layout");
  return failures;
}

}  // namespace perfbench
