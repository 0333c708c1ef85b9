// Ablation: the SHA-256 compressor under every Merkle, envelope and audit
// hash.
//
// Times the two compressor bodies on identical pre-padded messages:
//   scalar      — the portable FIPS 180-4 rounds;
//   dispatched  — what sha256()/sha256_pair() run: SHA-NI when CPUID
//                 reports the SHA extensions, else the scalar body.
// at 64 B (one Merkle interior node, sha256_pair's two compressions), 1 KiB
// and 64 KiB, then the Merkle costs that sit on top: a 10k-leaf build and an
// incremental leaf update.
//
// Emits a fides-bench-v1 report (--json <path> / FIDES_BENCH_JSON) with the
// rates in the info group. Gate: when the CPU has the SHA extensions, exits
// non-zero if dispatched/scalar throughput at 1 KiB is below 3.0. Both sides
// of the ratio are timed in this one process, best of several trials, so the
// gate holds on a shared, noisy runner.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "merkle/merkle_tree.hpp"

namespace {

using namespace fides;
using Clock = std::chrono::steady_clock;
using CompressFn = void (*)(crypto::detail::Sha256State&, const std::uint8_t*, std::size_t);

constexpr double kMinShaniSpeedup = 3.0;
constexpr int kTrials = 5;
constexpr std::size_t kBytesPerTrial = 2 << 20;

constexpr crypto::detail::Sha256State kIv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                                             0x1f83d9ab, 0x5be0cd19};

/// `n` message bytes plus FIPS 180-4 padding, so a compressor body hashes the
/// whole message in one call.
Bytes padded_message(std::size_t n) {
  Rng rng(n);
  Bytes out = rng.bytes(n);
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0x00);
  const std::uint64_t bits = static_cast<std::uint64_t>(n) * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

/// Fastest of kTrials runs of `work`, in seconds.
template <typename F>
double best_seconds(F&& work) {
  double best = 1e30;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = Clock::now();
    work();
    best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

std::uint32_t g_sink = 0;

/// Message bytes per second hashing `msg_len`-byte messages through `body`.
double hash_rate(CompressFn body, std::size_t msg_len) {
  const Bytes blocks = padded_message(msg_len);
  const std::size_t nblocks = blocks.size() / 64;
  const std::size_t hashes = std::max<std::size_t>(1, kBytesPerTrial / msg_len);
  const double secs = best_seconds([&] {
    for (std::size_t i = 0; i < hashes; ++i) {
      crypto::detail::Sha256State state = kIv;
      body(state, blocks.data(), nblocks);
      g_sink ^= state[0];
    }
  });
  return static_cast<double>(hashes * msg_len) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool shani = crypto::detail::shani_supported();
  bench::BenchReport report("ablation_sha256");
  report.config("dispatched_body", shani ? "sha-ni" : "scalar");
  report.config("trials", static_cast<std::size_t>(kTrials));
  report.config("bytes_per_trial", kBytesPerTrial);

  std::printf("SHA-256 compressor ablation (dispatched body: %s, best of %d trials)\n",
              shani ? "sha-ni" : "scalar", kTrials);
  std::printf("%-20s %-12s %s\n", "mode", "MB/s", "us/hash");

  const auto emit = [&](const std::string& label, std::size_t len, double rate) {
    std::printf("%-20s %-12.1f %.3f\n", label.c_str(), rate / 1e6,
                1e6 * static_cast<double>(len) / rate);
    bench::BenchPoint& p = report.point(label);
    p.info.set("mb_per_sec", rate / 1e6);
    p.info.set("us_per_hash", 1e6 * static_cast<double>(len) / rate);
  };

  double speedup_1k = 0;
  for (const std::size_t len : {std::size_t{64}, std::size_t{1024}, std::size_t{65536}}) {
    const std::string size = len == 64 ? "64B" : len == 1024 ? "1KiB" : "64KiB";
    const double scalar = hash_rate(crypto::detail::compress_scalar, len);
    const double dispatched = hash_rate(crypto::detail::compress, len);
    emit("scalar_" + size, len, scalar);
    emit("dispatched_" + size, len, dispatched);
    const double speedup = dispatched / scalar;
    std::printf("%-20s %.2fx\n", ("speedup_" + size).c_str(), speedup);
    report.point("speedup_" + size).info.set("dispatched_over_scalar", speedup);
    if (len == 1024) speedup_1k = speedup;
  }

  // Merkle costs through the public API (dispatched body): the provisioning
  // build and the per-write incremental path update.
  {
    constexpr std::size_t kLeaves = 10000;
    constexpr std::size_t kUpdates = 2000;
    std::vector<crypto::Digest> leaves;
    leaves.reserve(kLeaves);
    for (std::size_t i = 0; i < kLeaves; ++i) {
      leaves.push_back(crypto::sha256(to_bytes("leaf" + std::to_string(i))));
    }
    const double build_s = best_seconds([&] {
      const merkle::MerkleTree t(leaves);
      g_sink ^= t.root().bytes[0];
    });
    merkle::MerkleTree tree(leaves);
    Rng rng(7);
    const double update_s = best_seconds([&] {
      for (std::size_t i = 0; i < kUpdates; ++i) {
        tree.set_leaf(rng.uniform(kLeaves), leaves[i]);
      }
    });
    std::printf("%-20s build %.3f ms, leaf update %.3f us\n", "merkle_10k", 1e3 * build_s,
                1e6 * update_s / kUpdates);
    bench::BenchPoint& p = report.point("merkle_10k");
    p.info.set("build_ms", 1e3 * build_s);
    p.info.set("leaf_update_us", 1e6 * update_s / kUpdates);
  }
  std::printf("(sink %08x)\n", g_sink);

  bench::finish_report(report, argc, argv);
  if (shani && speedup_1k < kMinShaniSpeedup) {
    std::printf("ERROR: dispatched/scalar at 1 KiB is %.2fx, below the %.1fx gate\n",
                speedup_1k, kMinShaniSpeedup);
    return 1;
  }
  return 0;
}
