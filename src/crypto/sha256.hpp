// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the one-way, collision-resistant hash the paper assumes for Merkle
// hash trees (§2.3), block hash pointers (§3.1), and the CoSi challenge
// (§2.2). Streaming interface plus one-shot helpers.
//
// Every digest goes through one multi-block compressor. On x86 CPUs with the
// SHA extensions it runs the SHA-NI instructions; elsewhere it runs the
// scalar FIPS 180-4 rounds. The choice is made once, from CPUID, and both
// bodies produce identical digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace fides::crypto {

/// A 32-byte SHA-256 digest. Value type; comparable and hashable.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend constexpr auto operator<=>(const Digest&, const Digest&) = default;

  BytesView view() const { return BytesView(bytes.data(), bytes.size()); }
  Bytes to_bytes() const { return Bytes(bytes.begin(), bytes.end()); }
  std::string hex() const;

  /// All-zero digest, used as the "previous block" pointer of the genesis
  /// block and as a sentinel for "no digest".
  static Digest zero() { return Digest{}; }
  bool is_zero() const { return *this == Digest{}; }
};

class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_{0};
  std::uint64_t total_len_{0};
};

/// One-shot hash.
Digest sha256(BytesView data);

/// Hash of the concatenation of two digests — the Merkle interior-node rule
/// h(left | right) from §2.3.
Digest sha256_pair(const Digest& left, const Digest& right);

namespace detail {

/// The SHA-256 chaining state: eight 32-bit words, H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

/// Runs the compression function over `nblocks` consecutive 64-byte blocks.
/// This is the body Sha256, sha256 and sha256_pair use, chosen once from
/// CPUID.
void compress(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks);

/// The two bodies behind compress(), exposed so tests and the ablation bench
/// can run and compare both on any host. compress_shani() may only be called
/// when shani_supported() is true.
void compress_scalar(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks);
void compress_shani(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks);
bool shani_supported();

}  // namespace detail

}  // namespace fides::crypto

namespace std {
template <>
struct hash<fides::crypto::Digest> {
  size_t operator()(const fides::crypto::Digest& d) const noexcept {
    size_t v = 0;
    for (int i = 0; i < 8; ++i) v = v * 31 + d.bytes[i];
    // First 8 bytes of a SHA-256 output are already uniform; fold them.
    size_t direct;
    static_assert(sizeof(direct) <= 32);
    __builtin_memcpy(&direct, d.bytes.data(), sizeof(direct));
    return direct ^ v;
  }
};
}  // namespace std
