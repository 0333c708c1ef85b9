#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define FIDES_SHA256_X86 1
#endif

#include "common/hex.hpp"

namespace fides::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr detail::Sha256State kInit = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

Digest digest_of(const detail::Sha256State& h) {
  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return d;
}

#ifdef FIDES_SHA256_X86

// The SHA-NI body follows the instruction pairing in Intel's "SHA
// Extensions" note (Gulley et al., 2013). sha256rnds2 keeps the state as two
// registers, ABEF and CDGH, rather than H0..H7 in order.
#define FIDES_SHA_NI __attribute__((target("sha,sse4.1")))

/// Four rounds over message words W[4i..4i+3] held in `w`.
FIDES_SHA_NI inline void shani_rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                       std::size_t i) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four schedule words W[t..t+3] from the sixteen before them:
/// w0 = W[t-16..t-13], w1 = W[t-12..t-9], w2 = W[t-8..t-5], w3 = W[t-4..t-1].
FIDES_SHA_NI inline __m128i shani_schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

#endif  // FIDES_SHA256_X86

}  // namespace

namespace detail {

void compress_scalar(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const std::uint8_t* p = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(p[4 * i]) << 24 |
             static_cast<std::uint32_t>(p[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(p[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef FIDES_SHA256_X86

FIDES_SHA_NI void compress_shani(Sha256State& state, const std::uint8_t* blocks,
                                 std::size_t nblocks) {
  // Message words are big-endian; this shuffle byte-swaps each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // H0..H3 = DCBA and H4..H7 = HGFE (lane 0 first) -> ABEF and CDGH.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* p = reinterpret_cast<const __m128i*>(blocks);

    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
    shani_rounds4(abef, cdgh, w0, 0);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), bswap);
    shani_rounds4(abef, cdgh, w1, 1);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), bswap);
    shani_rounds4(abef, cdgh, w2, 2);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), bswap);
    shani_rounds4(abef, cdgh, w3, 3);
    for (std::size_t i = 4; i < 16; i += 4) {
      w0 = shani_schedule(w0, w1, w2, w3);
      shani_rounds4(abef, cdgh, w0, i);
      w1 = shani_schedule(w1, w2, w3, w0);
      shani_rounds4(abef, cdgh, w1, i + 1);
      w2 = shani_schedule(w2, w3, w0, w1);
      shani_rounds4(abef, cdgh, w2, i + 2);
      w3 = shani_schedule(w3, w0, w1, w2);
      shani_rounds4(abef, cdgh, w3, i + 3);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF and CDGH -> DCBA and HGFE.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

bool shani_supported() {
  // Raw CPUID rather than __builtin_cpu_supports: it needs no runtime init,
  // so a hash taken during another translation unit's static
  // initialisation sees the right answer, and every gcc and clang knows it.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3_sse41 && (ebx & bit_SHA) != 0;
}

#else

void compress_shani(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks) {
  compress_scalar(state, blocks, nblocks);
}

bool shani_supported() { return false; }

#endif  // FIDES_SHA256_X86

void compress(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks) {
  using Body = void (*)(Sha256State&, const std::uint8_t*, std::size_t);
  static const Body body = shani_supported() ? compress_shani : compress_scalar;
  body(state, blocks, nblocks);
}

}  // namespace detail

std::string Digest::hex() const { return hex_encode(view()); }

Sha256::Sha256() : h_(kInit) {}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buf_len_ > 0) {
    const std::size_t take = std::min(n, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < buf_.size()) return;
    detail::compress(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  if (n >= 64) {
    detail::compress(h_, p, n / 64);
    p += n - n % 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buf_.data(), p, n);
    buf_len_ = n;
  }
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    detail::compress(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  detail::compress(h_, buf_.data(), 1);
  return digest_of(h_);
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256_pair(const Digest& left, const Digest& right) {
  // left || right is one 64-byte block; the second block is pure padding:
  // 0x80, zeros, then the 512-bit message length (0x200) big-endian.
  std::array<std::uint8_t, 128> blocks{};
  std::memcpy(blocks.data(), left.bytes.data(), 32);
  std::memcpy(blocks.data() + 32, right.bytes.data(), 32);
  blocks[64] = 0x80;
  blocks[126] = 0x02;
  detail::Sha256State h = kInit;
  detail::compress(h, blocks.data(), 2);
  return digest_of(h);
}

}  // namespace fides::crypto
