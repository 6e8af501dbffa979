// SHA-1 compression-function variants.
//
//  * "scalar"    — the straightforward 80-round loop (reference).
//  * "pipelined" — portable block-pipelined variant: fully unrolled
//    rounds, a 16-word circular message schedule, __builtin_bswap32
//    loads, and the e->d->c->b->a register rotation folded into the
//    macro arguments so no shuffle instructions are emitted.
//  * "shani"     — Intel SHA extensions (SHA1RNDS4/SHA1NEXTE/SHA1MSG*),
//    four rounds per instruction.
//
// All variants process `nblocks` consecutive 64-byte blocks per call so
// streaming updates pay the dispatch indirection once per update, not
// once per block.
//
// The lanes family hashes independent messages side by side, one per
// SIMD lane; SHA-NI is latency-bound on one stream, so lanes are how
// equal-length chunks go faster than one stream:
//  * "scalar" — the reference: one lane, sha1_blocks_scalar itself.
//  * "avx512" — 16 lanes: message words gathered from the 16 message
//    pointers, rotates with VPROLD, round functions with VPTERNLOGD.
#include "kernels/kernels.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define COLLREP_KERNELS_SHA_X86 1
#endif

namespace collrep::kernels {

namespace {

constexpr std::uint32_t rol(std::uint32_t v, int s) noexcept {
  return std::rotl(v, s);
}

// -- scalar reference ---------------------------------------------------------

void sha1_blocks_scalar(std::uint32_t state[5], const std::uint8_t* blocks,
                        std::size_t nblocks) noexcept {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* block = blocks + blk * 64;
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rol(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0];
    std::uint32_t b = state[1];
    std::uint32_t c = state[2];
    std::uint32_t d = state[3];
    std::uint32_t e = state[4];

    for (int i = 0; i < 80; ++i) {
      std::uint32_t f;
      std::uint32_t k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rol(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rol(b, 30);
      b = a;
      a = tmp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

// -- pipelined scalar ---------------------------------------------------------

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_bswap32(v);
}

void sha1_blocks_pipelined(std::uint32_t state[5], const std::uint8_t* blocks,
                           std::size_t nblocks) noexcept {
  std::uint32_t a = state[0];
  std::uint32_t b = state[1];
  std::uint32_t c = state[2];
  std::uint32_t d = state[3];
  std::uint32_t e = state[4];

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* p = blocks + blk * 64;
    std::uint32_t w[16];

// Schedule: first 16 rounds consume bswapped block words; later rounds
// recompute in a 16-word ring.  The a..e rotation is encoded in the
// argument order of consecutive macro invocations.
#define COLLREP_SHA1_W0(i) (w[i] = load_be32(p + 4 * (i)))
#define COLLREP_SHA1_W(i)                                              \
  (w[(i) & 15] = rol(w[((i) + 13) & 15] ^ w[((i) + 8) & 15] ^          \
                         w[((i) + 2) & 15] ^ w[(i) & 15],              \
                     1))
#define COLLREP_SHA1_R0(v, x, y, z, u, i)                              \
  u += ((x & (y ^ z)) ^ z) + COLLREP_SHA1_W0(i) + 0x5A827999u +        \
       rol(v, 5);                                                      \
  x = rol(x, 30);
#define COLLREP_SHA1_R1(v, x, y, z, u, i)                              \
  u += ((x & (y ^ z)) ^ z) + COLLREP_SHA1_W(i) + 0x5A827999u +         \
       rol(v, 5);                                                      \
  x = rol(x, 30);
#define COLLREP_SHA1_R2(v, x, y, z, u, i)                              \
  u += (x ^ y ^ z) + COLLREP_SHA1_W(i) + 0x6ED9EBA1u + rol(v, 5);      \
  x = rol(x, 30);
#define COLLREP_SHA1_R3(v, x, y, z, u, i)                              \
  u += (((x | y) & z) | (x & y)) + COLLREP_SHA1_W(i) + 0x8F1BBCDCu +   \
       rol(v, 5);                                                      \
  x = rol(x, 30);
#define COLLREP_SHA1_R4(v, x, y, z, u, i)                              \
  u += (x ^ y ^ z) + COLLREP_SHA1_W(i) + 0xCA62C1D6u + rol(v, 5);      \
  x = rol(x, 30);

    COLLREP_SHA1_R0(a, b, c, d, e, 0)
    COLLREP_SHA1_R0(e, a, b, c, d, 1)
    COLLREP_SHA1_R0(d, e, a, b, c, 2)
    COLLREP_SHA1_R0(c, d, e, a, b, 3)
    COLLREP_SHA1_R0(b, c, d, e, a, 4)
    COLLREP_SHA1_R0(a, b, c, d, e, 5)
    COLLREP_SHA1_R0(e, a, b, c, d, 6)
    COLLREP_SHA1_R0(d, e, a, b, c, 7)
    COLLREP_SHA1_R0(c, d, e, a, b, 8)
    COLLREP_SHA1_R0(b, c, d, e, a, 9)
    COLLREP_SHA1_R0(a, b, c, d, e, 10)
    COLLREP_SHA1_R0(e, a, b, c, d, 11)
    COLLREP_SHA1_R0(d, e, a, b, c, 12)
    COLLREP_SHA1_R0(c, d, e, a, b, 13)
    COLLREP_SHA1_R0(b, c, d, e, a, 14)
    COLLREP_SHA1_R0(a, b, c, d, e, 15)
    COLLREP_SHA1_R1(e, a, b, c, d, 16)
    COLLREP_SHA1_R1(d, e, a, b, c, 17)
    COLLREP_SHA1_R1(c, d, e, a, b, 18)
    COLLREP_SHA1_R1(b, c, d, e, a, 19)
    COLLREP_SHA1_R2(a, b, c, d, e, 20)
    COLLREP_SHA1_R2(e, a, b, c, d, 21)
    COLLREP_SHA1_R2(d, e, a, b, c, 22)
    COLLREP_SHA1_R2(c, d, e, a, b, 23)
    COLLREP_SHA1_R2(b, c, d, e, a, 24)
    COLLREP_SHA1_R2(a, b, c, d, e, 25)
    COLLREP_SHA1_R2(e, a, b, c, d, 26)
    COLLREP_SHA1_R2(d, e, a, b, c, 27)
    COLLREP_SHA1_R2(c, d, e, a, b, 28)
    COLLREP_SHA1_R2(b, c, d, e, a, 29)
    COLLREP_SHA1_R2(a, b, c, d, e, 30)
    COLLREP_SHA1_R2(e, a, b, c, d, 31)
    COLLREP_SHA1_R2(d, e, a, b, c, 32)
    COLLREP_SHA1_R2(c, d, e, a, b, 33)
    COLLREP_SHA1_R2(b, c, d, e, a, 34)
    COLLREP_SHA1_R2(a, b, c, d, e, 35)
    COLLREP_SHA1_R2(e, a, b, c, d, 36)
    COLLREP_SHA1_R2(d, e, a, b, c, 37)
    COLLREP_SHA1_R2(c, d, e, a, b, 38)
    COLLREP_SHA1_R2(b, c, d, e, a, 39)
    COLLREP_SHA1_R3(a, b, c, d, e, 40)
    COLLREP_SHA1_R3(e, a, b, c, d, 41)
    COLLREP_SHA1_R3(d, e, a, b, c, 42)
    COLLREP_SHA1_R3(c, d, e, a, b, 43)
    COLLREP_SHA1_R3(b, c, d, e, a, 44)
    COLLREP_SHA1_R3(a, b, c, d, e, 45)
    COLLREP_SHA1_R3(e, a, b, c, d, 46)
    COLLREP_SHA1_R3(d, e, a, b, c, 47)
    COLLREP_SHA1_R3(c, d, e, a, b, 48)
    COLLREP_SHA1_R3(b, c, d, e, a, 49)
    COLLREP_SHA1_R3(a, b, c, d, e, 50)
    COLLREP_SHA1_R3(e, a, b, c, d, 51)
    COLLREP_SHA1_R3(d, e, a, b, c, 52)
    COLLREP_SHA1_R3(c, d, e, a, b, 53)
    COLLREP_SHA1_R3(b, c, d, e, a, 54)
    COLLREP_SHA1_R3(a, b, c, d, e, 55)
    COLLREP_SHA1_R3(e, a, b, c, d, 56)
    COLLREP_SHA1_R3(d, e, a, b, c, 57)
    COLLREP_SHA1_R3(c, d, e, a, b, 58)
    COLLREP_SHA1_R3(b, c, d, e, a, 59)
    COLLREP_SHA1_R4(a, b, c, d, e, 60)
    COLLREP_SHA1_R4(e, a, b, c, d, 61)
    COLLREP_SHA1_R4(d, e, a, b, c, 62)
    COLLREP_SHA1_R4(c, d, e, a, b, 63)
    COLLREP_SHA1_R4(b, c, d, e, a, 64)
    COLLREP_SHA1_R4(a, b, c, d, e, 65)
    COLLREP_SHA1_R4(e, a, b, c, d, 66)
    COLLREP_SHA1_R4(d, e, a, b, c, 67)
    COLLREP_SHA1_R4(c, d, e, a, b, 68)
    COLLREP_SHA1_R4(b, c, d, e, a, 69)
    COLLREP_SHA1_R4(a, b, c, d, e, 70)
    COLLREP_SHA1_R4(e, a, b, c, d, 71)
    COLLREP_SHA1_R4(d, e, a, b, c, 72)
    COLLREP_SHA1_R4(c, d, e, a, b, 73)
    COLLREP_SHA1_R4(b, c, d, e, a, 74)
    COLLREP_SHA1_R4(a, b, c, d, e, 75)
    COLLREP_SHA1_R4(e, a, b, c, d, 76)
    COLLREP_SHA1_R4(d, e, a, b, c, 77)
    COLLREP_SHA1_R4(c, d, e, a, b, 78)
    COLLREP_SHA1_R4(b, c, d, e, a, 79)

#undef COLLREP_SHA1_W0
#undef COLLREP_SHA1_W
#undef COLLREP_SHA1_R0
#undef COLLREP_SHA1_R1
#undef COLLREP_SHA1_R2
#undef COLLREP_SHA1_R3
#undef COLLREP_SHA1_R4

    a = (state[0] += a);
    b = (state[1] += b);
    c = (state[2] += c);
    d = (state[3] += d);
    e = (state[4] += e);
  }
}

// -- SHA-NI -------------------------------------------------------------------

#ifdef COLLREP_KERNELS_SHA_X86

// Layout follows the canonical Intel SHA-extensions flow: ABCD packed
// big-endian-high in one register, E carried through SHA1NEXTE, message
// schedule advanced by SHA1MSG1/SHA1MSG2 + XOR, four rounds per
// SHA1RNDS4.
__attribute__((target("sha,ssse3,sse4.1"))) void sha1_blocks_shani(
    std::uint32_t state[5], const std::uint8_t* blocks,
    std::size_t nblocks) noexcept {
  __m128i abcd =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  const __m128i bswap_mask = _mm_set_epi64x(
      static_cast<long long>(0x0001020304050607ULL),
      static_cast<long long>(0x08090A0B0C0D0E0FULL));

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* p = blocks + blk * 64;
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;
    __m128i e1;

    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap_mask);
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)),
        bswap_mask);
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)),
        bswap_mask);
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)),
        bswap_mask);

    // Rounds 0-3
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    // Rounds 4-7
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);

    // Rounds 8-11
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 12-15
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 16-19
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 20-23
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 24-27
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 28-31
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 32-35
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 36-39
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 40-43
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 44-47
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 48-51
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 52-55
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 56-59
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 60-63
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 64-67
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 68-71
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 72-75
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    // Rounds 76-79
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    // Fold in the saved state.
    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // COLLREP_KERNELS_SHA_X86

// -- lanes --------------------------------------------------------------------

void sha1_lanes_scalar(std::uint32_t (*states)[5],
                       const std::uint8_t* const* msgs,
                       std::size_t nblocks) noexcept {
  sha1_blocks_scalar(states[0], msgs[0], nblocks);
}

#ifdef COLLREP_KERNELS_SHA_X86

// State and message words are transposed: vector j holds word j of all 16
// lanes.  Word t of a block is gathered from the 16 lane pointers (eight
// per 64-bit-index gather, indices relative to lane 0's pointer) and
// byte-swapped; the 80 rounds are the pipelined variant's, on vectors.
//
// GCC 12 flags the undefined pass-through operand of the unmasked gather,
// insert and rotate intrinsics (-Wmaybe-uninitialized); their masked forms
// with a full mask compile to the same instructions.
#define COLLREP_ROL16(x, s) _mm512_maskz_rol_epi32(0xFFFF, (x), (s))

__attribute__((target("avx512f,avx512bw"))) void sha1_lanes_avx512(
    std::uint32_t (*states)[5], const std::uint8_t* const* msgs,
    std::size_t nblocks) noexcept {
  constexpr int kLanes = 16;
  alignas(64) std::uint32_t words[5][kLanes];
  for (int l = 0; l < kLanes; ++l) {
    for (int j = 0; j < 5; ++j) words[j][l] = states[l][j];
  }
  __m512i a = _mm512_load_si512(words[0]);
  __m512i b = _mm512_load_si512(words[1]);
  __m512i c = _mm512_load_si512(words[2]);
  __m512i d = _mm512_load_si512(words[3]);
  __m512i e = _mm512_load_si512(words[4]);

  alignas(64) std::int64_t rel[kLanes];
  const auto base = reinterpret_cast<std::uintptr_t>(msgs[0]);
  for (int l = 0; l < kLanes; ++l) {
    rel[l] = static_cast<std::int64_t>(
        reinterpret_cast<std::uintptr_t>(msgs[l]) - base);
  }
  const __m512i rel_lo = _mm512_load_si512(rel);
  const __m512i rel_hi = _mm512_load_si512(rel + 8);
  const __m512i bswap = _mm512_set4_epi32(0x0C0D0E0F, 0x08090A0B, 0x04050607,
                                          0x00010203);
  const __m512i k0 = _mm512_set1_epi32(0x5A827999);
  const __m512i k1 = _mm512_set1_epi32(0x6ED9EBA1);
  const __m512i k2 = _mm512_set1_epi32(static_cast<int>(0x8F1BBCDCu));
  const __m512i k3 = _mm512_set1_epi32(static_cast<int>(0xCA62C1D6u));
  const __m256i zero = _mm256_setzero_si256();

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* p = msgs[0] + blk * 64;
    __m512i w[16];
#pragma GCC unroll 16
    for (int t = 0; t < 16; ++t) {
      const __m256i lo =
          _mm512_mask_i64gather_epi32(zero, 0xFF, rel_lo, p + 4 * t, 1);
      const __m256i hi =
          _mm512_mask_i64gather_epi32(zero, 0xFF, rel_hi, p + 4 * t, 1);
      w[t] = _mm512_shuffle_epi8(
          _mm512_maskz_inserti64x4(0xFF, _mm512_castsi256_si512(lo), hi, 1),
          bswap);
    }
    const __m512i sa = a;
    const __m512i sb = b;
    const __m512i sc = c;
    const __m512i sd = d;
    const __m512i se = e;
#pragma GCC unroll 80
    for (int t = 0; t < 80; ++t) {
      if (t >= 16) {
        // 0x96 = x ^ y ^ z.
        w[t & 15] = COLLREP_ROL16(
            _mm512_xor_si512(
                _mm512_ternarylogic_epi32(w[(t + 13) & 15], w[(t + 8) & 15],
                                          w[(t + 2) & 15], 0x96),
                w[t & 15]),
            1);
      }
      // 0xCA = b ? c : d (choose), 0x96 = parity, 0xE8 = majority.
      __m512i f;
      __m512i k;
      if (t < 20) {
        f = _mm512_ternarylogic_epi32(b, c, d, 0xCA);
        k = k0;
      } else if (t < 40) {
        f = _mm512_ternarylogic_epi32(b, c, d, 0x96);
        k = k1;
      } else if (t < 60) {
        f = _mm512_ternarylogic_epi32(b, c, d, 0xE8);
        k = k2;
      } else {
        f = _mm512_ternarylogic_epi32(b, c, d, 0x96);
        k = k3;
      }
      const __m512i tmp = _mm512_add_epi32(
          _mm512_add_epi32(COLLREP_ROL16(a, 5), f),
          _mm512_add_epi32(_mm512_add_epi32(e, k), w[t & 15]));
      e = d;
      d = c;
      c = COLLREP_ROL16(b, 30);
      b = a;
      a = tmp;
    }
    a = _mm512_add_epi32(a, sa);
    b = _mm512_add_epi32(b, sb);
    c = _mm512_add_epi32(c, sc);
    d = _mm512_add_epi32(d, sd);
    e = _mm512_add_epi32(e, se);
  }

  _mm512_store_si512(words[0], a);
  _mm512_store_si512(words[1], b);
  _mm512_store_si512(words[2], c);
  _mm512_store_si512(words[3], d);
  _mm512_store_si512(words[4], e);
  for (int l = 0; l < kLanes; ++l) {
    for (int j = 0; j < 5; ++j) states[l][j] = words[j][l];
  }
}

#undef COLLREP_ROL16

#endif  // COLLREP_KERNELS_SHA_X86

}  // namespace

std::span<const Sha1Variant> sha1_variants() noexcept {
  static const Sha1Variant variants[] = {
      {"scalar", true, &sha1_blocks_scalar},
      {"pipelined", true, &sha1_blocks_pipelined},
#ifdef COLLREP_KERNELS_SHA_X86
      {"shani", cpu_features().sha_ni, &sha1_blocks_shani},
#endif
  };
  return variants;
}

std::span<const Sha1LanesVariant> sha1_lanes_variants() noexcept {
  static const Sha1LanesVariant variants[] = {
      {"scalar", true, 1, &sha1_lanes_scalar},
#ifdef COLLREP_KERNELS_SHA_X86
      {"avx512", cpu_features().avx512, 16, &sha1_lanes_avx512},
#endif
  };
  return variants;
}

}  // namespace collrep::kernels
