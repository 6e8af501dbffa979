// Data-plane kernels with runtime CPU-feature dispatch.
//
// Every byte a dump moves passes through a handful of byte-bashing loops:
// GF(256) multiply-accumulate (Reed-Solomon encode/decode), CRC-32C, and
// the SHA-1 compression function (one stream, or many equal-length
// messages in SIMD lanes).  Each kernel ships as a list of
// *variants* — index 0 is the portable scalar reference, higher indices
// are SIMD implementations gated on CPU features probed once via CPUID —
// and the pipeline calls through a function pointer resolved exactly once
// at startup (one indirection per call, never re-probed).
//
// The scalar variants are always compiled and always tested: the
// differential suite (ctest label `kernels`) checks every *available*
// SIMD variant against variant 0 on randomized inputs.
//
// COLLREP_KERNELS=scalar forces the scalar reference kernels everywhere
// (the baseline that scripts/bench_kernels.sh measures against); any
// other value (or unset) selects the best variant this CPU supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace collrep::kernels {

struct CpuFeatures {
  bool ssse3 = false;
  bool sse42 = false;
  bool avx2 = false;    // includes the OS-enabled-YMM (XGETBV) check
  bool sha_ni = false;
  bool pclmul = false;      // PCLMULQDQ (carry-less multiply)
  bool vpclmulqdq = false;  // wide VPCLMULQDQ (implies pclmul on real CPUs)
  // AVX-512 F+BW+DQ+VL as one bundle, including the OS-enabled-ZMM
  // (XGETBV opmask/ZMM_Hi256/Hi16_ZMM) check; the merge kernels need all
  // four subsets, so there is no point probing them separately.
  bool avx512 = false;
};

// CPUID probe, performed once and cached.
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

// out[i] ^= coeff * in[i] over GF(2^8) mod 0x11D (the mul_add form) and
// out[i] = coeff * in[i] (the mul form).
using GfMulAddFn = void (*)(std::uint8_t* out, const std::uint8_t* in,
                            std::size_t n, std::uint8_t coeff);
using GfMulFn = void (*)(std::uint8_t* out, const std::uint8_t* in,
                         std::size_t n, std::uint8_t coeff);
// Folds `n` bytes into a running CRC-32C state.  The state is the raw
// (already complemented) register: callers do the ~seed / ~result steps.
using Crc32cFn = std::uint32_t (*)(std::uint32_t crc, const std::uint8_t* data,
                                   std::size_t n);
// Runs the SHA-1 compression function over `nblocks` consecutive 64-byte
// blocks (block-pipelined: one call per update, not per block).
using Sha1BlocksFn = void (*)(std::uint32_t state[5],
                              const std::uint8_t* blocks, std::size_t nblocks);
// SHA-1 over independent messages in SIMD lanes: runs the compression
// function over `nblocks` 64-byte blocks of each of the variant's `lanes`
// messages, lane i from states[i] over msgs[i][0, 64 * nblocks).  The
// pointers need no alignment and may be null when nblocks is 0.
inline constexpr std::size_t kMaxSha1Lanes = 16;
using Sha1LanesFn = void (*)(std::uint32_t (*states)[5],
                             const std::uint8_t* const* msgs,
                             std::size_t nblocks);

// HMERGE: set-merge planning over two strictly-ascending u64 key arrays.
//
// The fingerprint set stores entries sorted by 20-byte fingerprint; the
// first 8 bytes, read big-endian, are an order-preserving 64-bit prefix
// key.  The kernel walks both key arrays and emits one *tag* byte per
// merged output element — take-from-A, take-from-B, or key-match — so the
// caller can bulk-copy disjoint runs and run the (scalar, branchy)
// freq/rank reconciliation only on the tagged matches.  Keys must be
// strictly ascending within each input; a kHmergeMatch tag therefore
// names exactly one element of each side.  `tags` must have room for
// na + nb bytes.
inline constexpr std::uint8_t kHmergeTakeA = 0;
inline constexpr std::uint8_t kHmergeTakeB = 1;
inline constexpr std::uint8_t kHmergeMatch = 2;

struct HmergeResult {
  std::size_t out_len;  // tags written == na + nb - matches
  std::size_t matches;  // number of kHmergeMatch tags
};

using HmergeFn = HmergeResult (*)(const std::uint64_t* a, std::size_t na,
                                  const std::uint64_t* b, std::size_t nb,
                                  std::uint8_t* tags);

struct GfVariant {
  const char* name;  // "scalar", "ssse3", "avx2"
  bool available;    // true when this CPU can execute it
  GfMulAddFn mul_add;
  GfMulFn mul;
};

struct Crc32cVariant {
  const char* name;  // "scalar", "sse42"
  bool available;
  Crc32cFn fn;
};

struct Sha1Variant {
  const char* name;  // "scalar", "pipelined", "shani"
  bool available;
  Sha1BlocksFn fn;
};

struct Sha1LanesVariant {
  const char* name;   // "scalar", "avx512"
  bool available;
  std::size_t lanes;  // messages per call; the scalar reference runs one
  Sha1LanesFn fn;
};

struct HmergeVariant {
  const char* name;  // "scalar", "avx2", "avx512"
  bool available;
  HmergeFn fn;
};

// Variant lists, scalar reference first, fastest last.  Entries with
// available == false are compiled in but must not be called.
[[nodiscard]] std::span<const GfVariant> gf_variants() noexcept;
[[nodiscard]] std::span<const Crc32cVariant> crc32c_variants() noexcept;
[[nodiscard]] std::span<const Sha1Variant> sha1_variants() noexcept;
[[nodiscard]] std::span<const Sha1LanesVariant> sha1_lanes_variants() noexcept;
[[nodiscard]] std::span<const HmergeVariant> hmerge_variants() noexcept;

// The active kernel set: best available variant per kernel, or the scalar
// references when COLLREP_KERNELS=scalar.  Resolved on first use (thread
// safe), then a plain struct of function pointers.
struct Dispatch {
  GfMulAddFn gf_mul_add;
  GfMulFn gf_mul;
  Crc32cFn crc32c;
  Sha1BlocksFn sha1_blocks;
  Sha1LanesFn sha1_lanes;
  std::size_t sha1_lanes_width;  // 1: no SIMD lanes, hash one stream
  HmergeFn hmerge;
  const char* gf_name;
  const char* crc32c_name;
  const char* sha1_name;
  const char* sha1_lanes_name;
  const char* hmerge_name;
};

[[nodiscard]] const Dispatch& dispatch() noexcept;

}  // namespace collrep::kernels
