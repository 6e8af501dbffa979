// HMERGE kernel variants: set-merge planning over sorted 64-bit keys.
//
// The merge of the replica-health audit (ReplicaHealthSet::merge_from,
// run by core::allreduce_health for recovery, the repair scrub and the
// degraded-dump audit) walks two fingerprint-sorted entry arrays.  The
// dump's own reduction (BoundedFpSet::merge_many) is a scalar k-way
// min-scan and never calls this kernel.  The kernel works on the order-
// preserving 64-bit prefix keys only and emits a tag byte per merged
// output (take-A / take-B / match); the caller turns take-runs into bulk
// copies and touches full entries only on matches.
//
// Three regimes matter and the AVX2 variant accelerates all of them,
// picked block by block with a single combined rarely-taken branch:
//   disjoint runs   — one side wins repeatedly.  Two scalar compares
//                     (this block's last key vs the other side's head)
//                     detect the run, then galloping (exponential probe
//                     + binary search) finds its end and a memset emits
//                     the whole run of identical tags.  Range-partitioned
//                     inputs merge at memory speed through this path.
//   duplicate runs  — both heads advance in lockstep (common at high
//                     overlap).  A vector equality check (2×VPCMPEQQ)
//                     commits a full block of match tags at once.
//   interleaved     — neither run test fires: a 16-iteration branchless
//                     burst.  Each iteration computes its tag
//                     arithmetically (tag = 2*eq + (b<a)) and advances
//                     both cursors by flag arithmetic, so uniformly
//                     random interleave — which is exactly what
//                     fingerprint-derived keys look like — costs zero
//                     branch mispredicts.  The block precondition (≥16
//                     keys left per side) bounds the burst's consumption.
//
// A compare/shuffle bitonic merge network (the textbook SIMD merge) was
// implemented and benchmarked first: its cross-lane permute chain
// serializes on 3-cycle shuffles and measures ~45% below the branchless
// burst on uniformly interleaved keys, even multi-streamed.  The burst
// won on measurement; the vector units still carry the duplicate-run
// detection.
//
// A single stream is still latency-bound: every burst waits on the
// previous burst's cursor advance.  Large merges are therefore split at
// merge-path diagonals into kSegments independent segments whose block
// steps are issued round-robin from one loop — the out-of-order core
// overlaps the segments' dependency chains, which is where the bulk of
// the random-interleave speedup comes from.  Each segment writes tags at
// its worst-case (no-match) offset; one memmove per segment compacts the
// runs afterwards.
#include "kernels/kernels.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define COLLREP_KERNELS_X86 1
#endif

namespace collrep::kernels {

namespace {

// First index in [lo, hi) with arr[idx] >= key (arr ascending).  The
// exponential probe keeps short runs cheap while long disjoint runs cost
// O(log run) instead of O(run).
std::size_t gallop_lower_bound(const std::uint64_t* arr, std::size_t lo,
                               std::size_t hi, std::uint64_t key) noexcept {
  std::size_t bound = 1;
  while (lo + bound < hi && arr[lo + bound] < key) bound <<= 1;
  const std::uint64_t* first = arr + lo + (bound >> 1);
  const std::uint64_t* last = arr + std::min(lo + bound, hi);
  return static_cast<std::size_t>(std::lower_bound(first, last, key) - arr);
}

// One segment of the merge: half-open cursor/end pairs into each input,
// the absolute tag-write position, and the match count.
struct MergeCursor {
  std::size_t i;
  std::size_t ea;
  std::size_t j;
  std::size_t eb;
  std::size_t o;
  std::size_t m;
};

// Branchless two-pointer for sub-block tails, then bulk-tag leftovers.
void finish_span(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint8_t* tags, MergeCursor& s) noexcept {
  while (s.i < s.ea && s.j < s.eb) {
    const std::uint64_t x = a[s.i];
    const std::uint64_t y = b[s.j];
    const bool eq = x == y;
    const bool lt = x < y;
    tags[s.o++] = eq ? kHmergeMatch : (lt ? kHmergeTakeA : kHmergeTakeB);
    s.i += static_cast<std::size_t>(lt | eq);
    s.j += static_cast<std::size_t>(!lt);
    s.m += static_cast<std::size_t>(eq);
  }
  if (s.i < s.ea) {
    std::memset(tags + s.o, kHmergeTakeA, s.ea - s.i);
    s.o += s.ea - s.i;
    s.i = s.ea;
  }
  if (s.j < s.eb) {
    std::memset(tags + s.o, kHmergeTakeB, s.eb - s.j);
    s.o += s.eb - s.j;
    s.j = s.eb;
  }
}

HmergeResult hmerge_scalar(const std::uint64_t* a, std::size_t na,
                           const std::uint64_t* b, std::size_t nb,
                           std::uint8_t* tags) noexcept {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t o = 0;
  std::size_t m = 0;
  while (i < na && j < nb) {
    const std::uint64_t x = a[i];
    const std::uint64_t y = b[j];
    if (x == y) {
      tags[o++] = kHmergeMatch;
      ++i;
      ++j;
      ++m;
    } else if (x < y) {
      tags[o++] = kHmergeTakeA;
      ++i;
    } else {
      tags[o++] = kHmergeTakeB;
      ++j;
    }
  }
  if (i < na) {
    std::memset(tags + o, kHmergeTakeA, na - i);
    o += na - i;
  }
  if (j < nb) {
    std::memset(tags + o, kHmergeTakeB, nb - j);
    o += nb - j;
  }
  return {o, m};
}

#ifdef COLLREP_KERNELS_X86

// Index pair (ia, jb) with ia + jb == d on the merge path: every element
// of a[0..ia) and b[0..jb) sorts at or before every element of the
// suffixes.  Standard two-array diagonal binary search.
struct SegmentSplit {
  std::size_t ia;
  std::size_t jb;
};

SegmentSplit merge_path_split(const std::uint64_t* a, std::size_t na,
                              const std::uint64_t* b, std::size_t nb,
                              std::size_t d) noexcept {
  std::size_t lo = d > nb ? d - nb : 0;
  std::size_t hi = std::min(d, na);
  while (lo < hi) {
    const std::size_t ia = lo + (hi - lo) / 2;
    if (a[ia] < b[d - ia - 1]) {
      lo = ia + 1;
    } else {
      hi = ia;
    }
  }
  return {lo, d - lo};
}

// Segment boundary with the equal-pair adjustment: if a cross-input
// equal pair (a[ia-1] == b[jb] or b[jb-1] == a[ia]) straddles the cut,
// pull one side back one element so the pair lands in a single segment
// and gets tagged as one kHmergeMatch.  At most one clause fires: both
// firing would need two distinct cross-input equal pairs interlocking at
// one diagonal, impossible with strictly ascending per-input keys.
SegmentSplit segment_bounds(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::size_t d) noexcept {
  SegmentSplit s = merge_path_split(a, na, b, nb, d);
  if (s.ia > 0 && s.jb < nb && a[s.ia - 1] == b[s.jb]) {
    --s.ia;
  } else if (s.jb > 0 && s.ia < na && b[s.jb - 1] == a[s.ia]) {
    --s.jb;
  }
  return s;
}

// Number of independent merge-path segments stepped round-robin, and the
// minimum total key count that justifies splitting.  6 streams measured
// fastest (4 leaves latency on the table, 8 regresses on register
// pressure); below the threshold the split/compact overhead dominates.
constexpr int kSegments = 6;
constexpr std::size_t kSegmentThreshold = 4096;

// One block step of a segment: regime selection + 16-tag burst.  Returns
// false once either side has fewer than 16 keys left (caller drains the
// tail with finish_span).
__attribute__((target("avx2"), always_inline)) inline bool step_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::uint8_t* tags,
    MergeCursor& s) noexcept {
  if (s.i + 16 > s.ea || s.j + 16 > s.eb) {
    return false;
  }
  // Disjoint-run probes: one scalar compare each way.
  const bool skip_a = a[s.i + 15] < b[s.j];
  const bool skip_b = b[s.j + 15] < a[s.i];
  // Duplicate-run probe: next 4 keys pairwise equal?  (4 lanes, not 8:
  // the probe runs every block, so its cost is paid on every interleaved
  // burst — the gallop below extends a confirmed run 8 keys at a time.)
  const __m256i va0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + s.i));
  const __m256i vb0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + s.j));
  const int eq4 =
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(va0, vb0)));
  if (static_cast<int>(skip_a) | static_cast<int>(skip_b) |
      static_cast<int>(eq4 == 0xF)) {
    if (skip_a) {
      const std::size_t e = gallop_lower_bound(a, s.i + 16, s.ea, b[s.j]);
      std::memset(tags + s.o, kHmergeTakeA, e - s.i);
      s.o += e - s.i;
      s.i = e;
      return true;
    }
    if (skip_b) {
      const std::size_t e = gallop_lower_bound(b, s.j + 16, s.eb, a[s.i]);
      std::memset(tags + s.o, kHmergeTakeB, e - s.j);
      s.o += e - s.j;
      s.j = e;
      return true;
    }
    // Duplicate-run gallop: extend the confirmed equal run while whole
    // 8-key blocks stay pairwise equal, then commit one memset.  On
    // identical replicas this loop is perfectly predicted and merges at
    // multiple G entries/s.
    std::size_t e = s.i + 4;
    while (e + 8 <= s.ea && s.j + (e - s.i) + 8 <= s.eb) {
      const __m256i wa0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + e));
      const __m256i wb0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + s.j + (e - s.i)));
      const __m256i wa1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + e + 4));
      const __m256i wb1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + s.j + (e - s.i) + 4));
      const int w =
          _mm256_movemask_pd(
              _mm256_castsi256_pd(_mm256_cmpeq_epi64(wa0, wb0))) |
          (_mm256_movemask_pd(
               _mm256_castsi256_pd(_mm256_cmpeq_epi64(wa1, wb1)))
           << 4);
      if (w != 0xFF) {
        break;
      }
      e += 8;
    }
    const std::size_t len = e - s.i;
    std::memset(tags + s.o, kHmergeMatch, len);
    s.o += len;
    s.i = e;
    s.j += len;
    s.m += len;
    return true;
  }
  // Interleaved burst: 16 branchless tag commits.  The arithmetic tag
  // form is load-bearing — a ternary here compiles to a data-dependent
  // branch that mispredicts on scattered matches and halves throughput.
  // The match count is not accumulated per iteration: each iteration
  // emits one tag and advances i+j by 1 (take) or 2 (match), so the
  // burst's matches equal (Δi + Δj) − 16.
  std::size_t i = s.i;
  std::size_t j = s.j;
  std::size_t o = s.o;
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) {
    const std::uint64_t x = a[i];
    const std::uint64_t y = b[j];
    const bool eq = x == y;
    const bool gt = y < x;
    tags[o++] = static_cast<std::uint8_t>(2u * eq + gt);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(x >= y);
  }
  s.m += (i - s.i) + (j - s.j) - 16;
  s.i = i;
  s.j = j;
  s.o = o;
  return true;
}

// The driver: split into segments, step them round-robin, drain, then
// compact each segment's tag run down to its final offset.  step_avx2 is
// always_inline and shares this function's target, so every block step
// lands inline in the round-robin loop.
__attribute__((target("avx2"))) HmergeResult hmerge_avx2(
    const std::uint64_t* a, std::size_t na, const std::uint64_t* b,
    std::size_t nb, std::uint8_t* tags) noexcept {
  const std::size_t total = na + nb;
  if (total < kSegmentThreshold) {
    MergeCursor s{0, na, 0, nb, 0, 0};
    while (step_avx2(a, b, tags, s)) {
    }
    finish_span(a, b, tags, s);
    return {s.o, s.m};
  }
  MergeCursor seg[kSegments];
  std::size_t base[kSegments];
  SegmentSplit prev{0, 0};
  for (int k = 0; k < kSegments; ++k) {
    const SegmentSplit next =
        k == kSegments - 1
            ? SegmentSplit{na, nb}
            : segment_bounds(
                  a, na, b, nb,
                  total * static_cast<std::size_t>(k + 1) / kSegments);
    base[k] = prev.ia + prev.jb;  // worst-case (no-match) tag offset
    seg[k] = MergeCursor{prev.ia, next.ia, prev.jb, next.jb, base[k], 0};
    prev = next;
  }
  for (;;) {
    bool more = true;
#pragma GCC unroll 6
    for (auto& s : seg) {
      more &= step_avx2(a, b, tags, s);
    }
    if (!more) {
      break;
    }
  }
  for (auto& s : seg) {
    while (step_avx2(a, b, tags, s)) {
    }
    finish_span(a, b, tags, s);
  }
  std::size_t out = seg[0].o;
  std::size_t m = seg[0].m;
  for (int k = 1; k < kSegments; ++k) {
    const std::size_t len = seg[k].o - base[k];
    if (out != base[k]) {
      std::memmove(tags + out, tags + base[k], len);
    }
    out += len;
    m += seg[k].m;
  }
  return {out, m};
}

#endif  // COLLREP_KERNELS_X86

}  // namespace

std::span<const HmergeVariant> hmerge_variants() noexcept {
  static const HmergeVariant variants[] = {
      {"scalar", true, &hmerge_scalar},
#ifdef COLLREP_KERNELS_X86
      {"avx2", cpu_features().avx2, &hmerge_avx2},
#endif
  };
  return variants;
}

}  // namespace collrep::kernels
