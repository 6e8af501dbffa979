#include "kernels/kernels.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace collrep::kernels {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.ssse3 = (ecx & bit_SSSE3) != 0;
    f.sse42 = (ecx & bit_SSE4_2) != 0;
    f.pclmul = (ecx & bit_PCLMUL) != 0;
    // AVX2 additionally needs the OS to save YMM state (OSXSAVE + XCR0);
    // AVX-512 needs the opmask + ZMM state bits on top of that.
    const bool osxsave = (ecx & bit_OSXSAVE) != 0;
    const bool avx = (ecx & bit_AVX) != 0;
    bool ymm_enabled = false;
    bool zmm_enabled = false;
    if (osxsave && avx) {
      std::uint32_t xcr0_lo = 0;
      std::uint32_t xcr0_hi = 0;
      __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      ymm_enabled = (xcr0_lo & 0x6u) == 0x6u;  // XMM + YMM state saved
      zmm_enabled = (xcr0_lo & 0xE6u) == 0xE6u;  // + opmask/ZMM_Hi256/Hi16
    }
    unsigned eax7 = 0;
    unsigned ebx7 = 0;
    unsigned ecx7 = 0;
    unsigned edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0) {
      f.avx2 = ymm_enabled && (ebx7 & bit_AVX2) != 0;
      f.sha_ni = (ebx7 & bit_SHA) != 0;
      const unsigned avx512_bits =
          bit_AVX512F | bit_AVX512BW | bit_AVX512DQ | bit_AVX512VL;
      f.avx512 = zmm_enabled && (ebx7 & avx512_bits) == avx512_bits;
      f.vpclmulqdq = f.avx512 && f.pclmul && (ecx7 & bit_VPCLMULQDQ) != 0;
    }
  }
#endif
  return f;
}

Dispatch resolve() noexcept {
  Dispatch d{};
  const char* env = std::getenv("COLLREP_KERNELS");
  const bool force_scalar = env != nullptr && std::strcmp(env, "scalar") == 0;

  const auto gf = gf_variants();
  const auto crc = crc32c_variants();
  const auto sha = sha1_variants();
  const auto lanes = sha1_lanes_variants();
  const auto hm = hmerge_variants();

  const auto pick = [force_scalar](const auto& variants) -> std::size_t {
    if (force_scalar) return 0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      if (variants[i].available) best = i;
    }
    return best;
  };

  const auto& g = gf[pick(gf)];
  d.gf_mul_add = g.mul_add;
  d.gf_mul = g.mul;
  d.gf_name = g.name;

  const auto& c = crc[pick(crc)];
  d.crc32c = c.fn;
  d.crc32c_name = c.name;

  const auto& s = sha[pick(sha)];
  d.sha1_blocks = s.fn;
  d.sha1_name = s.name;

  const auto& l = lanes[pick(lanes)];
  d.sha1_lanes = l.fn;
  d.sha1_lanes_width = l.lanes;
  d.sha1_lanes_name = l.name;

  const auto& h = hm[pick(hm)];
  d.hmerge = h.fn;
  d.hmerge_name = h.name;
  return d;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures f = probe();
  return f;
}

const Dispatch& dispatch() noexcept {
  static const Dispatch d = resolve();
  return d;
}

}  // namespace collrep::kernels
