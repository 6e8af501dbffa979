// CRC-32C (Castagnoli) kernel variants: the byte-at-a-time reflected
// table reference and the SSE4.2 hardware instruction (CRC32 r64, r/m64 —
// 8 bytes per instruction, one dependency chain).
#include "kernels/kernels.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define COLLREP_KERNELS_CRC_X86 1
#endif

namespace collrep::kernels {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

std::uint32_t crc32c_scalar(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef COLLREP_KERNELS_CRC_X86

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t state = crc;
  // Peel to 8-byte alignment so the wide loads below stay on one line.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7u) != 0) {
    state = _mm_crc32_u8(static_cast<std::uint32_t>(state), *data++);
    --n;
  }
  while (n >= 32) {
    std::uint64_t q0;
    std::uint64_t q1;
    std::uint64_t q2;
    std::uint64_t q3;
    std::memcpy(&q0, data, 8);
    std::memcpy(&q1, data + 8, 8);
    std::memcpy(&q2, data + 16, 8);
    std::memcpy(&q3, data + 24, 8);
    state = _mm_crc32_u64(state, q0);
    state = _mm_crc32_u64(state, q1);
    state = _mm_crc32_u64(state, q2);
    state = _mm_crc32_u64(state, q3);
    data += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t q;
    std::memcpy(&q, data, 8);
    state = _mm_crc32_u64(state, q);
    data += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(state);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *data++);
    --n;
  }
  return crc32;
}

#endif  // COLLREP_KERNELS_CRC_X86

}  // namespace

std::span<const Crc32cVariant> crc32c_variants() noexcept {
  static const Crc32cVariant variants[] = {
      {"scalar", true, &crc32c_scalar},
#ifdef COLLREP_KERNELS_CRC_X86
      {"sse42", cpu_features().sse42, &crc32c_sse42},
#endif
  };
  return variants;
}

}  // namespace collrep::kernels
