// GF(2^8) arithmetic for the Reed-Solomon erasure codes (paper §VI future
// work: "combine our approach with ... erasure codes, which would act as a
// replacement for replication").
//
// Field: polynomial basis modulo x^8 + x^4 + x^3 + x^2 + 1 (0x11D, the
// AES-unrelated classic RS polynomial).  Multiplication uses log/exp
// tables built at compile time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace collrep::ec {

namespace detail {

struct Gf256Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled to skip the mod-255
};

constexpr Gf256Tables make_tables() {
  Gf256Tables t{};
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    t.exp[static_cast<std::size_t>(i) + 255] = static_cast<std::uint8_t>(x);
    t.log[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11D;
  }
  t.exp[510] = t.exp[0];
  t.exp[511] = t.exp[1];
  return t;
}

inline constexpr Gf256Tables kTables = make_tables();

}  // namespace detail

constexpr std::uint8_t gf_add(std::uint8_t a, std::uint8_t b) noexcept {
  return a ^ b;  // characteristic 2: addition == subtraction == XOR
}

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return detail::kTables.exp[static_cast<std::size_t>(
      detail::kTables.log[a] + detail::kTables.log[b])];
}

constexpr std::uint8_t gf_inv(std::uint8_t a) noexcept {
  // inv(0) is undefined; callers guard.  a^-1 = exp(255 - log(a)).
  return detail::kTables.exp[static_cast<std::size_t>(
      255 - detail::kTables.log[a])];
}

// out[i] ^= coeff * in[i] — the hot loop of encoding and decoding.
// Dispatched through src/kernels (AVX2/SSSE3 split-nibble tables when the
// CPU has them, scalar table fallback otherwise).
void gf_mul_add(std::span<std::uint8_t> out, std::span<const std::uint8_t> in,
                std::uint8_t coeff) noexcept;

// out[i] = coeff * in[i] — overwrite form (first row of an encode
// accumulation, saving the zero-fill + XOR pass).  Same dispatch.
void gf_mul(std::span<std::uint8_t> out, std::span<const std::uint8_t> in,
            std::uint8_t coeff) noexcept;

}  // namespace collrep::ec
