// SHA-1 (RFC 3174).  Self-contained implementation used as the default
// crypto-grade fingerprint function, mirroring the paper's use of OpenSSL
// SHA1.  Supports one-shot, streaming and batched use.  The compression
// function dispatches through src/kernels (SHA-NI or block-pipelined
// scalar for one stream, SIMD lanes for a batch; COLLREP_KERNELS=scalar
// forces the reference rounds loop).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "hash/fingerprint.hpp"

namespace collrep::hash {

class Sha1 {
 public:
  static constexpr std::size_t kDigestBytes = 20;
  static constexpr std::size_t kBlockBytes = 64;

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  // Finalizes and writes the 20-byte digest; the object must be reset()
  // before reuse.
  void finish(std::span<std::uint8_t, kDigestBytes> digest) noexcept;

  static std::array<std::uint8_t, kDigestBytes> digest(
      std::span<const std::uint8_t> data) noexcept;

  // out[i] = digest(msgs[i]) for every i; out.size() must equal
  // msgs.size().  Equal-length messages go through the dispatched lanes
  // kernel a full set of lanes at a time, padding blocks included; the
  // rest take the single-stream path of digest().
  static void digest_many(std::span<const std::span<const std::uint8_t>> msgs,
                          std::span<Fingerprint> out) noexcept;

 private:
  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockBytes> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace collrep::hash
