#include "hash/sha1.hpp"

#include <cstring>

#include "kernels/kernels.hpp"

namespace collrep::hash {

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  // The compression function is dispatched through src/kernels (SHA-NI
  // when the CPU has it, the block-pipelined scalar otherwise) and takes
  // a run of blocks per call, so bulk updates pay one indirection total.
  const kernels::Sha1BlocksFn compress = kernels::dispatch().sha1_blocks;
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ > 0) {
    const std::size_t need = kBlockBytes - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockBytes) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }

  const std::size_t full_blocks = (data.size() - offset) / kBlockBytes;
  if (full_blocks > 0) {
    compress(state_.data(), data.data() + offset, full_blocks);
    offset += full_blocks * kBlockBytes;
  }

  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

void Sha1::finish(std::span<std::uint8_t, kDigestBytes> digest) noexcept {
  // Padding (0x80, zero fill to 56 mod 64, 64-bit big-endian bit length)
  // spans one block, or two when fewer than 9 bytes are free after the
  // buffered tail; both are built locally and compressed in one call.
  std::uint8_t tail[2 * kBlockBytes] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ + 9 <= kBlockBytes ? 1 : 2;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t* len_bytes = tail + blocks * kBlockBytes - 8;
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  kernels::dispatch().sha1_blocks(state_.data(), tail, blocks);

  for (int i = 0; i < 5; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

std::array<std::uint8_t, Sha1::kDigestBytes> Sha1::digest(
    std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  std::array<std::uint8_t, kDigestBytes> out{};
  h.finish(out);
  return out;
}

}  // namespace collrep::hash
