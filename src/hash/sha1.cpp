#include "hash/sha1.hpp"

#include <cstring>

#include "kernels/kernels.hpp"

namespace collrep::hash {

namespace {

constexpr std::array<std::uint32_t, 5> kInitialState = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

// Writes the padded end of a `total_bytes`-byte message whose final
// partial block is `tail` (under 64 bytes) into `out`: the tail, 0x80,
// zero fill to 56 mod 64 and the 64-bit big-endian bit length.  That is
// one block, or two when fewer than 9 bytes are free after the tail;
// returns the count.
std::size_t pad_final(std::span<const std::uint8_t> tail,
                      std::uint64_t total_bytes,
                      std::uint8_t (&out)[2 * Sha1::kBlockBytes]) noexcept {
  std::memset(out, 0, sizeof out);
  if (!tail.empty()) std::memcpy(out, tail.data(), tail.size());
  out[tail.size()] = 0x80;
  const std::size_t blocks = tail.size() + 9 <= Sha1::kBlockBytes ? 1 : 2;
  const std::uint64_t bit_len = total_bytes * 8;
  std::uint8_t* len_bytes = out + blocks * Sha1::kBlockBytes - 8;
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return blocks;
}

void store_digest(const std::uint32_t state[5],
                  std::span<std::uint8_t, Sha1::kDigestBytes> digest) noexcept {
  for (int i = 0; i < 5; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

// Up to kMaxSha1Lanes messages of one length, waiting for a lanes pass.
struct LaneGroup {
  std::size_t len = 0;
  std::size_t count = 0;
  std::array<std::size_t, kernels::kMaxSha1Lanes> index{};
};

// Hashes a full group (count == the dispatched lane width) in lanes: the
// whole blocks straight from the messages, then the padded ends.
void digest_lanes(const kernels::Dispatch& k,
                  std::span<const std::span<const std::uint8_t>> msgs,
                  const LaneGroup& g, std::span<Fingerprint> out) noexcept {
  std::uint32_t states[kernels::kMaxSha1Lanes][5];
  const std::uint8_t* ptrs[kernels::kMaxSha1Lanes];
  std::uint8_t ends[kernels::kMaxSha1Lanes][2 * Sha1::kBlockBytes];
  const std::size_t full = g.len / Sha1::kBlockBytes;
  for (std::size_t l = 0; l < g.count; ++l) {
    std::memcpy(states[l], kInitialState.data(), sizeof states[l]);
    ptrs[l] = msgs[g.index[l]].data();
  }
  k.sha1_lanes(states, ptrs, full);
  std::size_t end_blocks = 0;
  for (std::size_t l = 0; l < g.count; ++l) {
    end_blocks = pad_final(msgs[g.index[l]].subspan(full * Sha1::kBlockBytes),
                           g.len, ends[l]);
    ptrs[l] = ends[l];
  }
  k.sha1_lanes(states, ptrs, end_blocks);
  for (std::size_t l = 0; l < g.count; ++l) {
    store_digest(states[l], out[g.index[l]].bytes());
  }
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = kInitialState;
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
  // The padded end is built locally and compressed in one call.
  std::uint8_t end[2 * kBlockBytes];
  const std::size_t blocks =
      pad_final({buffer_.data(), buffered_}, total_bytes_, end);
  kernels::dispatch().sha1_blocks(state_.data(), end, blocks);
  store_digest(state_.data(), digest);
}

std::array<std::uint8_t, Sha1::kDigestBytes> Sha1::digest(
    std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  std::array<std::uint8_t, kDigestBytes> out{};
  h.finish(out);
  return out;
}

void Sha1::digest_many(std::span<const std::span<const std::uint8_t>> msgs,
                       std::span<Fingerprint> out) noexcept {
  const kernels::Dispatch& k = kernels::dispatch();
  const auto single = [&](std::size_t i) {
    out[i] = Fingerprint{std::span<const std::uint8_t>{digest(msgs[i])}};
  };
  const std::size_t lanes = k.sha1_lanes_width;
  if (lanes < 2) {
    for (std::size_t i = 0; i < msgs.size(); ++i) single(i);
    return;
  }
  // One open group for each of the first few distinct lengths (a fixed
  // chunker yields one or two); a group is hashed as soon as it is full.
  // Messages of other lengths, and what is left in the groups at the end,
  // take the single-stream path.
  std::array<LaneGroup, 4> groups;
  std::size_t open = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const std::size_t len = msgs[i].size();
    LaneGroup* g = nullptr;
    for (std::size_t j = 0; j < open && g == nullptr; ++j) {
      if (groups[j].len == len) g = &groups[j];
    }
    if (g == nullptr && open < groups.size()) {
      g = &groups[open++];
      g->len = len;
    }
    if (g == nullptr) {
      single(i);
      continue;
    }
    g->index[g->count++] = i;
    if (g->count == lanes) {
      digest_lanes(k, msgs, *g, out);
      g->count = 0;
    }
  }
  for (std::size_t j = 0; j < open; ++j) {
    for (std::size_t m = 0; m < groups[j].count; ++m) {
      single(groups[j].index[m]);
    }
  }
}

}  // namespace collrep::hash
