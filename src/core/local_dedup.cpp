#include "core/local_dedup.hpp"

#include <bit>
#include <span>

namespace collrep::core {

LocalDedupResult local_dedup(const chunk::Chunker& chunker,
                             const hash::ChunkHasher& hasher) {
  const std::size_t n = chunker.count();
  std::vector<std::span<const std::uint8_t>> chunks(n);
  for (std::size_t i = 0; i < n; ++i) chunks[i] = chunker.bytes(i);

  LocalDedupResult out;
  out.chunk_fps.resize(n);
  hasher.fingerprint_many(chunks, out.chunk_fps);

  // First occurrences through a flat open-addressing table, linear
  // probing, at most half full: a slot holds a chunk index + 1, 0 is
  // empty.  Fingerprints are uniform, so their prefix is the hash.
  std::vector<std::uint32_t> slots(std::bit_ceil(2 * n));
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const hash::Fingerprint& fp = out.chunk_fps[i];
    out.total_bytes += chunks[i].size();
    std::size_t s = hash::FingerprintHash{}(fp) & mask;
    while (slots[s] != 0 && out.chunk_fps[slots[s] - 1] != fp) {
      s = (s + 1) & mask;
    }
    if (slots[s] == 0) {
      slots[s] = static_cast<std::uint32_t>(i + 1);
      out.unique_chunks.push_back(static_cast<std::uint32_t>(i));
      out.unique_bytes += chunks[i].size();
    }
  }
  return out;
}

}  // namespace collrep::core
