// Phase 1 of the paper's two-phase deduplication: each process removes the
// duplicates *within its own dataset*, producing the locally unique
// fingerprint set (LHashes) that enters the collective reduction.
#pragma once

#include <cstdint>
#include <vector>

#include "chunk/dataset.hpp"
#include "hash/hasher.hpp"

namespace collrep::core {

struct LocalDedupResult {
  // Fingerprint of every chunk, in buffer order (manifest construction).
  std::vector<hash::Fingerprint> chunk_fps;
  // Chunk index of the first occurrence of each unique fingerprint, in
  // order of first appearance.
  std::vector<std::uint32_t> unique_chunks;
  std::uint64_t unique_bytes = 0;
  std::uint64_t total_bytes = 0;
};

// Fingerprints every chunk in one ChunkHasher::fingerprint_many call, then
// keeps each fingerprint's first occurrence.
[[nodiscard]] LocalDedupResult local_dedup(const chunk::Chunker& chunker,
                                           const hash::ChunkHasher& hasher);

}  // namespace collrep::core
