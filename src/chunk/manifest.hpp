// Manifest: the recipe for rebuilding one rank's dataset from
// content-addressed chunks.  Written (and replicated) at dump time, read at
// restore time.  Entries are in buffer order; restoring concatenates the
// chunk payloads segment by segment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chunk/dataset.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace collrep::chunk {

struct ManifestEntry {
  hash::Fingerprint fp;
  std::uint32_t length = 0;
};
static_assert(std::is_trivially_copyable_v<ManifestEntry>);

struct Manifest {
  std::int32_t owner_rank = -1;
  std::uint64_t epoch = 0;  // checkpoint number; newest wins at restore
  std::vector<std::uint64_t> segment_sizes;
  std::vector<ManifestEntry> entries;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (auto s : segment_sizes) sum += s;
    return sum;
  }
};

// The one manifest builder (replication dump, EC dump, PFS flush):
// `buffer`'s segment sizes, then one entry per chunk of `chunker` (cut from
// `buffer`) with its fingerprint from `fps`, both in buffer order.
[[nodiscard]] inline Manifest make_manifest(
    std::int32_t owner_rank, std::uint64_t epoch, const Dataset& buffer,
    const Chunker& chunker, std::span<const hash::Fingerprint> fps) {
  Manifest m;
  m.owner_rank = owner_rank;
  m.epoch = epoch;
  m.segment_sizes.reserve(buffer.segment_count());
  for (std::size_t i = 0; i < buffer.segment_count(); ++i) {
    m.segment_sizes.push_back(buffer.segment(i).size());
  }
  m.entries.reserve(chunker.count());
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    m.entries.push_back(ManifestEntry{fps[i], chunker.ref(i).length});
  }
  return m;
}

inline void save(simmpi::OArchive& ar, const Manifest& m) {
  ar.put(m.owner_rank);
  ar.put(m.epoch);
  ar.put(m.segment_sizes);
  ar.put(m.entries);
}

inline void load(simmpi::IArchive& ar, Manifest& m) {
  ar.get(m.owner_rank);
  ar.get(m.epoch);
  ar.get(m.segment_sizes);
  ar.get(m.entries);
}

// Serialized size estimate used for replication byte accounting.
[[nodiscard]] inline std::uint64_t manifest_wire_bytes(const Manifest& m) {
  return sizeof m.owner_rank + sizeof m.epoch + 16 +
         m.segment_sizes.size() * sizeof(std::uint64_t) +
         m.entries.size() * sizeof(ManifestEntry);
}

}  // namespace collrep::chunk
