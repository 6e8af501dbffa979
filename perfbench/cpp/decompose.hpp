// The traced run's decomposition pass: the dump pipeline re-driven step by
// step through each module's public API, with a host-clock span around
// every call, plus the restore, recovery-audit and erasure-coding calls
// that the end-to-end operations make internally.
//
// It runs on the same input and communicator as the dump it follows, so
// its counts must equal that dump's own DumpStats; Decomposition::matches
// is the proof that the external spans measure the same work.
#pragma once

#include <cstdint>

#include "chunk/dataset.hpp"
#include "chunk/store.hpp"
#include "core/dump.hpp"
#include "hooks.hpp"
#include "simmpi/comm.hpp"

namespace perfbench {

struct Decomposition {
  // hash: SHA-1 alone, then core::local_dedup (hash + index).
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  double hash_only_s = 0.0;
  double local_dedup_s = 0.0;
  // core.fpset: leaf build, k-way merges inside reduce_kway, archive.
  double leaf_s = 0.0;
  double merge_s = 0.0;
  std::uint64_t merge_entries = 0;
  double archive_s = 0.0;
  // core.plan
  double plan_collective_s = 0.0;
  double plan_shuffle_s = 0.0;
  // chunk: ChunkStore put/get of every locally unique chunk.
  std::uint64_t store_ops = 0;
  double put_s = 0.0;
  double get_s = 0.0;
  // ec: ReedSolomon::encode over this rank's unique stream as 4+2 shards.
  std::uint64_t encode_bytes = 0;
  double encode_s = 0.0;
  // recover: core::allreduce_health, and the merges inside it.
  double health_allreduce_s = 0.0;
  double health_merge_s = 0.0;
  std::uint64_t health_entries = 0;
  // Counts that must reproduce the dump's DumpStats.
  std::uint32_t gview_entries = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t discarded_bytes = 0;
  // The pass's own cross-checks: SHA-1 alone equals local_dedup's
  // fingerprints, the view survives an archive round trip, and every
  // stored chunk reads back.
  bool consistent = true;

  [[nodiscard]] bool matches(const collrep::core::DumpStats& d) const noexcept {
    return consistent && gview_entries == d.gview_entries &&
           sent_bytes == d.sent_bytes && discarded_bytes == d.discarded_bytes;
  }
};

// Collective over `comm`; `store` is this rank's (alive) replication store.
[[nodiscard]] Decomposition decompose(collrep::simmpi::Comm& comm,
                                      const collrep::chunk::Dataset& image,
                                      const collrep::core::DumpConfig& config,
                                      int k,
                                      const collrep::chunk::ChunkStore& store,
                                      Tracer& tracer);

}  // namespace perfbench
