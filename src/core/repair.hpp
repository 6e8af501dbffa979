// REPAIR: the dedup-aware replica scrub (paper §VI future work).
//
// After failures degrade the replication factor — a store died mid-dump, a
// node was replaced with a blank disk — repair_replicas() audits replica
// counts across all surviving stores with the same HMERGE-style reduction
// DUMP_OUTPUT uses for deduplication, counts naturally distributed
// duplicates toward K, and re-replicates only the shortfall through the
// one-sided window path.  The alternative (re-dumping the full dataset)
// ships every replica again; the scrub ships exactly the missing copies,
// which is the measurement bench/ablate_failures.cpp makes.
#pragma once

#include <cstdint>
#include <span>

#include "chunk/store.hpp"
#include "core/fingerprint_set.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

// Collective audit helper (also used by the degraded dump path): every
// rank contributes the contents of its own alive store (nothing when the
// store is failed) and all ranks return the merged global ReplicaHealthSet
// (core/fingerprint_set.hpp).  Merge compute is charged to the cost model
// like the dedup reduction.
[[nodiscard]] ReplicaHealthSet allreduce_health(simmpi::Comm& comm,
                                               const chunk::ChunkStore& store,
                                               int k);

struct RepairStats {
  int rank = 0;
  int k_requested = 0;
  int k_effective = 0;  // min(K, alive stores)
  int alive_stores = 0;

  // Per-rank: this rank's share of the audit and the exchange.
  std::uint64_t audited_chunks = 0;  // chunks scanned in this rank's store
  std::uint64_t audited_bytes = 0;
  std::uint64_t sent_chunks = 0;  // replica copies this rank shipped
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_chunks = 0;  // replica copies committed locally
  std::uint64_t recv_bytes = 0;

  // Global (identical on every rank).
  std::uint64_t global_chunks = 0;  // distinct fingerprints across stores
  std::uint64_t under_replicated_chunks = 0;  // fingerprints below K_eff
  std::uint64_t under_replicated_bytes = 0;   // their payload bytes (once)
  std::uint64_t resent_chunks = 0;  // replica copies shipped in total
  std::uint64_t resent_bytes = 0;   // payload bytes of those copies
  std::uint64_t lost_chunks = 0;  // manifest-referenced, zero replicas left
  std::uint64_t lost_bytes = 0;
  int k_achieved_min_before = 0;  // over manifest-referenced fingerprints
  int k_achieved_min_after = 0;

  double total_time_s = 0.0;  // aligned completion; identical on all ranks
};

// Collective replica scrub.  `stores[i]` is rank i's device (the same
// harness layout restore_input uses); each rank touches only its own
// entry plus the window exchange.  Ranks whose store is failed still
// participate in the collectives but contribute and receive nothing.
// Chunks whose replicas are all gone cannot be repaired and are reported
// as lost (restore of the affected datasets would throw ChunkLostError).
// Stats are published under "repair.*" in the attached MetricsRegistry.
[[nodiscard]] RepairStats repair_replicas(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores, int k);

}  // namespace collrep::core
