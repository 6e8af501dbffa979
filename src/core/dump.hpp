// The collective I/O write primitive of the paper: DUMP_OUTPUT(buffer, K).
//
// Dumper runs the full pipeline of §III-C on every rank:
//   1. chunk + fingerprint + local dedup                        (hash)
//   2. ALLREDUCE(HMERGE, LHashes) -> global view   [coll only]  (reduction)
//   3. load vectors, ALLGATHER, RANK_SHUFFLE, CALC_OFF          (planning)
//   4. single-sided chunk exchange through one window epoch     (exchange)
//   5. commit designated + received chunks and the manifest     (storage)
// and returns per-rank DumpStats with byte counters and the simulated-time
// phase breakdown.
#pragma once

#include <cstdint>
#include <string_view>

#include "chunk/cdc.hpp"
#include "chunk/dataset.hpp"
#include "chunk/store.hpp"
#include "core/replica_plan.hpp"
#include "hash/hasher.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "simtime/cluster.hpp"

namespace collrep::core {

enum class Strategy : std::uint8_t {
  kNoDedup = 0,     // full replication (paper baseline "no-dedup")
  kLocalDedup = 1,  // replicate locally deduplicated data ("local-dedup")
  kCollDedup = 2,   // this paper's approach ("coll-dedup")
};

[[nodiscard]] std::string_view to_string(Strategy s) noexcept;

enum class ChunkingMode : std::uint8_t {
  kFixed = 0,           // paper default: fixed chunks of chunk_bytes
  kContentDefined = 1,  // gear-hash CDC (related-work alternative)
};

struct DumpConfig {
  Strategy strategy = Strategy::kCollDedup;
  std::size_t chunk_bytes = 4096;       // paper: memory page size
  std::uint32_t threshold_f = 1u << 17; // paper: F = 2^17
  ChunkingMode chunking = ChunkingMode::kFixed;
  // CDC parameters (chunking == kContentDefined); cdc.max_bytes becomes
  // the window slot capacity in place of chunk_bytes.
  chunk::CdcParams cdc;
  hash::HashKind hash_kind = hash::HashKind::kSha1;
  // Load-aware partner selection (coll-dedup only; Fig. 4c/5c toggle).
  bool rank_shuffle = true;
  // Topology-aware repair pass (paper §VI future work): keep every rank's
  // K-1 partners off its own node so replicas survive node loss.
  bool node_aware_partners = false;
  // Steer top-up replicas away from already-designated partners; costs one
  // extra ALLGATHER (DESIGN.md §1, deviation 3).
  bool avoid_designated_targets = true;
  // false = metadata-only window puts (payload bytes are charged to the
  // cost model but not copied/kept) for large accounting-mode benches.
  bool payload_exchange = true;
  bool replicate_manifest = true;
  std::uint64_t epoch = 0;  // checkpoint number recorded in the manifest
};

struct DumpStats {
  int rank = 0;
  int k_requested = 0;
  int k_effective = 0;

  std::uint64_t dataset_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t local_unique_chunks = 0;
  std::uint64_t local_unique_bytes = 0;

  std::uint64_t owned_unique_bytes = 0;  // Fig. 3a contribution
  std::uint64_t discarded_chunks = 0;    // already replicated >= K times
  std::uint64_t discarded_bytes = 0;

  std::uint64_t sent_chunks = 0;
  std::uint64_t sent_bytes = 0;  // replication wire payload (Fig. 4b/5b)
  std::uint64_t recv_chunks = 0;
  std::uint64_t recv_bytes = 0;  // maximal receive size metric (Fig. 4c/5c)
  std::uint64_t stored_chunks = 0;
  std::uint64_t stored_bytes = 0;  // committed to the local device
  std::uint64_t manifest_bytes = 0;

  // -- degraded-mode bookkeeping (store failures mid-dump) -------------------
  // Whether this rank's own store survived the dump; when it did not, the
  // commits it would have performed are skipped (and counted below) but the
  // collective still completes on every rank.
  bool store_alive = true;
  // True when any rank's store was down: achieved replication is then
  // audited with one extra health allreduce and may fall short of K.
  bool degraded = false;
  // Minimum achieved replica count over this rank's chunks (== k_effective
  // for a healthy dump; 0 when a chunk has no surviving replica at all).
  int k_achieved_min = 0;
  std::uint64_t under_replicated_chunks = 0;  // distinct fps below K_eff
  std::uint64_t under_replicated_bytes = 0;
  std::uint64_t commit_skipped_chunks = 0;  // dropped: own store was down
  std::uint64_t commit_skipped_bytes = 0;

  std::uint32_t gview_entries = 0;
  std::uint32_t skip_fallbacks = 0;
  // Global count of (rank, partner) pairs sharing a node (0 when the
  // node-aware repair succeeds; identical on all ranks).
  std::uint32_t same_node_partners = 0;

  sim::PhaseBreakdown phases;
  double total_time_s = 0.0;  // aligned completion; identical on all ranks
};

// Global roll-up (valid on every rank; computed with collectives).
struct GlobalDumpStats {
  std::uint64_t total_dataset_bytes = 0;
  std::uint64_t total_unique_bytes = 0;  // Fig. 3a "size of unique content"
  std::uint64_t total_sent_bytes = 0;
  std::uint64_t total_stored_bytes = 0;
  std::uint64_t max_sent_bytes = 0;
  std::uint64_t max_recv_bytes = 0;
  double avg_sent_bytes = 0.0;
  double completion_time_s = 0.0;
  // Degraded-mode roll-up: worst achieved replication across all ranks'
  // chunks and the total payload bytes that fell short of K_eff.
  int min_k_achieved = 0;
  std::uint64_t total_under_replicated_bytes = 0;
  sim::PhaseBreakdown max_phases;
};

class Dumper {
 public:
  // `store` is this rank's local storage device.  The Dumper keeps
  // references; both must outlive it.
  Dumper(simmpi::Comm& comm, chunk::ChunkStore& store, DumpConfig config);

  // Collective; every rank must call with the same K.  Survives store
  // failures mid-dump: when a rank's store is down the collective still
  // completes on every rank, the dead store's commits are skipped (counted
  // in commit_skipped_*), and one extra health allreduce audits the
  // achieved replication (k_achieved_min, under_replicated_*) so callers
  // can decide between accepting the degraded checkpoint, retrying, or
  // running core::repair_replicas (see ftrt::DegradedPolicy).
  DumpStats dump_output(const chunk::Dataset& buffer, int k);

  [[nodiscard]] const DumpConfig& config() const noexcept { return config_; }

  // Collective roll-up of per-rank stats.
  static GlobalDumpStats collect(simmpi::Comm& comm, const DumpStats& mine);

 private:
  simmpi::Comm& comm_;
  chunk::ChunkStore& store_;
  DumpConfig config_;
};

// The global view of §III-B, the one reduction both dumps run
// (collective): a BoundedFpSet leaf of this rank's locally unique
// fingerprints (F = `threshold_f`, at most `k` designated ranks each),
// HMERGEd up a k-way reduction tree with each merge charged, pruned of
// singletons at the root and broadcast.  The caller charges the leaf
// build or not: Dumper does, EcDumper does not.
[[nodiscard]] BoundedFpSet global_view(simmpi::Comm& comm,
                                       const LocalDedupResult& local,
                                       std::uint32_t threshold_f, int k);

// Collective (one allgather): the sum of `bytes` over the ranks on this
// rank's node, which is what the node's one shared HDD moves.  Ranks map
// to nodes through their world rank, so the tally holds after a shrink.
[[nodiscard]] std::uint64_t node_device_bytes(simmpi::Comm& comm,
                                              std::uint64_t bytes);

}  // namespace collrep::core
