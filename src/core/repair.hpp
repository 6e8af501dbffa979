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
#include <cstring>
#include <span>
#include <vector>

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

// Record layout of every window exchange (DUMP_OUTPUT, the repair scrub,
// the recovery rebalance): the fingerprint, the u32 payload length, then
// the payload when the exchange carries payloads.
inline constexpr std::size_t kRecordHeaderBytes =
    hash::Fingerprint::kBytes + sizeof(std::uint32_t);

// Writes one record at `out`: `fp`, `length`, then `payload` (empty when
// the exchange carries no payloads).
inline void encode_record(std::uint8_t* out, const hash::Fingerprint& fp,
                          std::uint32_t length,
                          std::span<const std::uint8_t> payload) {
  std::memcpy(out, fp.bytes().data(), hash::Fingerprint::kBytes);
  std::memcpy(out + hash::Fingerprint::kBytes, &length, sizeof length);
  if (!payload.empty()) {
    std::memcpy(out + kRecordHeaderBytes, payload.data(), payload.size());
  }
}

struct Record {
  hash::Fingerprint fp;
  std::uint32_t length = 0;
  const std::uint8_t* payload = nullptr;  // `length` bytes, if carried
};

// Reads back the record encode_record wrote at `rec`.
[[nodiscard]] inline Record decode_record(const std::uint8_t* rec) {
  Record r{hash::Fingerprint{
               std::span<const std::uint8_t>{rec, hash::Fingerprint::kBytes}},
           0, rec + kRecordHeaderBytes};
  std::memcpy(&r.length, rec + hash::Fingerprint::kBytes, sizeof r.length);
  return r;
}

// Collective (one allgather): the ranks whose store is alive, ascending.
[[nodiscard]] std::vector<int> alive_store_ranks(
    simmpi::Comm& comm, const chunk::ChunkStore& store);

// One replica copy of a shortfall top-up.
struct TopUpSend {
  hash::Fingerprint fp;
  std::uint32_t length = 0;
  int sender = 0;
  int receiver = 0;
  std::uint64_t offset = 0;  // byte offset in the receiver's window
};

// The shortfall top-up that repair_replicas and recover_world ship.  Every
// rank computes it identically from the merged health set, so window
// offsets need no extra communication (the repair analogue of CALC_OFF).
struct TopUpPlan {
  bool payload_mode = false;  // records carry payloads (sizes the windows)
  std::vector<TopUpSend> sends;
  std::vector<std::uint64_t> window_bytes;  // per receiving rank
  std::uint64_t satisfied_chunks = 0;  // already at K_eff: nothing ships
  std::uint64_t satisfied_bytes = 0;
  std::uint64_t deficit_chunks = 0;  // below K_eff
  std::uint64_t deficit_bytes = 0;   // their payload bytes, once each
  std::uint64_t shipped_bytes = 0;   // payload bytes over all sends
};

// Deficits in fingerprint order (the set's own order), receivers by a
// rotating cursor over the alive non-holders, senders round-robin over the
// surviving holders, byte offsets per receiver window (`nranks` windows;
// records carry payloads when `payload_mode`).
[[nodiscard]] TopUpPlan plan_top_up(const ReplicaHealthSet& health,
                                    std::span<const int> alive_ranks,
                                    int nranks, int keff, bool payload_mode);

struct TopUpTraffic {
  std::uint64_t sent_chunks = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_chunks = 0;  // committed to this rank's store
  std::uint64_t recv_bytes = 0;
};

// Collective: ships this rank's share of `plan` through one window epoch,
// fires `mid_point` after the puts and before the fence (where DUMP_OUTPUT
// fires dump.exchange.mid), commits the received records unless `store`
// is failed, and charges them at memory plus HDD write rate.  Records
// carry payloads exactly when the plan's windows were sized for them.
TopUpTraffic exchange_top_up(simmpi::Comm& comm, chunk::ChunkStore& store,
                             const TopUpPlan& plan, const char* mid_point);

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
