#include "recover/service.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "core/repair.hpp"
#include "simmpi/collectives.hpp"

namespace collrep::recover {

namespace {

// Lost-chunk evidence, packed so the union allreduce moves one map:
// owner (post-shrink dense rank) in the high half, length in the low.
[[nodiscard]] std::uint64_t pack_owner_length(int owner,
                                              std::uint32_t length) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(owner))
          << 32) |
         length;
}

}  // namespace

RecoveryService::RecoveryService(std::span<chunk::ChunkStore* const> stores,
                                 RecoveryConfig config)
    : stores_(stores.begin(), stores.end()), config_(config) {
  if (config_.replication < 1) {
    throw std::invalid_argument("recover: replication must be >= 1");
  }
}

RecoveryStats RecoveryService::recover_world(simmpi::Comm& comm) const {
  // ---- Agreement: shrink the world ----------------------------------------
  // Comm::shrink() parks every survivor, drains dead ranks' mailboxes,
  // charges the agreement cost, and returns with the communicator densely
  // re-ranked.  Everything below runs in the post-shrink world.
  const simmpi::Comm::ShrinkInfo info = comm.shrink();
  const int n = comm.size();
  const int rank = comm.rank();
  if (static_cast<int>(stores_.size()) != comm.world_size()) {
    throw std::invalid_argument(
        "recover: stores span must have one entry per world rank");
  }
  chunk::ChunkStore* own = stores_[static_cast<std::size_t>(comm.world_rank())];
  if (own == nullptr) {
    throw std::invalid_argument("recover: surviving rank has no store");
  }
  const auto& cluster = comm.cluster();

  const double t0 = info.agreement_start_s;
  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseBegin, comm.clock().now(), "recover",
             info.dead.size(), static_cast<std::uint64_t>(n));
  }

  RecoveryStats stats;
  stats.shrink_epoch = info.epoch;
  stats.deaths = static_cast<int>(info.dead.size());
  stats.world_size_after = n;
  stats.k_requested = config_.replication;
  stats.agreement_time_s = comm.clock().now() - t0;

  // ---- Contain the dead devices -------------------------------------------
  // One writer marks the dead ranks' stores failed (a dead node's device is
  // gone); the barrier publishes the flags to every survivor.
  if (rank == 0) {
    for (const auto& d : info.dead) {
      if (chunk::ChunkStore* s =
              stores_[static_cast<std::size_t>(d.world_rank)]) {
        s->fail();
      }
    }
  }
  comm.fault_point("recover.pre");
  comm.barrier();

  // ---- Orphan adoption (read-only phase) ----------------------------------
  // Manifests are still keyed by the pre-shrink dense numbering, so lookups
  // go through a span built from prev_group_world.  Orphan i is adopted by
  // survivor i % n — deterministic, no negotiation.  All cross-store reads
  // happen here, before the re-keying below mutates any store.
  std::vector<chunk::ChunkStore*> prev_stores;
  prev_stores.reserve(info.prev_group_world.size());
  for (const int w : info.prev_group_world) {
    prev_stores.push_back(stores_[static_cast<std::size_t>(w)]);
  }
  const bool payload_mode = own->mode() == chunk::StoreMode::kPayload;

  if (config_.adopt_orphans) {
    for (std::size_t i = 0; i < info.dead.size(); ++i) {
      const auto& d = info.dead[i];
      if (static_cast<int>(i % static_cast<std::size_t>(n)) != rank) continue;
      OrphanData od;
      od.world_rank = d.world_rank;
      od.prev_rank = d.prev_rank;
      if (payload_mode) {
        core::RestoreResult r = core::restore_rank(prev_stores, d.prev_rank);
        od.bytes = r.bytes_from_own_store + r.bytes_from_remote_stores;
        od.segments = std::move(r.segments);
        // Local replicas stream off the adopter's HDD; remote ones
        // additionally traverse the network (the restore_input cost model).
        comm.charge(static_cast<double>(r.bytes_from_own_store) /
                    cluster.hdd_read_bps);
        comm.charge(static_cast<double>(r.bytes_from_remote_stores) *
                    (1.0 / cluster.hdd_read_bps +
                     1.0 / cluster.net_bandwidth_bps));
      } else {
        const core::StoreScan scan =
            core::newest_manifest(prev_stores, d.prev_rank);
        if (scan.manifest == nullptr) {
          throw core::ManifestLostError(d.prev_rank, scan.consulted,
                                        scan.failed);
        }
        od.bytes = scan.manifest->total_bytes();
        comm.charge(static_cast<double>(od.bytes) / cluster.hdd_read_bps);
      }
      stats.orphans_adopted += 1;
      stats.orphan_bytes += od.bytes;
      stats.orphans.push_back(std::move(od));
    }
  }
  comm.barrier();  // adoption reads other stores; re-keying mutates them

  // ---- Re-key surviving manifests under the new dense numbering -----------
  // Each rank rewrites only its own store.  The ascending scan is collision
  // free: old key j maps to the number of survivors among 0..j-1, which is
  // <= j and strictly increasing over survivors, so every destination slot
  // was vacated at an earlier step.  Dead owners' manifests are dropped —
  // their datasets were handed to adopters above.
  if (!own->failed()) {
    std::vector<int> dead_prev;
    dead_prev.reserve(info.dead.size());
    for (const auto& d : info.dead) dead_prev.push_back(d.prev_rank);
    std::sort(dead_prev.begin(), dead_prev.end());
    const int prev_n = static_cast<int>(info.prev_group_world.size());
    int next = 0;
    for (int j = 0; j < prev_n; ++j) {
      std::optional<chunk::Manifest> m = own->take_manifest(j);
      if (std::binary_search(dead_prev.begin(), dead_prev.end(), j)) continue;
      const int nj = next++;
      if (!m.has_value()) continue;
      m->owner_rank = nj;
      own->put_manifest(std::move(*m));
    }
  }

  // ---- Dedup-aware rebalance ----------------------------------------------
  // Same audit DUMP_OUTPUT uses for deduplication: merge per-store chunk
  // indexes into a global replica-health map.  Fingerprints already at
  // K_eff are satisfied by naturally distributed duplicates — zero
  // shipping; only the shortfall moves.
  const std::vector<int> alive_ranks = core::alive_store_ranks(comm, *own);
  const int keff =
      std::min(config_.replication, static_cast<int>(alive_ranks.size()));
  stats.k_effective = keff;
  if (alive_ranks.empty()) {
    throw core::ManifestLostError(rank, 0, n);
  }

  const core::ReplicaHealthSet health =
      core::allreduce_health(comm, *own, keff);
  stats.chunks_total = health.size();

  // Replication exceeded?  A manifest-referenced fingerprint with zero
  // surviving replicas is unrecoverable: merge the evidence across ranks so
  // every survivor throws the same rich error instead of diverging (or
  // silently continuing with a hole in a dataset).
  std::map<hash::Fingerprint, std::uint64_t> lost_mine;
  if (!own->failed()) {
    own->for_each_manifest([&](int owner, const chunk::Manifest& man) {
      for (const auto& entry : man.entries) {
        if (health.find(entry.fp) == nullptr) {
          lost_mine.emplace(entry.fp, pack_owner_length(owner, entry.length));
        }
      }
    });
  }
  const auto lost_all = simmpi::allreduce(
      comm, std::move(lost_mine),
      [](std::map<hash::Fingerprint, std::uint64_t> a,
         std::map<hash::Fingerprint, std::uint64_t> b) {
        a.merge(b);
        return a;
      });
  if (!lost_all.empty()) {
    const auto& [fp, packed] = *lost_all.begin();
    throw core::ChunkLostError(
        fp, static_cast<int>(packed >> 32), static_cast<int>(alive_ranks.size()),
        static_cast<int>(stores_.size()) - static_cast<int>(alive_ranks.size()));
  }

  // Classification and the shortfall top-up: the repair scrub's plan and
  // window exchange (core::plan_top_up, core::exchange_top_up).
  const core::TopUpPlan plan =
      core::plan_top_up(health, alive_ranks, n, keff, payload_mode);
  stats.dedup_satisfied_chunks = plan.satisfied_chunks;
  stats.dedup_satisfied_bytes = plan.satisfied_bytes;
  stats.rereplicated_chunks = plan.sends.size();
  stats.rereplicated_bytes = plan.shipped_bytes;
  comm.charge(static_cast<double>(health.size()) * cluster.merge_entry_cost_s);
  const core::TopUpTraffic traffic =
      core::exchange_top_up(comm, *own, plan, "recover.exchange.mid");

  // ---- Align, aggregate, publish ------------------------------------------
  stats.orphan_bytes_total = simmpi::allreduce_sum(comm, stats.orphan_bytes);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;

  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseEnd, comm.clock().now(), "recover",
             info.dead.size(), static_cast<std::uint64_t>(n));
    auto& m = *t->metrics;
    m.add("recover.orphans_adopted", stats.orphans_adopted);
    m.add("recover.orphan_bytes", stats.orphan_bytes);
    m.add("recover.sent_bytes", traffic.sent_bytes);
    m.add("recover.recv_bytes", traffic.recv_bytes);
    if (rank == 0) {
      m.add("recover.count");
      m.add("recover.deaths", static_cast<std::uint64_t>(stats.deaths));
      m.add("recover.dedup_satisfied_chunks", stats.dedup_satisfied_chunks);
      m.add("recover.dedup_satisfied_bytes", stats.dedup_satisfied_bytes);
      m.add("recover.rereplicated_chunks", stats.rereplicated_chunks);
      m.add("recover.rereplicated_bytes", stats.rereplicated_bytes);
      m.set("recover.last.world_size", static_cast<double>(n));
      m.set("recover.last.k_effective", static_cast<double>(keff));
      m.set("recover.last.rereplicated_bytes",
            static_cast<double>(stats.rereplicated_bytes));
      m.set("recover.last.agreement_time_s", stats.agreement_time_s);
      m.set("recover.last.total_time_s", stats.total_time_s);
      m.observe("recover.latency_s", stats.total_time_s);
    }
  }
  return stats;
}

}  // namespace collrep::recover
