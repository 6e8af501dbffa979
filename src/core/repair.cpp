#include "core/repair.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "simmpi/collectives.hpp"

namespace collrep::core {

ReplicaHealthSet allreduce_health(simmpi::Comm& comm,
                                  const chunk::ChunkStore& store, int k) {
  const auto& cluster = comm.cluster();
  ReplicaHealthSet mine(k);
  if (!store.failed()) {
    store.for_each_chunk([&](const hash::Fingerprint& fp,
                             std::uint32_t length) {
      mine.add_local(fp, length, comm.rank());
    });
    comm.charge(static_cast<double>(mine.size()) *
                cluster.merge_entry_cost_s);
  }
  return simmpi::allreduce(
      comm, std::move(mine),
      [&comm, &cluster](ReplicaHealthSet a, ReplicaHealthSet b) {
        const std::uint64_t scanned = a.merge_from(std::move(b));
        comm.charge(static_cast<double>(scanned) *
                    cluster.merge_entry_cost_s);
        return a;
      });
}

std::vector<int> alive_store_ranks(simmpi::Comm& comm,
                                   const chunk::ChunkStore& store) {
  const auto alive_flags = simmpi::allgather(
      comm, static_cast<std::uint8_t>(store.failed() ? 0 : 1));
  std::vector<int> alive;
  for (int r = 0; r < comm.size(); ++r) {
    if (alive_flags[static_cast<std::size_t>(r)] != 0) alive.push_back(r);
  }
  return alive;
}

TopUpPlan plan_top_up(const ReplicaHealthSet& health,
                      std::span<const int> alive_ranks, int nranks, int keff,
                      bool payload_mode) {
  TopUpPlan plan;
  plan.payload_mode = payload_mode;
  plan.window_bytes.assign(static_cast<std::size_t>(nranks), 0);
  std::size_t cursor = 0;
  for (const HealthEntry& e : health.entries()) {
    if (static_cast<int>(e.count) >= keff) {
      ++plan.satisfied_chunks;
      plan.satisfied_bytes += e.length;
      continue;
    }
    ++plan.deficit_chunks;
    plan.deficit_bytes += e.length;
    const int need = keff - static_cast<int>(e.count);
    const std::uint64_t record_bytes =
        kRecordHeaderBytes + (payload_mode ? e.length : 0);
    const auto holders = health.holders(e);
    int picked = 0;
    std::size_t seen = 0;
    std::size_t si = 0;
    while (picked < need && seen < alive_ranks.size()) {
      const int r = alive_ranks[cursor % alive_ranks.size()];
      ++cursor;
      ++seen;
      if (std::binary_search(holders.begin(), holders.end(), r)) continue;
      std::uint64_t& window = plan.window_bytes[static_cast<std::size_t>(r)];
      plan.sends.push_back(
          TopUpSend{e.fp, e.length, holders[si++ % holders.size()], r, window});
      window += record_bytes;
      plan.shipped_bytes += e.length;
      ++picked;
    }
  }
  return plan;
}

TopUpTraffic exchange_top_up(simmpi::Comm& comm, chunk::ChunkStore& store,
                             const TopUpPlan& plan, const char* mid_point) {
  const int rank = comm.rank();
  TopUpTraffic traffic;
  simmpi::Window win = comm.win_create(static_cast<std::size_t>(
      plan.window_bytes[static_cast<std::size_t>(rank)]));
  std::vector<std::uint8_t> record;
  for (const TopUpSend& s : plan.sends) {
    if (s.sender != rank) continue;
    std::span<const std::uint8_t> payload;
    if (plan.payload_mode) {
      const auto p = store.get(s.fp);
      if (!p.has_value()) {
        throw std::logic_error(
            "top-up: health set names this rank as holder of a chunk its "
            "store does not have");
      }
      payload = *p;
    }
    record.assign(kRecordHeaderBytes + (plan.payload_mode ? s.length : 0), 0);
    encode_record(record.data(), s.fp, s.length, payload);
    win.put(s.receiver, static_cast<std::size_t>(s.offset), record,
            kRecordHeaderBytes + s.length);
    ++traffic.sent_chunks;
    traffic.sent_bytes += s.length;
  }
  comm.fault_point(mid_point);
  // Final epoch of the top-up window: no RMA follows.
  win.fence(simmpi::kFenceNoSucceed);

  const auto region = win.local();
  for (const TopUpSend& s : plan.sends) {
    if (s.receiver != rank || store.failed()) continue;
    const Record rec = decode_record(region.data() + s.offset);
    if (plan.payload_mode) {
      store.put(rec.fp, std::span<const std::uint8_t>{rec.payload, rec.length});
    } else {
      store.put_accounted(rec.fp, rec.length);
    }
    ++traffic.recv_chunks;
    traffic.recv_bytes += rec.length;
  }
  win.free();
  comm.charge(static_cast<double>(traffic.recv_bytes) /
                  comm.cluster().mem_bandwidth_bps +
              static_cast<double>(traffic.recv_bytes) /
                  comm.cluster().hdd_write_bps);
  return traffic;
}

RepairStats repair_replicas(simmpi::Comm& comm,
                            std::span<chunk::ChunkStore* const> stores,
                            int k) {
  if (k < 1) throw std::invalid_argument("repair_replicas: K must be >= 1");
  const int n = comm.size();
  const int rank = comm.rank();
  if (static_cast<int>(stores.size()) != n) {
    throw std::invalid_argument(
        "repair_replicas: stores span must have one entry per rank");
  }
  const int kmax = simmpi::allreduce_max(comm, k);
  const int kmin =
      simmpi::allreduce(comm, k, [](int a, int b) { return a < b ? a : b; });
  if (kmax != kmin) {
    throw std::invalid_argument("repair_replicas: ranks disagree on K");
  }
  chunk::ChunkStore& store = *stores[static_cast<std::size_t>(rank)];
  const auto& cluster = comm.cluster();

  comm.fault_point("repair.pre");
  comm.barrier();
  const double t0 = comm.clock().now();
  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseBegin, t0, "repair");
  }

  RepairStats stats;
  stats.rank = rank;
  stats.k_requested = k;

  // ---- Audit: who is alive, and who holds what ------------------------------
  const std::vector<int> alive_ranks = alive_store_ranks(comm, store);
  stats.alive_stores = static_cast<int>(alive_ranks.size());
  const int keff = std::min(k, stats.alive_stores);
  stats.k_effective = keff;

  if (!store.failed()) {
    store.for_each_chunk([&](const hash::Fingerprint&, std::uint32_t length) {
      ++stats.audited_chunks;
      stats.audited_bytes += length;
    });
    // The audit streams the chunk index, not the payloads.
    comm.charge(static_cast<double>(stats.audited_chunks) *
                cluster.merge_entry_cost_s);
  }

  const ReplicaHealthSet health = allreduce_health(comm, store, keff);
  stats.global_chunks = health.size();

  // Lost chunks: manifest-referenced fingerprints with no replica left on
  // any alive store.  Several ranks can hold replicas of the same manifest,
  // so the per-rank findings are merged (map union) before counting.
  std::map<hash::Fingerprint, std::uint32_t> lost_mine;
  int my_min = keff;
  if (!store.failed()) {
    for (int owner = 0; owner < n; ++owner) {
      const chunk::Manifest* man = store.manifest_for(owner);
      if (man == nullptr) continue;
      for (const auto& entry : man->entries) {
        const HealthEntry* h = health.find(entry.fp);
        if (h == nullptr) {
          lost_mine.emplace(entry.fp, entry.length);
          my_min = 0;
        } else {
          my_min = std::min(my_min,
                            std::min(static_cast<int>(h->count), keff));
        }
      }
    }
  }
  const auto lost_all = simmpi::allreduce(
      comm, std::move(lost_mine),
      [](std::map<hash::Fingerprint, std::uint32_t> a,
         std::map<hash::Fingerprint, std::uint32_t> b) {
        a.merge(b);
        return a;
      });
  stats.lost_chunks = lost_all.size();
  for (const auto& [fp, len] : lost_all) stats.lost_bytes += len;
  stats.k_achieved_min_before = simmpi::allreduce(
      comm, my_min, [](int a, int b) { return a < b ? a : b; });

  // ---- Plan and exchange: ship exactly the shortfall -----------------------
  const TopUpPlan plan =
      plan_top_up(health, alive_ranks, n, keff,
                  store.mode() == chunk::StoreMode::kPayload);
  stats.under_replicated_chunks = plan.deficit_chunks;
  stats.under_replicated_bytes = plan.deficit_bytes;
  stats.resent_chunks = plan.sends.size();
  stats.resent_bytes = plan.shipped_bytes;
  comm.charge(static_cast<double>(plan.deficit_chunks) *
              cluster.merge_entry_cost_s);
  const TopUpTraffic traffic =
      exchange_top_up(comm, store, plan, "repair.exchange.mid");
  stats.sent_chunks = traffic.sent_chunks;
  stats.sent_bytes = traffic.sent_bytes;
  stats.recv_chunks = traffic.recv_chunks;
  stats.recv_bytes = traffic.recv_bytes;

  // After the top-up every under-replicated fingerprint is back at K_eff;
  // only chunks with zero surviving replicas stay below it.
  stats.k_achieved_min_after = stats.lost_chunks > 0 ? 0 : keff;

  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;

  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseEnd, comm.clock().now(), "repair");
    auto& m = *t->metrics;
    m.add("repair.audited_chunks", stats.audited_chunks);
    m.add("repair.audited_bytes", stats.audited_bytes);
    m.add("repair.sent_chunks", stats.sent_chunks);
    m.add("repair.sent_bytes", stats.sent_bytes);
    m.add("repair.recv_chunks", stats.recv_chunks);
    m.add("repair.recv_bytes", stats.recv_bytes);
    if (rank == 0) {
      m.add("repair.count");
      m.add("repair.under_replicated_chunks", stats.under_replicated_chunks);
      m.add("repair.under_replicated_bytes", stats.under_replicated_bytes);
      m.add("repair.resent_chunks", stats.resent_chunks);
      m.add("repair.resent_bytes", stats.resent_bytes);
      m.add("repair.lost_chunks", stats.lost_chunks);
      m.add("repair.lost_bytes", stats.lost_bytes);
      m.set("repair.last.alive_stores",
            static_cast<double>(stats.alive_stores));
      m.set("repair.last.k_achieved_min_before",
            static_cast<double>(stats.k_achieved_min_before));
      m.set("repair.last.k_achieved_min_after",
            static_cast<double>(stats.k_achieved_min_after));
      m.set("repair.last.resent_bytes",
            static_cast<double>(stats.resent_bytes));
      m.set("repair.last.total_time_s", stats.total_time_s);
    }
  }
  return stats;
}

}  // namespace collrep::core
