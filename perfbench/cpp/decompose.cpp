#include "decompose.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "core/local_dedup.hpp"
#include "core/planner.hpp"
#include "core/repair.hpp"
#include "core/replica_plan.hpp"
#include "ec/reed_solomon.hpp"
#include "simmpi/collectives.hpp"

namespace perfbench {

namespace {

using namespace collrep;

constexpr int kEcData = 4;
constexpr int kEcParity = 2;

// Times `fn` on this rank and records it as a span of the open op.
template <class Fn>
double timed_span(Tracer& tracer, int rank, const char* name, Fn&& fn) {
  const double t0 = host_now();
  fn();
  const double t1 = host_now();
  tracer.span(rank, name, t0, t1);
  return t1 - t0;
}

}  // namespace

Decomposition decompose(simmpi::Comm& comm, const chunk::Dataset& image,
                        const core::DumpConfig& config, int k,
                        const chunk::ChunkStore& store, Tracer& tracer) {
  Decomposition d;
  const int n = comm.size();
  const int rank = comm.rank();
  const int wrank = comm.world_rank();
  const int keff = std::min(k, n);
  const auto& hasher = hash::hasher_for(config.hash_kind);
  const chunk::Chunker chunker(image, config.chunk_bytes);
  d.chunks = chunker.count();

  // ---- hash ---------------------------------------------------------------
  std::vector<hash::Fingerprint> fps(chunker.count());
  d.hash_only_s = timed_span(tracer, wrank, "hash.sha1", [&] {
    for (std::size_t i = 0; i < chunker.count(); ++i) {
      fps[i] = hasher.fingerprint(chunker.bytes(i));
    }
  });
  core::LocalDedupResult local;
  d.local_dedup_s = timed_span(tracer, wrank, "hash.local_dedup", [&] {
    local = core::local_dedup(chunker, hasher);
  });
  d.bytes = local.total_bytes;
  d.consistent = fps == local.chunk_fps;

  // ---- core.fpset: leaf, k-way reduction, archive -------------------------
  core::BoundedFpSet mine(config.threshold_f, keff, n);
  d.leaf_s = timed_span(tracer, wrank, "core.fpset.leaf", [&] {
    for (const auto u : local.unique_chunks) {
      mine.add_local(local.chunk_fps[u], rank);
    }
    (void)mine.enforce_f();
  });
  // Same schedule and operator body as Dumper's reduction; only the clock
  // around merge_many is the benchmark's.
  core::BoundedFpSet gview = simmpi::reduce_kway(
      comm, std::move(mine),
      [&](core::BoundedFpSet a, std::vector<core::BoundedFpSet> children) {
        const double t0 = host_now();
        const core::MergeStats ms = a.merge_many(std::move(children));
        const double t1 = host_now();
        tracer.span(wrank, "core.fpset.merge", t0, t1);
        d.merge_s += t1 - t0;
        d.merge_entries += ms.entries_scanned;
        return a;
      },
      0);
  if (rank == 0) (void)gview.prune_singletons();
  simmpi::bcast(comm, gview, 0);
  d.gview_entries = static_cast<std::uint32_t>(gview.size());
  d.archive_s = timed_span(tracer, wrank, "core.fpset.archive", [&] {
    const auto bytes = simmpi::to_bytes(gview);
    const auto back = simmpi::from_bytes<core::BoundedFpSet>(bytes);
    d.consistent = d.consistent && back.size() == gview.size();
  });

  // ---- core.plan ----------------------------------------------------------
  core::ReplicaPlan plan;
  d.plan_collective_s += timed_span(tracer, wrank, "core.plan.collective", [&] {
    plan = core::plan_collective(local, chunker, gview, rank, keff, nullptr);
  });
  core::SendMatrix mat(n, keff);
  const auto fill = [&](const std::vector<std::uint64_t>& load) {
    const auto gathered = simmpi::allgather(comm, load);
    for (int r = 0; r < n; ++r) {
      mat.set_row(r, gathered[static_cast<std::size_t>(r)]);
    }
  };
  fill(plan.load);
  std::vector<int> shuffle;
  std::vector<int> position_of;
  d.plan_shuffle_s += timed_span(tracer, wrank, "core.plan.shuffle", [&] {
    shuffle = config.rank_shuffle ? core::rank_shuffle(mat, keff)
                                  : core::identity_shuffle(n);
    position_of = core::invert_shuffle(shuffle);
  });
  if (config.avoid_designated_targets && keff > 1) {
    const core::ShuffleContext ctx{shuffle, position_of};
    d.plan_collective_s +=
        timed_span(tracer, wrank, "core.plan.collective", [&] {
          plan = core::plan_collective(local, chunker, gview, rank, keff, &ctx);
        });
    fill(plan.load);
  }
  const int my_pos = position_of[static_cast<std::size_t>(rank)];
  std::uint64_t slots = 0;
  d.plan_shuffle_s += timed_span(tracer, wrank, "core.plan.offsets", [&] {
    for (int p = 1; p < keff; ++p) {
      slots += core::put_offset_chunks(mat, shuffle, my_pos, p);
    }
    slots += keff > 1 ? core::window_chunks(mat, shuffle, my_pos) : 0;
  });
  for (const core::ChunkAssignment& a : plan.assignments) {
    const auto len = chunker.bytes(local.unique_chunks[a.chunk]).size();
    d.sent_bytes += len * a.send_slots.size();
  }
  d.discarded_bytes = plan.discarded_bytes;

  // ---- chunk: ChunkStore put/get ------------------------------------------
  chunk::ChunkStore probe(chunk::StoreMode::kPayload);
  d.store_ops = local.unique_chunks.size();
  d.put_s = timed_span(tracer, wrank, "chunk.put", [&] {
    for (const auto u : local.unique_chunks) {
      (void)probe.put(local.chunk_fps[u], chunker.bytes(u));
    }
  });
  std::uint64_t got = 0;
  d.get_s = timed_span(tracer, wrank, "chunk.get", [&] {
    for (const auto u : local.unique_chunks) {
      if (const auto p = probe.get(local.chunk_fps[u])) got += p->size();
    }
  });
  d.consistent = d.consistent && got == local.unique_bytes;

  // ---- ec: Reed-Solomon encode of the unique stream -----------------------
  const std::size_t shard_len =
      (local.unique_bytes + kEcData - 1) / kEcData;
  std::vector<std::uint8_t> stream;
  stream.reserve(shard_len * kEcData);
  for (const auto u : local.unique_chunks) {
    const auto bytes = chunker.bytes(u);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  stream.resize(shard_len * kEcData, 0);
  std::vector<std::span<const std::uint8_t>> views;
  for (int i = 0; i < kEcData; ++i) {
    views.emplace_back(stream.data() + i * shard_len, shard_len);
  }
  std::vector<std::vector<std::uint8_t>> parity(
      kEcParity, std::vector<std::uint8_t>(shard_len, 0));
  const ec::ReedSolomon rs(kEcData, kEcParity);
  d.encode_bytes = shard_len * kEcData;
  d.encode_s = timed_span(tracer, wrank, "ec.encode",
                          [&] { rs.encode(views, parity); });

  // ---- recover: the replica-health audit ----------------------------------
  comm.barrier();
  d.health_allreduce_s =
      timed_span(tracer, wrank, "recover.health_allreduce",
                 [&] { (void)core::allreduce_health(comm, store, keff); });
  core::ReplicaHealthSet health(keff);
  store.for_each_chunk([&](const hash::Fingerprint& fp, std::uint32_t len) {
    health.add_local(fp, len, rank);
  });
  (void)simmpi::allreduce(
      comm, std::move(health),
      [&](core::ReplicaHealthSet a, core::ReplicaHealthSet b) {
        const double t0 = host_now();
        d.health_entries += a.merge_from(std::move(b));
        d.health_merge_s += host_now() - t0;
        return a;
      });
  return d;
}

}  // namespace perfbench
