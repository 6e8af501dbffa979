#include "ftrt/multilevel.hpp"

#include "core/local_dedup.hpp"

namespace collrep::ftrt {

PfsDumpStats pfs_dump(simmpi::Comm& comm, PfsStore& pfs,
                      const chunk::Dataset& buffer, std::size_t chunk_bytes,
                      hash::HashKind hash_kind, std::uint64_t epoch) {
  const auto& hasher = hash::hasher_for(hash_kind);
  comm.barrier();
  const double t0 = comm.clock().now();

  const chunk::Chunker chunker(buffer, chunk_bytes);
  const auto local = core::local_dedup(chunker, hasher);
  comm.charge(static_cast<double>(local.total_bytes) /
              hasher.modeled_bytes_per_second());

  PfsDumpStats stats;
  for (const auto chunk_index : local.unique_chunks) {
    const auto payload = chunker.bytes(chunk_index);
    pfs.put(local.chunk_fps[chunk_index], payload);
    stats.written_bytes += payload.size();
  }
  chunk::Manifest manifest = chunk::make_manifest(comm.rank(), epoch, buffer,
                                                  chunker, local.chunk_fps);
  stats.written_bytes += chunk::manifest_wire_bytes(manifest);
  pfs.put_manifest(std::move(manifest));

  // The decoupled store ingests the *sum* of all ranks' writes at one
  // aggregate bandwidth — the scalability wall the paper's intro cites.
  const auto total = simmpi::allreduce_sum(comm, stats.written_bytes);
  comm.charge(pfs.model().request_latency_s +
              static_cast<double>(total) / pfs.model().aggregate_write_bps);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;

  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kStoreCommit, comm.clock().now(), "pfs_commit",
             stats.written_bytes);
    auto& m = *t->metrics;
    m.add("pfs.written_bytes", stats.written_bytes);
    if (comm.rank() == 0) {
      m.add("pfs.dumps");
      m.set("pfs.last.total_time_s", stats.total_time_s);
      m.set("pfs.last.total_written_bytes", static_cast<double>(total));
    }
  }
  return stats;
}

core::RestoreResult pfs_restore(const PfsStore& pfs, int rank) {
  const auto manifest = pfs.manifest_for(rank);
  // The PFS is one logical store: 1 consulted, 0 failed.
  return core::assemble_restore(
      {}, core::StoreScan{manifest.has_value() ? &*manifest : nullptr, 1, 0},
      rank, [&](const hash::Fingerprint& fp) { return pfs.get(fp); });
}

}  // namespace collrep::ftrt
