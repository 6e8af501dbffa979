#include "core/restore.hpp"

#include "core/dump.hpp"

namespace collrep::core {

namespace detail {

std::string manifest_lost_message(int rank, int consulted, int failed) {
  std::string out =
      "restore: no surviving manifest for rank " + std::to_string(rank);
  if (consulted >= 0) {
    out += " (" + std::to_string(consulted) + " store(s) consulted";
    if (failed >= 0) out += ", " + std::to_string(failed) + " failed";
    out += ')';
  }
  return out;
}

std::string chunk_lost_message(const hash::Fingerprint* fp, int owner_rank,
                               int consulted, int failed) {
  std::string out = "restore: chunk ";
  if (fp != nullptr) {
    out += fp->hex().substr(0, 12);
    out += "... ";
  }
  if (owner_rank >= 0) {
    out += "of rank " + std::to_string(owner_rank) + "'s dataset ";
  }
  out += "is not available on any surviving store";
  if (consulted >= 0) {
    out += " (" + std::to_string(consulted) + " store(s) consulted";
    if (failed >= 0) out += ", " + std::to_string(failed) + " failed";
    out += ')';
  }
  return out;
}

}  // namespace detail

StoreScan newest_manifest(std::span<chunk::ChunkStore* const> stores,
                          int rank) {
  StoreScan scan;
  for (const chunk::ChunkStore* store : stores) {
    if (store == nullptr || store->failed()) {
      ++scan.failed;
      continue;
    }
    ++scan.consulted;
    const chunk::Manifest* m = store->manifest_for(rank);
    if (m != nullptr && (scan.manifest == nullptr ||
                         m->epoch > scan.manifest->epoch)) {
      scan.manifest = m;
    }
  }
  return scan;
}

RestoreResult assemble_restore(std::span<chunk::ChunkStore* const> stores,
                               const StoreScan& scan, int rank,
                               const ChunkFallback& fallback) {
  const chunk::Manifest* manifest = scan.manifest;
  if (manifest == nullptr) {
    throw ManifestLostError(rank, scan.consulted, scan.failed);
  }

  // The manifest's segment sizes are claims; bound them by the entries
  // (chunks never straddle segments, so both sides sum to the dataset
  // size) before any of them sizes an allocation.
  std::uint64_t claimed = 0;
  for (const auto size : manifest->segment_sizes) {
    if (__builtin_add_overflow(claimed, size, &claimed)) {
      throw std::runtime_error("restore: segment sizes overflow");
    }
  }
  std::uint64_t chunked = 0;
  for (const chunk::ManifestEntry& entry : manifest->entries) {
    if (__builtin_add_overflow(chunked, std::uint64_t{entry.length},
                               &chunked)) {
      throw std::runtime_error("restore: chunk lengths overflow");
    }
  }
  if (claimed != chunked) {
    throw std::runtime_error(
        "restore: segment sizes do not match manifest entries");
  }

  RestoreResult out;
  out.segments.reserve(manifest->segment_sizes.size());
  for (const auto size : manifest->segment_sizes) {
    out.segments.emplace_back();
    out.segments.back().reserve(size);
  }

  const chunk::ChunkStore* own = static_cast<std::size_t>(rank) < stores.size()
                                     ? stores[static_cast<std::size_t>(rank)]
                                     : nullptr;
  const bool own_alive = own != nullptr && !own->failed();

  std::size_t seg = 0;
  for (const chunk::ManifestEntry& entry : manifest->entries) {
    // Advance to the segment this chunk belongs to (entries are in buffer
    // order; a segment is full when it reaches its manifest size).
    while (seg < out.segments.size() &&
           out.segments[seg].size() == manifest->segment_sizes[seg]) {
      ++seg;
    }
    if (seg == out.segments.size()) {
      throw std::runtime_error("restore: manifest entries exceed segments");
    }
    std::optional<std::span<const std::uint8_t>> payload;
    if (own_alive) payload = own->get(entry.fp);
    const bool from_own = payload.has_value();
    for (const chunk::ChunkStore* store : stores) {
      if (payload.has_value()) break;
      if (store == nullptr || store->failed() || store == own) continue;
      payload = store->get(entry.fp);
    }
    if (!payload.has_value() && fallback) payload = fallback(entry.fp);
    if (!payload.has_value()) {
      throw ChunkLostError(entry.fp, rank, scan.consulted, scan.failed);
    }
    if (payload->size() != entry.length) {
      throw std::runtime_error("restore: chunk length mismatch (collision?)");
    }
    if (from_own) {
      ++out.chunks_from_own_store;
      out.bytes_from_own_store += payload->size();
    } else {
      ++out.chunks_from_remote_stores;
      out.bytes_from_remote_stores += payload->size();
    }
    out.segments[seg].insert(out.segments[seg].end(), payload->begin(),
                             payload->end());
  }

  for (std::size_t s = 0; s < out.segments.size(); ++s) {
    if (out.segments[s].size() != manifest->segment_sizes[s]) {
      throw std::runtime_error("restore: segment size mismatch");
    }
  }
  return out;
}

RestoreResult restore_rank(std::span<chunk::ChunkStore* const> stores,
                           int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= stores.size()) {
    throw std::out_of_range("restore: rank outside store set");
  }
  return assemble_restore(stores, newest_manifest(stores, rank), rank);
}

std::pair<RestoreResult, CollectiveRestoreStats> restore_input(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores) {
  const auto& cluster = comm.cluster();
  comm.barrier();
  const double t0 = comm.clock().now();

  RestoreResult result = restore_rank(stores, comm.rank());

  CollectiveRestoreStats stats;
  stats.local_bytes = result.bytes_from_own_store;
  stats.remote_bytes = result.bytes_from_remote_stores;

  // Local chunks stream off the node's HDD; remote chunks additionally
  // traverse the network.  HDDs are shared per node; remote reads are
  // attributed to the reader's node (a first-order approximation — the
  // serving partner is not tracked per chunk).
  const std::uint64_t node_read =
      node_device_bytes(comm, stats.local_bytes) +
      node_device_bytes(comm, stats.remote_bytes);
  comm.charge(static_cast<double>(node_read) / cluster.hdd_read_bps);
  comm.charge(static_cast<double>(stats.remote_bytes) /
              cluster.net_bandwidth_bps);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;
  return {std::move(result), stats};
}

}  // namespace collrep::core
