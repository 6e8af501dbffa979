#include "core/group_parity.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/dump.hpp"
#include "simmpi/collectives.hpp"

namespace collrep::core {

namespace {

constexpr int kChainTag = 7 << 20;
constexpr int kParityTag = 8 << 20;
constexpr int kManifestTag = 9 << 20;
constexpr int kStreamTag = 10 << 20;

// Written raw at the front of every stored parity blob, so it must have
// no padding bytes: `reserved` fills the hole before shard_len.
struct ParityHeader {
  std::uint64_t epoch = 0;
  std::int32_t group = 0;
  std::int32_t parity_index = 0;
  std::int32_t group_members = 0;
  std::uint32_t reserved = 0;
  std::uint64_t shard_len = 0;
};
static_assert(sizeof(ParityHeader) == 32);
static_assert(std::has_unique_object_representations_v<ParityHeader>);

std::vector<std::uint8_t> pack_parity(const ParityHeader& header,
                                      std::span<const std::uint8_t> shard) {
  simmpi::OArchive ar;
  ar.reserve(sizeof header + shard.size());
  ar.put(header);
  ar.write_raw(shard.data(), shard.size());
  return ar.take();
}

// The length words of the chain image, in the archive's size encoding.
constexpr std::size_t kWord = sizeof(std::uint64_t);

std::uint64_t read_word(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, kWord);
  return v;
}

void append_word(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + kWord);
  std::memcpy(out.data() + at, &v, kWord);
}

// Byte offset of row j's length word in a chain image; j == parity gives
// the image's size.
std::size_t chain_row_at(int j, std::uint64_t shard_len) {
  return kWord + static_cast<std::size_t>(j) * (kWord + shard_len);
}

std::pair<ParityHeader, std::span<const std::uint8_t>> unpack_parity(
    std::span<const std::uint8_t> blob) {
  simmpi::IArchive ar(blob);
  const auto header = ar.get<ParityHeader>();
  if (ar.remaining() != header.shard_len) {
    throw std::runtime_error("ec: corrupt parity blob");
  }
  return {header, blob.subspan(blob.size() - header.shard_len)};
}

}  // namespace

int ec_group_of(int rank, const EcConfig& config) noexcept {
  return rank / std::max(1, config.group_size);
}

int ec_group_count(int nranks, const EcConfig& config) noexcept {
  const int m = std::max(1, config.group_size);
  return (nranks + m - 1) / m;
}

std::vector<int> ec_group_members(int group, int nranks,
                                  const EcConfig& config) {
  const int m = std::max(1, config.group_size);
  std::vector<int> members;
  for (int r = group * m; r < std::min(nranks, (group + 1) * m); ++r) {
    members.push_back(r);
  }
  return members;
}

std::vector<int> ec_parity_holders(int group, int nranks,
                                   const EcConfig& config) {
  const int m = std::max(1, config.group_size);
  const int first_after = std::min(nranks, (group + 1) * m);
  std::vector<int> holders;
  for (int t = 0; t < config.parity; ++t) {
    holders.push_back((first_after + t) % nranks);
  }
  return holders;
}

std::string ec_parity_key(int group, int parity_index, std::uint64_t epoch) {
  return "ecparity/" + std::to_string(group) + "/" +
         std::to_string(parity_index) + "/" + std::to_string(epoch);
}

std::string ec_stream_key(int rank, std::uint64_t epoch) {
  return "ecstream/" + std::to_string(rank) + "/" + std::to_string(epoch);
}

std::vector<std::uint8_t> ec_chain_image(int parity,
                                         std::uint64_t shard_len) {
  std::vector<std::uint8_t> image;
  image.reserve(chain_row_at(parity, shard_len));
  append_word(image, static_cast<std::uint64_t>(parity));
  for (int j = 0; j < parity; ++j) {
    append_word(image, shard_len);
    image.resize(image.size() + shard_len, 0);
  }
  return image;
}

std::vector<std::span<std::uint8_t>> ec_chain_rows(
    std::span<std::uint8_t> image, int parity, std::uint64_t shard_len) {
  if (parity < 0 || image.size() != chain_row_at(parity, shard_len) ||
      read_word(image, 0) != static_cast<std::uint64_t>(parity)) {
    throw std::runtime_error("ec: malformed parity chain message");
  }
  std::vector<std::span<std::uint8_t>> rows;
  rows.reserve(static_cast<std::size_t>(parity));
  for (int j = 0; j < parity; ++j) {
    const std::size_t at = chain_row_at(j, shard_len);
    if (read_word(image, at) != shard_len) {
      throw std::runtime_error("ec: malformed parity chain message");
    }
    rows.push_back(image.subspan(at + kWord, shard_len));
  }
  return rows;
}

EcDumper::EcDumper(simmpi::Comm& comm, chunk::ChunkStore& store,
                   EcConfig config)
    : comm_(comm), store_(store), config_(config) {
  if (config_.chunk_bytes == 0) {
    throw std::invalid_argument("EcDumper: chunk_bytes must be positive");
  }
  if (config_.group_size < 1 || config_.parity < 0 ||
      config_.group_size + config_.parity > 256) {
    throw std::invalid_argument("EcDumper: invalid group geometry");
  }
}

EcDumpStats EcDumper::dump_output(const chunk::Dataset& buffer) {
  const int n = comm_.size();
  const int rank = comm_.rank();
  if (config_.group_size + config_.parity > n) {
    throw std::invalid_argument(
        "EcDumper: group_size + parity must not exceed the rank count "
        "(parity holders must be distinct from group members)");
  }
  const auto& cluster = comm_.cluster();
  const auto& hasher = hash::hasher_for(config_.hash_kind);

  EcDumpStats stats;
  stats.rank = rank;

  comm_.barrier();
  const double t0 = comm_.clock().now();
  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kPhaseBegin, t0, "ec_dump");
  }

  // ---- local dedup ----------------------------------------------------------
  const chunk::Chunker chunker(buffer, config_.chunk_bytes);
  const core::LocalDedupResult local = core::local_dedup(chunker, hasher);
  stats.dataset_bytes = local.total_bytes;
  stats.chunk_count = chunker.count();
  comm_.charge(static_cast<double>(local.total_bytes) /
                   hasher.modeled_bytes_per_second() +
               static_cast<double>(chunker.count()) *
                   cluster.chunk_overhead_s);

  // ---- collective dedup (natural replicas substitute for coding) ------------
  const int cap = config_.parity + 1;  // natural copies that equal coding
  core::BoundedFpSet gview;
  if (config_.use_collective_dedup && config_.parity > 0) {
    // The leaf build is not charged here (Dumper charges it).
    gview = global_view(comm_, local, config_.threshold_f, cap);
  }

  // ---- stream selection -------------------------------------------------------
  // stream: unique chunks this rank must protect with coding.
  // keep: unique chunks this rank stores locally (stream + fully-covered
  // designated chunks).
  std::vector<std::uint32_t> stream;
  std::vector<std::uint32_t> keep;
  for (const auto chunk_index : local.unique_chunks) {
    const auto& fp = local.chunk_fps[chunk_index];
    const core::FpEntry* entry = gview.find(fp);
    if (entry == nullptr) {
      stream.push_back(chunk_index);
      keep.push_back(chunk_index);
      continue;
    }
    const auto dranks = gview.ranks(*entry);
    const bool designated =
        std::binary_search(dranks.begin(), dranks.end(), rank);
    if (!designated) {
      ++stats.excluded_chunks;  // cap other ranks already hold it
      continue;
    }
    keep.push_back(chunk_index);
    if (static_cast<int>(dranks.size()) < cap) {
      stream.push_back(chunk_index);
    } else {
      ++stats.excluded_chunks;  // enough natural copies; skip coding
    }
  }
  stats.stream_chunks = stream.size();

  // ---- group geometry & stripe count ----------------------------------------
  const int group = ec_group_of(rank, config_);
  const auto members = ec_group_members(group, n, config_);
  const auto holders = ec_parity_holders(group, n, config_);
  const int m_eff = static_cast<int>(members.size());
  const int my_index = static_cast<int>(
      std::find(members.begin(), members.end(), rank) - members.begin());

  const auto all_stream_counts =
      simmpi::allgather(comm_, static_cast<std::uint64_t>(stream.size()));
  std::uint64_t stripes = 0;
  for (const int member : members) {
    stripes = std::max(stripes,
                       all_stream_counts[static_cast<std::size_t>(member)]);
  }
  const std::uint64_t shard_len = stripes * config_.chunk_bytes;

  // ---- ring-chain parity accumulation -----------------------------------------
  // The running parity keeps its wire image (ec_chain_image): member 0
  // builds it zeroed, every member folds coeff * chunk into each row at the
  // chunk's stripe offset and moves the buffer on.  A shard's zero padding
  // adds nothing to a GF(256) multiply-accumulate, so no padded copy of the
  // stream is made.
  if (config_.parity > 0 && shard_len > 0) {
    const ec::ReedSolomon rs(m_eff, config_.parity);
    std::vector<std::uint8_t> image =
        my_index == 0
            ? ec_chain_image(config_.parity, shard_len)
            : comm_.recv_bytes(members[static_cast<std::size_t>(my_index - 1)],
                               kChainTag);
    const auto rows = ec_chain_rows(image, config_.parity, shard_len);
    for (int j = 0; j < config_.parity; ++j) {
      const auto row = rows[static_cast<std::size_t>(j)];
      const std::uint8_t coeff = rs.coeff(j, my_index);
      for (std::size_t s = 0; s < stream.size(); ++s) {
        ec::gf_mul_add(row.subspan(s * config_.chunk_bytes),
                       chunker.bytes(stream[s]), coeff);
      }
      // GF multiply-accumulate over the shard.
      comm_.charge(static_cast<double>(shard_len) / cluster.mem_bandwidth_bps);
    }
    if (my_index + 1 < m_eff) {
      comm_.send_bytes(members[static_cast<std::size_t>(my_index + 1)],
                       kChainTag, std::move(image));
      stats.sent_bytes +=
          static_cast<std::uint64_t>(config_.parity) * shard_len;
    } else {
      for (int j = 0; j < config_.parity; ++j) {
        // Each row leaves as a serialized vector<uint8_t>.
        const auto row = rows[static_cast<std::size_t>(j)];
        simmpi::OArchive ar;
        ar.reserve(kWord + row.size());
        ar.put_size(row.size());
        ar.write_raw(row.data(), row.size());
        comm_.send_bytes(holders[static_cast<std::size_t>(j)], kParityTag + j,
                         ar.take());
        stats.sent_bytes += shard_len;
      }
    }
  }

  // ---- receive parity shards for the groups this rank protects ----------------
  if (config_.parity > 0) {
    for (int g = 0; g < ec_group_count(n, config_); ++g) {
      const auto g_holders = ec_parity_holders(g, n, config_);
      const auto g_members = ec_group_members(g, n, config_);
      std::uint64_t g_stripes = 0;
      for (const int member : g_members) {
        g_stripes = std::max(
            g_stripes, all_stream_counts[static_cast<std::size_t>(member)]);
      }
      for (int j = 0; j < config_.parity; ++j) {
        if (g_holders[static_cast<std::size_t>(j)] != rank) continue;
        if (g_stripes == 0) continue;
        // One serialized vector<uint8_t> holding the group's parity row.
        const std::uint64_t g_shard_len = g_stripes * config_.chunk_bytes;
        const auto msg = comm_.recv_bytes(g_members.back(), kParityTag + j);
        if (msg.size() != kWord + g_shard_len ||
            read_word(msg, 0) != g_shard_len) {
          throw std::runtime_error("ec: malformed parity shard message");
        }
        const ParityHeader header{
            .epoch = config_.epoch,
            .group = g,
            .parity_index = j,
            .group_members = static_cast<std::int32_t>(g_members.size()),
            .shard_len = g_shard_len};
        stats.parity_bytes += g_shard_len;
        store_.put_blob(
            ec_parity_key(g, j, config_.epoch),
            pack_parity(header, std::span(msg).subspan(kWord)));
      }
    }
  }

  // ---- manifests, stream manifests, local commit --------------------------------
  const chunk::Manifest manifest = chunk::make_manifest(
      rank, config_.epoch, buffer, chunker, local.chunk_fps);

  std::vector<chunk::ManifestEntry> stream_manifest;
  stream_manifest.reserve(stream.size());
  for (const auto chunk_index : stream) {
    stream_manifest.push_back(chunk::ManifestEntry{
        local.chunk_fps[chunk_index], chunker.ref(chunk_index).length});
  }
  const auto stream_blob = simmpi::to_bytes(stream_manifest);

  store_.put_manifest(manifest);
  store_.put_blob(ec_stream_key(rank, config_.epoch), stream_blob);
  for (const int holder : holders) {
    comm_.send_value(holder, kManifestTag, manifest);
    comm_.send_value(holder, kStreamTag + rank, stream_manifest);
    stats.sent_bytes += chunk::manifest_wire_bytes(manifest);
  }
  // Receive manifests from every member of every group this rank protects.
  if (config_.parity > 0) {
    for (int g = 0; g < ec_group_count(n, config_); ++g) {
      const auto g_holders = ec_parity_holders(g, n, config_);
      if (std::find(g_holders.begin(), g_holders.end(), rank) ==
          g_holders.end()) {
        continue;
      }
      for (const int member : ec_group_members(g, n, config_)) {
        store_.put_manifest(comm_.recv_value<chunk::Manifest>(member,
                                                              kManifestTag));
        const auto sm =
            comm_.recv_value<std::vector<chunk::ManifestEntry>>(
                member, kStreamTag + member);
        store_.put_blob(ec_stream_key(member, config_.epoch),
                        simmpi::to_bytes(sm));
      }
    }
  }

  for (const auto chunk_index : keep) {
    const auto payload = chunker.bytes(chunk_index);
    if (store_.mode() == chunk::StoreMode::kPayload) {
      store_.put(local.chunk_fps[chunk_index], payload);
    } else {
      store_.put_accounted(local.chunk_fps[chunk_index],
                           static_cast<std::uint32_t>(payload.size()));
    }
    stats.stored_bytes += payload.size();
  }

  // ---- storage phase (shared HDD per node, like the replication path) ---------
  comm_.charge(static_cast<double>(node_device_bytes(
                   comm_, stats.stored_bytes + stats.parity_bytes +
                              chunk::manifest_wire_bytes(manifest))) /
               cluster.hdd_write_bps);
  comm_.barrier();
  stats.total_time_s = comm_.clock().now() - t0;

  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kPhaseEnd, comm_.clock().now(), "ec_dump");
    auto& m = *t->metrics;
    if (rank == 0) m.add("ec.count");
    m.add("ec.dataset_bytes", stats.dataset_bytes);
    m.add("ec.stream_chunks", stats.stream_chunks);
    m.add("ec.excluded_chunks", stats.excluded_chunks);
    m.add("ec.stored_bytes", stats.stored_bytes);
    m.add("ec.parity_bytes", stats.parity_bytes);
    m.add("ec.sent_bytes", stats.sent_bytes);
    m.observe("ec.rank_parity_bytes", static_cast<double>(stats.parity_bytes));
    if (rank == 0) m.set("ec.last.total_time_s", stats.total_time_s);
  }
  return stats;
}

core::RestoreResult ec_restore_rank(
    std::span<chunk::ChunkStore* const> stores, int rank,
    const EcConfig& config) {
  const int n = static_cast<int>(stores.size());
  if (rank < 0 || rank >= n) {
    throw std::out_of_range("ec_restore: rank outside store set");
  }
  const auto alive = [&](int r) {
    return stores[static_cast<std::size_t>(r)] != nullptr &&
           !stores[static_cast<std::size_t>(r)]->failed();
  };
  const core::StoreScan scan = core::newest_manifest(stores, rank);

  // Decoded-stream payloads, filled lazily on the first miss.
  std::unordered_map<hash::Fingerprint, std::vector<std::uint8_t>,
                     hash::FingerprintHash>
      decoded;
  bool decode_attempted = false;

  // The lookup below runs only once the assembler has found the manifest.
  const auto stream_manifest_for =
      [&](int member) -> std::optional<std::vector<chunk::ManifestEntry>> {
    const auto key = ec_stream_key(member, scan.manifest->epoch);
    for (int r = 0; r < n; ++r) {
      if (!alive(r)) continue;
      if (const auto* blob = stores[static_cast<std::size_t>(r)]->get_blob(key)) {
        return simmpi::from_bytes<std::vector<chunk::ManifestEntry>>(*blob);
      }
    }
    return std::nullopt;
  };

  const auto try_decode = [&] {
    if (decode_attempted) return;
    decode_attempted = true;
    const int group = ec_group_of(rank, config);
    const auto members = ec_group_members(group, n, config);
    const auto holders = ec_parity_holders(group, n, config);
    const int m_eff = static_cast<int>(members.size());

    // Stream manifests for every member (needed for stripe geometry).
    std::vector<std::vector<chunk::ManifestEntry>> streams(
        static_cast<std::size_t>(m_eff));
    std::uint64_t stripes = 0;
    for (int i = 0; i < m_eff; ++i) {
      const auto sm = stream_manifest_for(members[static_cast<std::size_t>(i)]);
      if (!sm.has_value()) return;  // undecodable: the miss stays lost
      streams[static_cast<std::size_t>(i)] = *sm;
      stripes = std::max(stripes, static_cast<std::uint64_t>(sm->size()));
    }
    if (stripes == 0) return;
    const std::uint64_t shard_len = stripes * config.chunk_bytes;

    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        static_cast<std::size_t>(m_eff + config.parity));
    // Data shards from surviving members.
    for (int i = 0; i < m_eff; ++i) {
      const int member = members[static_cast<std::size_t>(i)];
      if (!alive(member)) continue;
      std::vector<std::uint8_t> shard(shard_len, 0);
      bool complete = true;
      const auto& sm = streams[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < sm.size(); ++s) {
        const auto payload =
            stores[static_cast<std::size_t>(member)]->get(sm[s].fp);
        if (!payload.has_value() || payload->size() != sm[s].length) {
          complete = false;
          break;
        }
        std::copy(payload->begin(), payload->end(),
                  shard.begin() +
                      static_cast<std::ptrdiff_t>(s * config.chunk_bytes));
      }
      if (complete) shards[static_cast<std::size_t>(i)] = std::move(shard);
    }
    // Parity shards from surviving holders.
    for (int j = 0; j < config.parity; ++j) {
      const int holder = holders[static_cast<std::size_t>(j)];
      if (!alive(holder)) continue;
      const auto* blob = stores[static_cast<std::size_t>(holder)]->get_blob(
          ec_parity_key(group, j, scan.manifest->epoch));
      if (blob == nullptr) continue;
      const auto [header, shard] = unpack_parity(*blob);
      if (header.shard_len != shard_len) continue;  // stale epoch geometry
      shards[static_cast<std::size_t>(m_eff + j)] =
          std::vector<std::uint8_t>(shard.begin(), shard.end());
    }

    const ec::ReedSolomon rs(m_eff, config.parity);
    const auto data = rs.reconstruct_data(shards);
    for (int i = 0; i < m_eff; ++i) {
      const auto& sm = streams[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < sm.size(); ++s) {
        const auto* base = data[static_cast<std::size_t>(i)].data() +
                           s * config.chunk_bytes;
        decoded.try_emplace(
            sm[s].fp, std::vector<std::uint8_t>(base, base + sm[s].length));
      }
    }
  };

  // Own store, then the other alive stores, then the group's RS decode.
  return core::assemble_restore(
      stores, scan, rank,
      [&](const hash::Fingerprint& fp)
          -> std::optional<std::span<const std::uint8_t>> {
        try_decode();
        const auto it = decoded.find(fp);
        if (it == decoded.end()) return std::nullopt;
        return it->second;
      });
}

}  // namespace collrep::core
