// The decoupled parallel file system the paper's introduction argues
// against: the top level of a multi-level checkpoint scheme (related work
// [11], SCR/FTI style), below which sit local-only dumps and the partner
// replication of DUMP_OUTPUT.  The PFS survives every device loss, but all
// nodes share one aggregate ingest bandwidth, which is why collective
// dumps to it explode at scale — the paper's motivation, quantified by
// bench/motivation_pfs_dump.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "core/dump.hpp"
#include "core/restore.hpp"
#include "simmpi/collectives.hpp"

namespace collrep::ftrt {

// Decoupled storage system shared by the whole machine (GPFS stand-in).
// Content addressed like ChunkStore, but a single instance serves every
// rank and its ingest bandwidth is an aggregate, not per node.
class PfsStore {
 public:
  struct Model {
    double aggregate_write_bps = 1.0e9;  // shared by all nodes
    double aggregate_read_bps = 1.5e9;
    double request_latency_s = 1.0e-3;
  };

  PfsStore() : model_() {}
  explicit PfsStore(const Model& model) : model_(model) {}

  [[nodiscard]] const Model& model() const noexcept { return model_; }

  bool put(const hash::Fingerprint& fp,
           std::span<const std::uint8_t> payload) {
    std::scoped_lock lk(mu_);
    auto [it, inserted] = chunks_.try_emplace(fp);
    if (!inserted) return false;
    it->second.assign(payload.begin(), payload.end());
    stored_bytes_ += payload.size();
    return true;
  }

  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get(
      const hash::Fingerprint& fp) const {
    std::scoped_lock lk(mu_);
    const auto it = chunks_.find(fp);
    if (it == chunks_.end()) return std::nullopt;
    return std::span<const std::uint8_t>{it->second};
  }

  void put_manifest(chunk::Manifest manifest) {
    std::scoped_lock lk(mu_);
    auto& slot = manifests_[manifest.owner_rank];
    if (slot.has_value() && slot->epoch > manifest.epoch) return;
    slot = std::move(manifest);
  }

  [[nodiscard]] std::optional<chunk::Manifest> manifest_for(int rank) const {
    std::scoped_lock lk(mu_);
    const auto it = manifests_.find(rank);
    if (it == manifests_.end() || !it->second.has_value()) {
      return std::nullopt;
    }
    return it->second;
  }

  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    std::scoped_lock lk(mu_);
    return stored_bytes_;
  }

 private:
  Model model_;
  mutable std::mutex mu_;
  std::unordered_map<hash::Fingerprint, std::vector<std::uint8_t>,
                     hash::FingerprintHash>
      chunks_;
  std::map<int, std::optional<chunk::Manifest>> manifests_;
  std::uint64_t stored_bytes_ = 0;
};

// Collective PFS dump: every rank writes its (locally deduplicated) chunks
// and manifest to the shared store; the phase lasts total-bytes over the
// aggregate ingest bandwidth.  Returns the simulated dump time (aligned).
struct PfsDumpStats {
  std::uint64_t written_bytes = 0;  // this rank's contribution
  double total_time_s = 0.0;        // aligned across ranks
};

[[nodiscard]] PfsDumpStats pfs_dump(simmpi::Comm& comm, PfsStore& pfs,
                                    const chunk::Dataset& buffer,
                                    std::size_t chunk_bytes,
                                    hash::HashKind hash_kind,
                                    std::uint64_t epoch);

// Restores `rank` from the PFS alone.  No bench or example reads a PFS
// checkpoint back; this is the test oracle that reads pfs_dump's output
// and checks it against the dumped image.
[[nodiscard]] core::RestoreResult pfs_restore(const PfsStore& pfs, int rank);

}  // namespace collrep::ftrt
