// Restart path: rebuild a rank's dumped dataset from the surviving local
// stores.  This is what makes the replication factor meaningful — the
// paper's checkpoint-restart use case tolerates up to K-1 device failures,
// and the failure-injection tests drive exactly that property.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chunk/store.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

namespace detail {
[[nodiscard]] std::string manifest_lost_message(int rank, int consulted,
                                                int failed);
[[nodiscard]] std::string chunk_lost_message(const hash::Fingerprint* fp,
                                             int owner_rank, int consulted,
                                             int failed);
}  // namespace detail

// The degraded-restore errors carry enough to make a failing test
// actionable: which dataset, which chunk (fingerprint hex prefix), and how
// many stores were consulted vs. already failed when the search gave up.
// `stores_consulted`/`stores_failed` are -1 when the throw site did not
// track them (legacy call sites).
class ManifestLostError : public std::runtime_error {
 public:
  explicit ManifestLostError(int rank, int stores_consulted = -1,
                             int stores_failed = -1)
      : std::runtime_error(detail::manifest_lost_message(rank, stores_consulted,
                                                         stores_failed)),
        rank_(rank),
        consulted_(stores_consulted),
        failed_(stores_failed) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int stores_consulted() const noexcept { return consulted_; }
  [[nodiscard]] int stores_failed() const noexcept { return failed_; }

 private:
  int rank_;
  int consulted_;
  int failed_;
};

class ChunkLostError : public std::runtime_error {
 public:
  ChunkLostError()
      : std::runtime_error(detail::chunk_lost_message(nullptr, -1, -1, -1)) {}

  ChunkLostError(const hash::Fingerprint& fp, int owner_rank,
                 int stores_consulted = -1, int stores_failed = -1)
      : std::runtime_error(detail::chunk_lost_message(
            &fp, owner_rank, stores_consulted, stores_failed)),
        fp_(fp),
        has_fp_(true),
        owner_rank_(owner_rank),
        consulted_(stores_consulted),
        failed_(stores_failed) {}

  // Fingerprint of the missing chunk; all-zero when unknown (has_fp()).
  [[nodiscard]] const hash::Fingerprint& fp() const noexcept { return fp_; }
  [[nodiscard]] bool has_fp() const noexcept { return has_fp_; }
  // Rank whose dataset needed the chunk; -1 when unknown.
  [[nodiscard]] int owner_rank() const noexcept { return owner_rank_; }
  [[nodiscard]] int stores_consulted() const noexcept { return consulted_; }
  [[nodiscard]] int stores_failed() const noexcept { return failed_; }

 private:
  hash::Fingerprint fp_;
  bool has_fp_ = false;
  int owner_rank_ = -1;
  int consulted_ = -1;
  int failed_ = -1;
};

struct RestoreResult {
  std::vector<std::vector<std::uint8_t>> segments;
  std::uint64_t chunks_from_own_store = 0;
  std::uint64_t chunks_from_remote_stores = 0;
  std::uint64_t bytes_from_own_store = 0;
  std::uint64_t bytes_from_remote_stores = 0;
};

// Rebuilds `rank`'s most recent dump from `stores` (index == rank).  Failed
// stores are skipped; throws ManifestLostError / ChunkLostError when the
// failure pattern exceeds what the replication factor can tolerate, and
// std::runtime_error for an inconsistent manifest (segment sizes that do
// not add up to its entries, or a chunk whose length differs from its
// entry) before allocating from its claims.  Stores must be payload mode.
[[nodiscard]] RestoreResult restore_rank(
    std::span<chunk::ChunkStore* const> stores, int rank);

struct CollectiveRestoreStats {
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  // Aligned completion time of the collective restart (same on all ranks).
  double total_time_s = 0.0;
};

// RESTORE_INPUT: the collective restart counterpart of DUMP_OUTPUT.
// Every rank rebuilds its own most recent dump; local reads are charged at
// HDD read rate, remote fetches additionally traverse the network.  Must
// be called by all ranks of the communicator.
[[nodiscard]] std::pair<RestoreResult, CollectiveRestoreStats> restore_input(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores);

}  // namespace collrep::core
