// TrackedArena: page-tracking allocator standing in for the paper's
// jemalloc-based transparent memory capture (§IV).
//
// AC-FTE's transparent mode snapshots every memory page the application
// allocated; TrackedArena provides the same artifact without interposing
// on malloc: applications allocate their arrays from the arena, and
// snapshot() returns a chunk::Dataset whose segments are the live
// page runs — page-aligned, page-granular, in deterministic order.
// Checkpointed state lives for the whole run, so the arena never frees:
// each block's used pages are a prefix of the block.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "chunk/dataset.hpp"

namespace collrep::ftrt {

class TrackedArena {
 public:
  // `block_pages` is the allocation granule the arena requests from the
  // system (jemalloc chunk analogue).
  explicit TrackedArena(std::size_t page_bytes = 4096,
                        std::size_t block_pages = 1024);

  TrackedArena(const TrackedArena&) = delete;
  TrackedArena& operator=(const TrackedArena&) = delete;

  // Allocates `bytes` rounded up to whole pages; zero-initialized.
  [[nodiscard]] std::span<std::uint8_t> allocate(std::size_t bytes);

  template <class T>
  [[nodiscard]] std::span<T> allocate_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena arrays must be trivially copyable (checkpointable)");
    auto raw = allocate(count * sizeof(T));
    return {reinterpret_cast<T*>(raw.data()), count};
  }

  // The checkpoint payload: every live page, one segment per block.
  [[nodiscard]] chunk::Dataset snapshot() const;

  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }
  [[nodiscard]] std::size_t live_pages() const noexcept { return live_pages_; }
  [[nodiscard]] std::uint64_t live_bytes() const noexcept {
    return static_cast<std::uint64_t>(live_pages_) * page_bytes_;
  }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> storage;
    std::size_t pages = 0;  // capacity
    std::size_t used = 0;   // pages [0, used) are handed out
  };

  [[nodiscard]] std::span<std::uint8_t> carve(Block& block,
                                              std::size_t pages);

  std::size_t page_bytes_;
  std::size_t block_pages_;
  std::vector<Block> blocks_;
  std::size_t live_pages_ = 0;
};

}  // namespace collrep::ftrt
