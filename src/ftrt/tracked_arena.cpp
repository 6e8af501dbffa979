#include "ftrt/tracked_arena.hpp"

#include <cstring>

namespace collrep::ftrt {

TrackedArena::TrackedArena(std::size_t page_bytes, std::size_t block_pages)
    : page_bytes_(page_bytes), block_pages_(block_pages) {
  if (page_bytes == 0 || block_pages == 0) {
    throw std::invalid_argument("TrackedArena: sizes must be positive");
  }
}

std::span<std::uint8_t> TrackedArena::carve(Block& block,
                                            std::size_t pages) {
  std::uint8_t* base = block.storage.get() + block.used * page_bytes_;
  block.used += pages;
  live_pages_ += pages;
  std::memset(base, 0, pages * page_bytes_);
  return {base, pages * page_bytes_};
}

std::span<std::uint8_t> TrackedArena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  const std::size_t pages = (bytes + page_bytes_ - 1) / page_bytes_;

  // First fit: the first block whose free tail holds the request.
  for (auto& block : blocks_) {
    if (block.pages - block.used >= pages) return carve(block, pages);
  }

  // New block (oversized allocations get a dedicated block).  Left
  // uninitialized: carve() zeroes each page as it hands it out, so a rank
  // faults in only the pages it uses, not the whole block.
  Block block;
  block.pages = std::max(pages, block_pages_);
  block.storage =
      std::make_unique_for_overwrite<std::uint8_t[]>(block.pages * page_bytes_);
  blocks_.push_back(std::move(block));
  return carve(blocks_.back(), pages);
}

chunk::Dataset TrackedArena::snapshot() const {
  chunk::Dataset ds;
  for (const auto& block : blocks_) {
    if (block.used != 0) {
      ds.add_segment({block.storage.get(), block.used * page_bytes_});
    }
  }
  return ds;
}

}  // namespace collrep::ftrt
