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
                                            std::size_t first_page,
                                            std::size_t pages) {
  for (std::size_t p = first_page; p < first_page + pages; ++p) {
    block.used[p] = true;
  }
  live_pages_ += pages;
  std::uint8_t* base = block.storage.get() + first_page * page_bytes_;
  std::memset(base, 0, pages * page_bytes_);
  return {base, pages * page_bytes_};
}

std::span<std::uint8_t> TrackedArena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  const std::size_t pages = (bytes + page_bytes_ - 1) / page_bytes_;

  if (pages <= block_pages_) {
    // First-fit run search over existing blocks.
    for (auto& block : blocks_) {
      std::size_t run = 0;
      for (std::size_t p = 0; p < block.used.size(); ++p) {
        run = block.used[p] ? 0 : run + 1;
        if (run == pages) return carve(block, p + 1 - pages, pages);
      }
    }
  }

  // New block (oversized allocations get a dedicated block).  Left
  // uninitialized: carve() zeroes each page as it hands it out, so a rank
  // faults in only the pages it uses, not the whole block.
  const std::size_t new_pages = std::max(pages, block_pages_);
  Block block;
  block.storage =
      std::make_unique_for_overwrite<std::uint8_t[]>(new_pages * page_bytes_);
  block.used.assign(new_pages, false);
  blocks_.push_back(std::move(block));
  return carve(blocks_.back(), 0, pages);
}

void TrackedArena::deallocate(std::span<const std::uint8_t> region) {
  for (auto& block : blocks_) {
    const std::uint8_t* begin = block.storage.get();
    const std::uint8_t* end = begin + block.used.size() * page_bytes_;
    if (region.data() < begin || region.data() >= end) continue;
    const auto offset = static_cast<std::size_t>(region.data() - begin);
    if (offset % page_bytes_ != 0) {
      throw std::invalid_argument("TrackedArena: region not page aligned");
    }
    const std::size_t first = offset / page_bytes_;
    const std::size_t pages = (region.size() + page_bytes_ - 1) / page_bytes_;
    for (std::size_t p = first; p < first + pages; ++p) {
      if (!block.used[p]) {
        throw std::invalid_argument("TrackedArena: double free");
      }
      block.used[p] = false;
    }
    live_pages_ -= pages;
    return;
  }
  throw std::invalid_argument("TrackedArena: region not from this arena");
}

chunk::Dataset TrackedArena::snapshot() const {
  chunk::Dataset ds;
  for (const auto& block : blocks_) {
    std::size_t run_start = 0;
    bool in_run = false;
    for (std::size_t p = 0; p <= block.used.size(); ++p) {
      const bool used = p < block.used.size() && block.used[p];
      if (used && !in_run) {
        run_start = p;
        in_run = true;
      } else if (!used && in_run) {
        ds.add_segment({block.storage.get() + run_start * page_bytes_,
                        (p - run_start) * page_bytes_});
        in_run = false;
      }
    }
  }
  return ds;
}

}  // namespace collrep::ftrt
