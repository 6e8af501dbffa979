// ChunkStore: one rank's local storage device, content addressed.
//
// kPayload mode keeps chunk bytes (tests, examples, restore); kAccounting
// mode keeps only fingerprints and byte counters so 408-rank benches fit in
// RAM.  A store can be failed (node loss) — reads then behave as if the
// device were gone, which is what the restore path and the failure-injection
// tests exercise.
//
// Index layout: chunks live in a slot vector in insertion order (the
// fingerprint, its length and, in payload mode, its bytes); lookup goes
// through an open-addressing table of 4-byte slot indices, linearly probed
// from a Fibonacci hash of the fingerprint's 8-byte prefix and kept at most
// half full.  A probe compares full fingerprints only at occupied buckets,
// so fingerprints sharing a prefix stay distinct.  Growing the slot vector
// moves each payload vector without reallocating its bytes, so a span from
// get() stays valid across later puts into the same store (until clear()).
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "chunk/manifest.hpp"
#include "hash/fingerprint.hpp"

namespace collrep::chunk {

enum class StoreMode : std::uint8_t {
  kPayload,     // keep chunk bytes
  kAccounting,  // keep fingerprints + sizes only
};

class StoreFailedError : public std::runtime_error {
 public:
  StoreFailedError() : std::runtime_error("chunk store has failed") {}
};

class ChunkStore {
 public:
  explicit ChunkStore(StoreMode mode = StoreMode::kPayload) : mode_(mode) {}

  [[nodiscard]] StoreMode mode() const noexcept { return mode_; }

  // Stores a chunk; returns true when the fingerprint was not yet present
  // (content addressing makes duplicate puts free except for the lookup).
  bool put(const hash::Fingerprint& fp, std::span<const std::uint8_t> payload) {
    check_alive();
    Slot* slot = insert(fp, static_cast<std::uint32_t>(payload.size()));
    if (slot == nullptr) return false;
    if (mode_ == StoreMode::kPayload) {
      slot->payload.assign(payload.begin(), payload.end());
    }
    return true;
  }

  // Accounting-mode put: records presence and length without a payload.
  bool put_accounted(const hash::Fingerprint& fp, std::uint32_t length) {
    check_alive();
    if (mode_ == StoreMode::kPayload) {
      throw std::logic_error(
          "ChunkStore: put_accounted() requires accounting mode");
    }
    return insert(fp, length) != nullptr;
  }

  [[nodiscard]] bool contains(const hash::Fingerprint& fp) const {
    check_alive();
    return find(fp) != nullptr;
  }

  // Payload of a stored chunk; nullopt if absent.  Throws in accounting
  // mode (no payloads retained) and when the store has failed.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get(
      const hash::Fingerprint& fp) const {
    check_alive();
    if (mode_ != StoreMode::kPayload) {
      throw std::logic_error("ChunkStore: get() requires payload mode");
    }
    const Slot* slot = find(fp);
    if (slot == nullptr) return std::nullopt;
    return std::span<const std::uint8_t>{slot->payload};
  }

  [[nodiscard]] std::optional<std::uint32_t> chunk_length(
      const hash::Fingerprint& fp) const {
    check_alive();
    const Slot* slot = find(fp);
    if (slot == nullptr) return std::nullopt;
    return slot->length;
  }

  // -- named blobs ------------------------------------------------------------
  // Auxiliary objects that are not content addressed (erasure-coded parity
  // shards, stream manifests).  Last write wins.
  void put_blob(const std::string& key, std::vector<std::uint8_t> bytes) {
    check_alive();
    auto [it, inserted] = blobs_.insert_or_assign(key, std::move(bytes));
    (void)it;
    (void)inserted;
  }

  [[nodiscard]] const std::vector<std::uint8_t>* get_blob(
      const std::string& key) const {
    check_alive();
    const auto it = blobs_.find(key);
    return it == blobs_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::uint64_t blob_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& [k, v] : blobs_) sum += v.size();
    return sum;
  }

  void put_manifest(Manifest manifest) {
    check_alive();
    auto& slot = manifests_[manifest.owner_rank];
    if (slot.has_value() && slot->epoch > manifest.epoch) return;
    slot = std::move(manifest);
  }

  [[nodiscard]] const Manifest* manifest_for(int owner_rank) const {
    check_alive();
    const auto it = manifests_.find(owner_rank);
    if (it == manifests_.end() || !it->second.has_value()) return nullptr;
    return &*it->second;
  }

  // Removes and returns the manifest held for `owner_rank` (nullopt if
  // none).  The shrink rebalance uses this to re-key surviving manifests
  // under the post-shrink dense numbering without copying them.
  [[nodiscard]] std::optional<Manifest> take_manifest(int owner_rank) {
    check_alive();
    const auto it = manifests_.find(owner_rank);
    if (it == manifests_.end()) return std::nullopt;
    std::optional<Manifest> out = std::move(it->second);
    manifests_.erase(it);
    return out;
  }

  // Visits every held manifest as (owner_rank, manifest), ascending by
  // owner rank; throws if failed.  The recovery service uses this to build
  // the post-shrink chunk requirement map.
  template <class Fn>
  void for_each_manifest(Fn&& fn) const {
    check_alive();
    for (const auto& [owner, slot] : manifests_) {
      if (slot.has_value()) fn(owner, *slot);
    }
  }

  // -- failure injection ----------------------------------------------------
  // Two recovery modes model two distinct hardware outcomes:
  //  * recover(): transient outage (power cut, controller reset, network
  //    partition) — the device comes back with its pre-failure contents
  //    intact, so earlier replicas silently resurface;
  //  * recover_empty(): permanent device loss — the node is replaced with a
  //    blank disk, so the store rejoins alive but holding nothing and the
  //    repair scrub (core::repair_replicas) must re-replicate what it
  //    should hold.
  // The failure-injection tests use recover() for blip scenarios and
  // recover_empty() for the ReStore-style "re-replicate after recovery"
  // scenarios.
  void fail() noexcept { failed_ = true; }
  void recover() noexcept { failed_ = false; }
  void recover_empty() {
    wipe();
    failed_ = false;
  }
  // Drops all contents (chunks, manifests, blobs) without changing the
  // failed flag; models a scrubbed or replaced medium.
  void wipe() { clear(); }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  // Scrub iteration (repair audit): visits every stored chunk as
  // (fingerprint, length).  Order is unspecified; throws if failed.
  template <class Fn>
  void for_each_chunk(Fn&& fn) const {
    check_alive();
    for (const Slot& slot : slots_) fn(slot.fp, slot.length);
  }

  // -- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return stored_bytes_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return slots_.size();
  }

  void clear() {
    slots_ = {};
    index_ = {};
    manifests_.clear();
    blobs_.clear();
    stored_bytes_ = 0;
  }

 private:
  void check_alive() const {
    if (failed_) throw StoreFailedError{};
  }

  struct Slot {
    hash::Fingerprint fp;
    std::uint32_t length = 0;
    std::vector<std::uint8_t> payload;  // empty in accounting mode
  };
  // Slot-vector growth must move payload vectors, never copy them, or
  // spans handed out by get() would dangle.
  static_assert(std::is_nothrow_move_constructible_v<Slot>);

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  // First bucket of `fp`'s probe sequence (index_ is a power of two).
  [[nodiscard]] std::size_t home(const hash::Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(
        (fp.prefix64() * 0x9e3779b97f4a7c15ull) >>
        (64 - std::countr_zero(index_.size())));
  }

  // Bucket holding `fp`, or the empty bucket that ends its probe sequence
  // (the table is at most half full, so one always exists).
  [[nodiscard]] std::size_t probe(const hash::Fingerprint& fp) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t b = home(fp);
    while (index_[b] != kEmpty && slots_[index_[b]].fp != fp) {
      b = (b + 1) & mask;
    }
    return b;
  }

  [[nodiscard]] const Slot* find(const hash::Fingerprint& fp) const {
    if (index_.empty()) return nullptr;
    const std::uint32_t s = index_[probe(fp)];
    return s == kEmpty ? nullptr : &slots_[s];
  }

  // Appends a slot for `fp` unless present; nullptr when it was.
  Slot* insert(const hash::Fingerprint& fp, std::uint32_t length) {
    if (index_.empty()) grow();
    std::size_t b = probe(fp);
    if (index_[b] != kEmpty) return nullptr;
    if (2 * (slots_.size() + 1) > index_.size()) {
      grow();
      b = probe(fp);
    }
    index_[b] = static_cast<std::uint32_t>(slots_.size());
    Slot& slot = slots_.emplace_back();
    slot.fp = fp;
    slot.length = length;
    stored_bytes_ += length;
    return &slot;
  }

  // Doubles the bucket table and re-threads every slot into it.
  void grow() {
    index_.assign(index_.empty() ? 16 : 2 * index_.size(), kEmpty);
    const std::size_t mask = index_.size() - 1;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      std::size_t b = home(slots_[s].fp);
      while (index_[b] != kEmpty) b = (b + 1) & mask;
      index_[b] = static_cast<std::uint32_t>(s);
    }
  }

  StoreMode mode_;
  bool failed_ = false;
  std::vector<Slot> slots_;            // insertion order
  std::vector<std::uint32_t> index_;   // slot indices; kEmpty = free bucket
  std::map<int, std::optional<Manifest>> manifests_;
  std::map<std::string, std::vector<std::uint8_t>> blobs_;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace collrep::chunk
