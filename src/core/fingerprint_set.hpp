// The two flat fingerprint sets behind CollRep's reductions.
//
// BoundedFpSet is the reduction operand of the paper's collective
// deduplication (§III-B).  It maps fingerprints to (frequency, designated
// ranks) and enforces two bounds during every HMERGE:
//   * at most F fingerprints survive (the most frequent; the rest are
//     treated as unique — the paper's complexity-bounding relaxation), and
//   * at most K designated ranks per fingerprint, truncated so that the
//     *most loaded* ranks are dropped first, which embeds load balancing
//     into the reduction ("uniform rank assignment").
// A per-rank designation-count vector travels with the set so truncation
// decisions stay consistent as the reduction ascends the tree.
//
// ReplicaHealthSet is the operand of the repair / recovery audit: it maps
// fingerprints to (replica count, chunk length, holder ranks), keeping
// holders only while a fingerprint is below K.
//
// Both store a fingerprint-sorted flat vector of fixed-size entries whose
// rank lists live in one shared pool, and both run on one engine: merges
// are planned by the dispatched hmerge kernel over 64-bit fingerprint
// prefixes and executed as bulk run copies plus match-only
// reconciliation (no rehashing, no per-entry allocation), lookups are a
// binary search over contiguous memory, and the archive delta-codes the
// sorted fingerprints with varint fields.  add_local() is an O(1) append;
// a set seals itself (sort + duplicate check) lazily at the first lookup,
// merge, bound enforcement, or serialization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace collrep::core {

struct FpEntry {
  hash::Fingerprint fp{};
  std::uint32_t freq = 0;      // number of processes holding the chunk
  std::uint32_t rank_off = 0;  // into the set's shared rank pool
  std::uint32_t rank_len = 0;  // designated ranks, sorted, <= K
};

struct MergeStats {
  std::uint64_t entries_scanned = 0;
  std::uint64_t entries_dropped_f = 0;   // victims of the top-F bound
  std::uint64_t ranks_dropped_load = 0;  // victims of the K-truncation
};

class BoundedFpSet {
 public:
  BoundedFpSet() = default;
  BoundedFpSet(std::uint32_t f_cap, int k, int nranks);

  // Registers one locally unique fingerprint of `rank` (freq 1).  O(1)
  // append; a duplicate fingerprint is diagnosed (std::logic_error) at the
  // next seal point — enforce_f(), merge_from(), find(), or save().  Call
  // enforce_f() once after the last add_local (adds skip the F bound so
  // leaf construction stays linear).
  void add_local(const hash::Fingerprint& fp, int rank);
  MergeStats enforce_f();

  // HMERGE: folds `other` into *this, then re-enforces both bounds.
  //
  // The key-intersection scan runs through the dispatched hmerge kernel
  // (src/kernels) over 64-bit big-endian fingerprint prefixes: the kernel
  // plans the merge as a tag string, take-runs become bulk entry copies,
  // and the scalar freq/rank reconciliation touches only matched entries.
  // Entries whose prefixes collide within one input (never seen with real
  // digests, but legal) are planned by a full-fingerprint comparison
  // pass instead.
  MergeStats merge_from(BoundedFpSet&& other);

  // K-way HMERGE: folds all of `others` into *this in one multi-way pass
  // — a reduction-tree node with several children merges every child
  // against the accumulated set once, instead of rewriting the
  // accumulator per child as iterated merge_from calls would.  Both
  // bounds are re-enforced once, against the combined designation loads,
  // so results can differ from iterated pairwise merges when the K or F
  // bound binds at an intermediate step (the bounds themselves still
  // hold).  entries_scanned sums the incoming entry counts.
  MergeStats merge_many(std::vector<BoundedFpSet>&& others);

  // Drops frequency-1 entries.  Applied to the fully reduced set before
  // broadcast: a singleton's only holder behaves identically whether the
  // fingerprint is in the view (designated, D=1 < K, sends K-1 top-ups)
  // or absent (stores + sends K-1 copies), while no other rank holds it —
  // so pruning preserves semantics, shrinks the broadcast, and stops
  // singletons from crowding frequent fingerprints out of the F slots.
  // Returns the number of entries removed.
  std::size_t prune_singletons();

  // Binary search over the sorted entry vector; nullptr when absent.  The
  // pointer is invalidated by any mutating call.
  [[nodiscard]] const FpEntry* find(const hash::Fingerprint& fp) const;

  // The designated ranks of an entry obtained from find()/entries().
  [[nodiscard]] std::span<const std::int32_t> ranks(
      const FpEntry& entry) const noexcept {
    return {rank_pool_.data() + entry.rank_off, entry.rank_len};
  }

  // All entries, fingerprint-ascending.
  [[nodiscard]] std::span<const FpEntry> entries() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint32_t f_cap() const noexcept { return f_cap_; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(rank_load_.size());
  }
  // Designation count per rank ("how many fingerprints is rank i
  // responsible for"), maintained incrementally across merges.
  [[nodiscard]] std::span<const std::uint32_t> rank_load() const noexcept {
    return rank_load_;
  }

  // Verifies internal consistency (tests): load vector matches entries,
  // rank lists sorted/unique/bounded, entries sorted, size within F.
  [[nodiscard]] bool check_invariants() const;

  friend void save(simmpi::OArchive& ar, const BoundedFpSet& s);
  friend void load(simmpi::IArchive& ar, BoundedFpSet& s);

 private:
  // Sorts appended entries by fingerprint and rejects duplicates.  Lazily
  // invoked from const accessors (single-owner objects, not thread-safe).
  void seal() const;
  // Keeps the K least-loaded designated ranks of `scratch` (ties toward
  // the lower rank id), releasing the dropped ranks' load.
  void truncate_ranks(std::vector<std::int32_t>& scratch, MergeStats& stats);
  // Drops least frequent entries until size() <= F.
  void truncate_to_f(MergeStats& stats);

  std::uint32_t f_cap_ = 0;
  int k_ = 1;
  mutable bool sealed_ = true;
  mutable std::vector<FpEntry> entries_;  // fp-ascending once sealed
  std::vector<std::int32_t> rank_pool_;
  std::vector<std::uint32_t> rank_load_;
};

void save(simmpi::OArchive& ar, const BoundedFpSet& s);
void load(simmpi::IArchive& ar, BoundedFpSet& s);

struct HealthEntry {
  hash::Fingerprint fp{};
  std::uint32_t count = 0;       // replicas across contributing alive stores
  std::uint32_t length = 0;      // chunk payload bytes
  std::uint32_t holder_off = 0;  // into the set's shared holder pool
  std::uint32_t holder_len = 0;  // sorted ranks; 0 once count >= K
};

// Reduction operand of the repair / recovery audit: fingerprint -> replica
// health.  Holder lists are kept only while a fingerprint is still below
// K — once the count reaches K the entry is "satisfied" and its holders
// are dropped, so the merged set stays small in the healthy case (holders
// never exceed K-1 per under-replicated entry).
class ReplicaHealthSet {
 public:
  ReplicaHealthSet() = default;
  explicit ReplicaHealthSet(int k) : k_(k) {}

  // Registers one chunk held by `rank`'s alive store (count 1).  O(1)
  // append; a fingerprint added twice is diagnosed (std::logic_error) at
  // the next seal point — merge_from(), find(), entries(), or save().
  void add_local(const hash::Fingerprint& fp, std::uint32_t length, int rank);

  // HMERGE analogue on BoundedFpSet's engine: folds `other` into *this,
  // summing counts, unioning holders, and dropping holder lists that
  // reached K.  Returns the number of entries scanned (`other`'s size,
  // for the merge cost model).
  std::uint64_t merge_from(ReplicaHealthSet&& other);

  // Binary search; nullptr when absent.  The pointer is invalidated by
  // any mutating call.
  [[nodiscard]] const HealthEntry* find(const hash::Fingerprint& fp) const;

  // The holders of an entry obtained from find()/entries(): sorted ranks,
  // empty once the entry reached K.
  [[nodiscard]] std::span<const std::int32_t> holders(
      const HealthEntry& entry) const noexcept {
    return {holder_pool_.data() + entry.holder_off, entry.holder_len};
  }

  // All entries, fingerprint-ascending.
  [[nodiscard]] std::span<const HealthEntry> entries() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] int k() const noexcept { return k_; }

  friend void save(simmpi::OArchive& ar, const ReplicaHealthSet& s);
  friend void load(simmpi::IArchive& ar, ReplicaHealthSet& s);

 private:
  void seal() const;

  int k_ = 1;
  mutable bool sealed_ = true;
  mutable std::vector<HealthEntry> entries_;  // fp-ascending once sealed
  std::vector<std::int32_t> holder_pool_;
};

void save(simmpi::OArchive& ar, const ReplicaHealthSet& s);
void load(simmpi::IArchive& ar, ReplicaHealthSet& s);

}  // namespace collrep::core
