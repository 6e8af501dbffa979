#include "core/fingerprint_set.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"

namespace collrep::core {

namespace {

constexpr std::size_t kFpBytes = hash::Fingerprint::kBytes;

// The 20 fingerprint bytes viewed as one big-endian 160-bit integer,
// split into limbs: two u64 + one u32, most significant first.  Byte-
// lexicographic order == big-endian numeric order, which is exactly the
// order entries are sorted in.
struct FpLimbs {
  std::uint64_t w0;
  std::uint64_t w1;
  std::uint32_t w2;
};

std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return __builtin_bswap64(v);
}

FpLimbs load_limbs(const std::uint8_t* p) noexcept {
  std::uint32_t w2 = 0;
  std::memcpy(&w2, p + 16, sizeof w2);
  return {load_be64(p), load_be64(p + 8), __builtin_bswap32(w2)};
}

void store_limbs(std::uint8_t* p, const FpLimbs& l) noexcept {
  const std::uint64_t w0 = __builtin_bswap64(l.w0);
  const std::uint64_t w1 = __builtin_bswap64(l.w1);
  const std::uint32_t w2 = __builtin_bswap32(l.w2);
  std::memcpy(p, &w0, sizeof w0);
  std::memcpy(p + 8, &w1, sizeof w1);
  std::memcpy(p + 16, &w2, sizeof w2);
}

// a - b over the 160-bit integers, limb-at-a-time with borrow
// propagation (the byte loop this replaces was a hot spot of
// serialization at large F).
FpLimbs limbs_sub(const FpLimbs& a, const FpLimbs& b) noexcept {
  FpLimbs d{};
  d.w2 = a.w2 - b.w2;
  const std::uint64_t borrow2 = a.w2 < b.w2 ? 1 : 0;
  std::uint64_t borrow1 = __builtin_sub_overflow(a.w1, b.w1, &d.w1) ? 1 : 0;
  borrow1 += __builtin_sub_overflow(d.w1, borrow2, &d.w1) ? 1 : 0;
  d.w0 = a.w0 - b.w0 - borrow1;
  return d;
}

// sum = a + b; returns the carry out of the top limb.
bool limbs_add(const FpLimbs& a, const FpLimbs& b, FpLimbs& sum) noexcept {
  sum.w2 = a.w2 + b.w2;
  const std::uint64_t carry2 = sum.w2 < a.w2 ? 1 : 0;
  std::uint64_t carry1 = __builtin_add_overflow(a.w1, b.w1, &sum.w1) ? 1 : 0;
  carry1 += __builtin_add_overflow(sum.w1, carry2, &sum.w1) ? 1 : 0;
  bool carry0 = __builtin_add_overflow(a.w0, b.w0, &sum.w0);
  carry0 |= __builtin_add_overflow(sum.w0, carry1, &sum.w0);
  return carry0;
}

// Order-preserving 64-bit prefix of a fingerprint: the first 8 bytes
// read big-endian.  fp_a < fp_b implies key(a) <= key(b); equal keys do
// NOT imply equal fingerprints (the callers handle both collision
// directions).
std::uint64_t prefix_key(const hash::Fingerprint& fp) noexcept {
  return load_be64(fp.bytes().data());
}

// ---- The flat-set engine ----------------------------------------------------
// Both sets are an fp-sorted vector of fixed-size entries whose rank lists
// are slices of one shared pool.  FlatTraits names, per entry type, the
// pool slice and the varint fields the archive carries between the
// fingerprint delta and the rank list.  Sealing, lookup and the archive
// serve both sets; the pairwise merge (plan_merge, merge_flat) serves
// ReplicaHealthSet, whose merge_from is its only caller.

template <class E>
struct FlatTraits;

template <>
struct FlatTraits<FpEntry> {
  static constexpr const char* kName = "BoundedFpSet";
  static constexpr auto kOff = &FpEntry::rank_off;
  static constexpr auto kLen = &FpEntry::rank_len;
  static constexpr std::size_t kFields = 1;    // freq
  static constexpr std::size_t kMinRanks = 1;  // >= one designated rank
  static void put_fields(simmpi::OArchive& ar, const FpEntry& e) {
    ar.put_varint(e.freq);
  }
  static void get_fields(simmpi::IArchive& ar, FpEntry& e) {
    e.freq = static_cast<std::uint32_t>(ar.get_varint());
  }
};

template <>
struct FlatTraits<HealthEntry> {
  static constexpr const char* kName = "ReplicaHealthSet";
  static constexpr auto kOff = &HealthEntry::holder_off;
  static constexpr auto kLen = &HealthEntry::holder_len;
  static constexpr std::size_t kFields = 2;    // count, length
  static constexpr std::size_t kMinRanks = 0;  // satisfied: no holders
  static void put_fields(simmpi::OArchive& ar, const HealthEntry& e) {
    ar.put_varint(e.count);
    ar.put_varint(e.length);
  }
  static void get_fields(simmpi::IArchive& ar, HealthEntry& e) {
    e.count = static_cast<std::uint32_t>(ar.get_varint());
    e.length = static_cast<std::uint32_t>(ar.get_varint());
  }
};

[[noreturn]] void corrupt(const char* set, const char* what) {
  throw std::runtime_error(std::string(set) + ": " + what);
}

// Sorts appended entries by fingerprint and rejects duplicates.
template <class E>
void seal_entries(std::vector<E>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const E& a, const E& b) { return a.fp < b.fp; });
  const auto dup = std::adjacent_find(
      entries.begin(), entries.end(),
      [](const E& a, const E& b) { return a.fp == b.fp; });
  if (dup != entries.end()) {
    throw std::logic_error(std::string(FlatTraits<E>::kName) +
                           ": duplicate local fingerprint");
  }
}

template <class E>
const E* find_entry(const std::vector<E>& entries, const hash::Fingerprint& fp) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), fp,
      [](const E& e, const hash::Fingerprint& key) { return e.fp < key; });
  if (it == entries.end() || it->fp != fp) return nullptr;
  return &*it;
}

template <class E>
std::size_t live_ranks(const std::vector<E>& entries) {
  std::size_t n = 0;
  for (const E& e : entries) n += e.*FlatTraits<E>::kLen;
  return n;
}

// Fills `keys` with the prefix key of every entry.  Returns false when
// two adjacent (fp-sorted) entries collide on the prefix — then the keys
// are not strictly ascending and the hmerge kernel precondition fails.
template <class E>
bool build_keys(const std::vector<E>& entries,
                std::vector<std::uint64_t>& keys) {
  keys.resize(entries.size());
  bool strict = true;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint64_t k = prefix_key(entries[i].fp);
    strict &= (i == 0) | (k > prev);
    keys[i] = k;
    prev = k;
  }
  return strict;
}

// Plans the merge of two sealed entry vectors as a tag string (take-A,
// take-B, match) and returns its length.  The dispatched hmerge kernel
// plans over prefix keys; when either input holds two fingerprints that
// share their first 8 bytes its precondition fails, and a full-
// fingerprint two-pointer pass writes the same tag alphabet instead.
template <class E>
std::size_t plan_merge(const std::vector<E>& a, const std::vector<E>& b,
                       std::vector<std::uint8_t>& tags) {
  tags.resize(a.size() + b.size());
  std::vector<std::uint64_t> ka;
  std::vector<std::uint64_t> kb;
  if (build_keys(a, ka) && build_keys(b, kb)) {
    return kernels::dispatch()
        .hmerge(ka.data(), ka.size(), kb.data(), kb.size(), tags.data())
        .out_len;
  }
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t t = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia].fp < b[ib].fp) {
      tags[t++] = kernels::kHmergeTakeA;
      ++ia;
    } else if (b[ib].fp < a[ia].fp) {
      tags[t++] = kernels::kHmergeTakeB;
      ++ib;
    } else {
      tags[t++] = kernels::kHmergeMatch;
      ++ia;
      ++ib;
    }
  }
  for (; ia < a.size(); ++ia) tags[t++] = kernels::kHmergeTakeA;
  for (; ib < b.size(); ++ib) tags[t++] = kernels::kHmergeTakeB;
  return t;
}

// Folds the sealed (`b`, `b_pool`) into the sealed (`a`, `a_pool`) along a
// plan_merge() tag string.  Take-runs become one bulk entry copy each (the
// entry payload moves without being inspected; only pool slices are
// relocated), and `reconcile(ea, ranks_a, eb, ranks_b, pool)` runs only on
// matched entries: it appends the merged rank list to `pool` and returns
// the merged entry, whose pool slice is filled in here.  A match tag
// certifies equal *prefixes*; the full fingerprints are compared here and
// a cross-input prefix collision emits both entries, fingerprint-
// ascending, instead of fusing them.
template <class E, class Reconcile>
void merge_flat(std::vector<E>& a, std::vector<std::int32_t>& a_pool,
                const std::vector<E>& b, const std::vector<std::int32_t>& b_pool,
                Reconcile&& reconcile) {
  using T = FlatTraits<E>;
  std::vector<std::uint8_t> tags;
  const std::size_t out_len = plan_merge(a, b, tags);

  std::vector<E> merged;
  merged.reserve(a.size() + b.size());
  std::vector<std::int32_t> pool;
  pool.reserve(live_ranks(a) + live_ranks(b));

  const auto slice = [](const std::vector<std::int32_t>& src_pool,
                        const E& e) {
    return std::span<const std::int32_t>(src_pool.data() + e.*T::kOff,
                                         e.*T::kLen);
  };
  const auto copy_run = [&](const std::vector<E>& src,
                            const std::vector<std::int32_t>& src_pool,
                            std::size_t first, std::size_t len) {
    const std::size_t at = merged.size();
    merged.insert(merged.end(), src.begin() + first, src.begin() + first + len);
    for (std::size_t t = 0; t < len; ++t) {
      E& e = merged[at + t];
      const auto r = slice(src_pool, e);
      e.*T::kOff = static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), r.begin(), r.end());
    }
  };

  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t t = 0;
  while (t < out_len) {
    const std::uint8_t tag = tags[t];
    std::size_t run = 1;
    while (t + run < out_len && tags[t + run] == tag) ++run;
    t += run;
    if (tag == kernels::kHmergeTakeA) {
      copy_run(a, a_pool, ia, run);
      ia += run;
      continue;
    }
    if (tag == kernels::kHmergeTakeB) {
      copy_run(b, b_pool, ib, run);
      ib += run;
      continue;
    }
    for (std::size_t x = 0; x < run; ++x, ++ia, ++ib) {
      const E& ea = a[ia];
      const E& eb = b[ib];
      if (ea.fp < eb.fp) {
        copy_run(a, a_pool, ia, 1);
        copy_run(b, b_pool, ib, 1);
        continue;
      }
      if (eb.fp < ea.fp) {
        copy_run(b, b_pool, ib, 1);
        copy_run(a, a_pool, ia, 1);
        continue;
      }
      const std::size_t off = pool.size();
      E out = reconcile(ea, slice(a_pool, ea), eb, slice(b_pool, eb), pool);
      out.*T::kOff = static_cast<std::uint32_t>(off);
      out.*T::kLen = static_cast<std::uint32_t>(pool.size() - off);
      merged.push_back(out);
    }
  }

  a = std::move(merged);
  a_pool = std::move(pool);
}

// Entry stream shared by both sets' archives (canonical: entries
// fingerprint-ascending, so equal sets serialize to identical bytes):
//   u64 entry count, then per entry, delta-coded against the previous
//   fingerprint:
//     u8 lead  — zero bytes before the significant delta run
//     u8 len   — significant delta bytes (big-endian); trailing zeros
//                implied (u64-derived fingerprints have 12 of them)
//     len raw bytes, the set's varint fields (FlatTraits::put_fields),
//     varint rank count, varint first rank then varint rank deltas
//     (lists are sorted).
template <class E>
void save_entries(simmpi::OArchive& ar, const std::vector<E>& entries,
                  const std::vector<std::int32_t>& pool) {
  using T = FlatTraits<E>;
  ar.put_size(entries.size());
  // One reservation covers the worst case of the whole entry stream: 2
  // header bytes + full fingerprint + 5 bytes per field and for the rank
  // count, 5 bytes per rank.
  ar.reserve(entries.size() * (2 + kFpBytes + 5 * (T::kFields + 1)) +
             live_ranks(entries) * 5);

  FpLimbs prev{};
  for (const E& e : entries) {
    const FpLimbs cur = load_limbs(e.fp.bytes().data());
    std::uint8_t delta[kFpBytes];
    store_limbs(delta, limbs_sub(cur, prev));
    std::size_t lead = 0;
    while (lead < kFpBytes && delta[lead] == 0) ++lead;
    std::size_t last = kFpBytes;
    while (last > lead && delta[last - 1] == 0) --last;
    const std::size_t len = last - lead;  // 0 only for an all-zero delta
    // One buffer append for the fixed-layout head (lead, len, delta run)
    // instead of three; the varints batch their bytes internally.
    std::uint8_t head[2 + kFpBytes];
    head[0] = static_cast<std::uint8_t>(lead);
    head[1] = static_cast<std::uint8_t>(len);
    std::memcpy(head + 2, delta + lead, len);
    ar.write_raw(head, 2 + len);
    T::put_fields(ar, e);
    const std::uint32_t n = e.*T::kLen;
    ar.put_varint(n);
    std::uint32_t prev_rank = 0;  // unsigned, like the decoder's sum
    for (std::uint32_t j = 0; j < n; ++j) {
      const auto rank = static_cast<std::uint32_t>(pool[e.*T::kOff + j]);
      ar.put_varint(rank - prev_rank);
      prev_rank = rank;
    }
    prev = cur;
  }
}

// Decodes save_entries() output.  Every length is checked against the
// bytes left before anything is sized from it, and corrupt input —
// truncation, an overlong delta, a carry out of 160 bits, fingerprints not
// strictly ascending — throws std::runtime_error.
template <class E>
void load_entries(simmpi::IArchive& ar, std::vector<E>& entries,
                  std::vector<std::int32_t>& pool) {
  using T = FlatTraits<E>;
  // Smallest encoded entry: lead, len, one byte per varint field, and the
  // rank-count varint.
  const std::size_t count = ar.get_count(2 + T::kFields + 1);
  entries.clear();
  entries.reserve(count);
  pool.clear();
  pool.reserve(count * T::kMinRanks);

  FpLimbs prev{};
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t head[2];  // lead, len
    ar.read_raw(head, sizeof head);
    if (head[0] + head[1] > static_cast<int>(kFpBytes)) {
      corrupt(T::kName, "corrupt fingerprint delta");
    }
    std::uint8_t delta[kFpBytes] = {};
    ar.read_raw(delta + head[0], head[1]);
    const FpLimbs d = load_limbs(delta);
    FpLimbs cur{};
    if (limbs_add(prev, d, cur)) {
      corrupt(T::kName, "corrupt fingerprint delta");
    }
    if (i > 0 && (d.w0 | d.w1 | d.w2) == 0) {
      corrupt(T::kName, "fingerprints not ascending");
    }
    E e{};
    store_limbs(e.fp.bytes().data(), cur);
    T::get_fields(ar, e);
    const std::uint64_t n = ar.get_varint();
    if (n > ar.remaining()) corrupt(T::kName, "corrupt rank list");
    e.*T::kOff = static_cast<std::uint32_t>(pool.size());
    e.*T::kLen = static_cast<std::uint32_t>(n);
    std::uint32_t rank = 0;  // unsigned: corrupt deltas wrap, never UB
    for (std::uint64_t j = 0; j < n; ++j) {
      rank += static_cast<std::uint32_t>(ar.get_varint());
      pool.push_back(static_cast<std::int32_t>(rank));
    }
    entries.push_back(e);
    prev = cur;
  }
}

}  // namespace

BoundedFpSet::BoundedFpSet(std::uint32_t f_cap, int k, int nranks)
    : f_cap_(f_cap), k_(k), rank_load_(static_cast<std::size_t>(nranks), 0) {
  if (f_cap == 0) throw std::invalid_argument("BoundedFpSet: F must be > 0");
  if (k < 1) throw std::invalid_argument("BoundedFpSet: K must be >= 1");
  if (nranks < 1) throw std::invalid_argument("BoundedFpSet: nranks >= 1");
}

void BoundedFpSet::add_local(const hash::Fingerprint& fp, int rank) {
  FpEntry e;
  e.fp = fp;
  e.freq = 1;
  e.rank_off = static_cast<std::uint32_t>(rank_pool_.size());
  e.rank_len = 1;
  entries_.push_back(e);
  rank_pool_.push_back(rank);
  ++rank_load_[static_cast<std::size_t>(rank)];
  sealed_ = false;
}

void BoundedFpSet::seal() const {
  if (sealed_) return;
  seal_entries(entries_);
  sealed_ = true;
}

const FpEntry* BoundedFpSet::find(const hash::Fingerprint& fp) const {
  seal();
  return find_entry(entries_, fp);
}

std::span<const FpEntry> BoundedFpSet::entries() const {
  seal();
  return entries_;
}

MergeStats BoundedFpSet::enforce_f() {
  seal();
  MergeStats stats;
  truncate_to_f(stats);
  return stats;
}

std::size_t BoundedFpSet::prune_singletons() {
  seal();
  std::size_t kept = 0;
  for (const FpEntry& e : entries_) {
    if (e.freq <= 1) {
      for (const std::int32_t r : ranks(e)) {
        --rank_load_[static_cast<std::size_t>(r)];
      }
    } else {
      entries_[kept++] = e;
    }
  }
  const std::size_t removed = entries_.size() - kept;
  entries_.resize(kept);
  return removed;
}

void BoundedFpSet::truncate_ranks(std::vector<std::int32_t>& scratch,
                                  MergeStats& stats) {
  if (scratch.size() <= static_cast<std::size_t>(k_)) return;
  // Keep the K least loaded designated ranks ("the most loaded ranks are
  // eliminated first", §III-B); ties break toward the lower rank id so the
  // outcome is independent of container iteration order.
  std::stable_sort(scratch.begin(), scratch.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     const auto la = rank_load_[static_cast<std::size_t>(a)];
                     const auto lb = rank_load_[static_cast<std::size_t>(b)];
                     if (la != lb) return la < lb;
                     return a < b;
                   });
  for (std::size_t i = static_cast<std::size_t>(k_); i < scratch.size(); ++i) {
    --rank_load_[static_cast<std::size_t>(scratch[i])];
    ++stats.ranks_dropped_load;
  }
  scratch.resize(static_cast<std::size_t>(k_));
  std::sort(scratch.begin(), scratch.end());
}

void BoundedFpSet::truncate_to_f(MergeStats& stats) {
  if (entries_.size() <= f_cap_) return;
  // Rank all entries by (freq desc, fp asc) and keep the first F; the fp
  // tie-break keeps the survivor set deterministic.
  std::vector<std::uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + f_cap_, order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (entries_[a].freq != entries_[b].freq) {
                       return entries_[a].freq > entries_[b].freq;
                     }
                     return entries_[a].fp < entries_[b].fp;
                   });
  std::vector<char> dropped(entries_.size(), 0);
  for (std::size_t i = f_cap_; i < order.size(); ++i) dropped[order[i]] = 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (dropped[i]) {
      for (const std::int32_t r : ranks(entries_[i])) {
        --rank_load_[static_cast<std::size_t>(r)];
      }
      ++stats.entries_dropped_f;
    } else {
      entries_[kept++] = entries_[i];  // compaction keeps fp order
    }
  }
  entries_.resize(kept);
}

MergeStats BoundedFpSet::merge_many(std::vector<BoundedFpSet>&& others) {
  MergeStats stats;
  if (others.empty()) return stats;
  for (const BoundedFpSet& o : others) {
    if (o.k_ != k_ || o.f_cap_ != f_cap_ ||
        o.rank_load_.size() != rank_load_.size()) {
      throw std::invalid_argument("BoundedFpSet: incompatible merge operands");
    }
  }
  seal();
  std::size_t total = entries_.size();
  std::size_t live_ranks = 0;
  for (const FpEntry& e : entries_) live_ranks += e.rank_len;
  for (BoundedFpSet& o : others) {
    o.seal();
    stats.entries_scanned += o.entries_.size();
    total += o.entries_.size();
    for (const FpEntry& e : o.entries_) live_ranks += e.rank_len;
    for (std::size_t i = 0; i < rank_load_.size(); ++i) {
      rank_load_[i] += o.rank_load_[i];
    }
  }

  // One multi-way pass over all fp-sorted inputs.  The source count is a
  // reduction-tree fan-in (single digits), so a linear min-scan per
  // output beats heap bookkeeping; every input entry is read exactly
  // once and the accumulated set is written exactly once — iterated
  // pairwise merging would rewrite it once per child.
  struct Source {
    const BoundedFpSet* set;
    std::size_t pos;
  };
  std::vector<Source> srcs;
  srcs.reserve(1 + others.size());
  srcs.push_back({this, 0});
  for (const BoundedFpSet& o : others) srcs.push_back({&o, 0});

  std::vector<FpEntry> merged;
  merged.reserve(total);
  std::vector<std::int32_t> pool;
  pool.reserve(live_ranks);
  std::vector<std::int32_t> scratch;
  std::vector<std::size_t> hits;  // source indices at the current minimum

  for (;;) {
    const hash::Fingerprint* min_fp = nullptr;
    hits.clear();
    for (std::size_t si = 0; si < srcs.size(); ++si) {
      const Source& s = srcs[si];
      if (s.pos >= s.set->entries_.size()) continue;
      const hash::Fingerprint& fp = s.set->entries_[s.pos].fp;
      if (min_fp == nullptr || fp < *min_fp) {
        min_fp = &fp;
        hits.clear();
        hits.push_back(si);
      } else if (fp == *min_fp) {
        hits.push_back(si);
      }
    }
    if (min_fp == nullptr) break;
    if (hits.size() == 1) {
      Source& s = srcs[hits[0]];
      const FpEntry& e = s.set->entries_[s.pos++];
      FpEntry out = e;
      out.rank_off = static_cast<std::uint32_t>(pool.size());
      const auto r = s.set->ranks(e);
      pool.insert(pool.end(), r.begin(), r.end());
      merged.push_back(out);
      continue;
    }
    // Shared fingerprint across several children: sum frequencies, union
    // all rank lists, enforce K once against the combined loads.
    FpEntry out;
    out.fp = *min_fp;
    out.freq = 0;
    scratch.clear();
    for (const std::size_t si : hits) {
      Source& s = srcs[si];
      const FpEntry& e = s.set->entries_[s.pos++];
      out.freq += e.freq;
      const auto r = s.set->ranks(e);
      scratch.insert(scratch.end(), r.begin(), r.end());
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    truncate_ranks(scratch, stats);
    out.rank_off = static_cast<std::uint32_t>(pool.size());
    out.rank_len = static_cast<std::uint32_t>(scratch.size());
    pool.insert(pool.end(), scratch.begin(), scratch.end());
    merged.push_back(out);
  }

  entries_ = std::move(merged);
  rank_pool_ = std::move(pool);
  truncate_to_f(stats);
  return stats;
}

bool BoundedFpSet::check_invariants() const {
  seal();
  if (entries_.size() > f_cap_) return false;
  std::vector<std::uint32_t> counted(rank_load_.size(), 0);
  const hash::Fingerprint* prev = nullptr;
  for (const FpEntry& e : entries_) {
    if (prev != nullptr && !(*prev < e.fp)) return false;
    prev = &e.fp;
    if (e.freq == 0) return false;
    if (e.rank_len == 0 || e.rank_len > static_cast<std::uint32_t>(k_)) {
      return false;
    }
    if (static_cast<std::size_t>(e.rank_off) + e.rank_len > rank_pool_.size()) {
      return false;
    }
    const auto r = ranks(e);
    if (!std::is_sorted(r.begin(), r.end())) return false;
    if (std::adjacent_find(r.begin(), r.end()) != r.end()) return false;
    for (const std::int32_t rank : r) {
      if (rank < 0 || static_cast<std::size_t>(rank) >= counted.size()) {
        return false;
      }
      ++counted[static_cast<std::size_t>(rank)];
    }
  }
  return counted == rank_load_;
}

// Wire format: header F, K, nranks, rank_load[], then the shared entry
// stream (save_entries) with one varint field, the frequency.
void save(simmpi::OArchive& ar, const BoundedFpSet& s) {
  s.seal();
  ar.put(s.f_cap_);
  ar.put(s.k_);
  ar.put(static_cast<std::uint32_t>(s.rank_load_.size()));
  ar.put(s.rank_load_);
  save_entries(ar, s.entries_, s.rank_pool_);
}

void load(simmpi::IArchive& ar, BoundedFpSet& s) {
  ar.get(s.f_cap_);
  ar.get(s.k_);
  std::uint32_t nranks = 0;
  ar.get(nranks);
  ar.get(s.rank_load_);
  if (s.rank_load_.size() != nranks) {
    throw std::runtime_error("BoundedFpSet: corrupt load vector");
  }
  load_entries(ar, s.entries_, s.rank_pool_);
  s.sealed_ = true;
}

// ---- ReplicaHealthSet --------------------------------------------------------

void ReplicaHealthSet::add_local(const hash::Fingerprint& fp,
                                 std::uint32_t length, int rank) {
  HealthEntry e;
  e.fp = fp;
  e.count = 1;
  e.length = length;
  e.holder_off = static_cast<std::uint32_t>(holder_pool_.size());
  if (k_ > 1) {
    e.holder_len = 1;
    holder_pool_.push_back(rank);
  }
  entries_.push_back(e);
  sealed_ = false;
}

void ReplicaHealthSet::seal() const {
  if (sealed_) return;
  seal_entries(entries_);
  sealed_ = true;
}

const HealthEntry* ReplicaHealthSet::find(const hash::Fingerprint& fp) const {
  seal();
  return find_entry(entries_, fp);
}

std::span<const HealthEntry> ReplicaHealthSet::entries() const {
  seal();
  return entries_;
}

std::uint64_t ReplicaHealthSet::merge_from(ReplicaHealthSet&& other) {
  seal();
  other.seal();
  const std::uint64_t scanned = other.entries_.size();
  // Common fingerprint: counts add up; holders (disjoint: each store
  // contributes once) are unioned while the sum is still below K.
  merge_flat(entries_, holder_pool_, other.entries_, other.holder_pool_,
             [k = k_](const HealthEntry& a, std::span<const std::int32_t> ha,
                      const HealthEntry& b, std::span<const std::int32_t> hb,
                      std::vector<std::int32_t>& pool) {
               HealthEntry out = a;
               out.count = a.count + b.count;
               if (static_cast<int>(out.count) < k) {
                 std::merge(ha.begin(), ha.end(), hb.begin(), hb.end(),
                            std::back_inserter(pool));
               }
               return out;
             });
  return scanned;
}

// Wire format: header K, then the shared entry stream (save_entries) with
// two varint fields, the replica count and the chunk length.
void save(simmpi::OArchive& ar, const ReplicaHealthSet& s) {
  s.seal();
  ar.put(s.k_);
  save_entries(ar, s.entries_, s.holder_pool_);
}

void load(simmpi::IArchive& ar, ReplicaHealthSet& s) {
  ar.get(s.k_);
  load_entries(ar, s.entries_, s.holder_pool_);
  s.sealed_ = true;
}

}  // namespace collrep::core
