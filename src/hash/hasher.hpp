// ChunkHasher: the pluggable fingerprint function used by the dedup
// pipeline (paper §IV).  A registry maps HashKind to an implementation so
// that every component (local dedup, collective reduction, stores) agrees
// on the fingerprint space via configuration rather than hard-coding SHA1.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "hash/fingerprint.hpp"

namespace collrep::hash {

enum class HashKind : std::uint8_t {
  kSha1 = 0,   // crypto-grade, paper default
  kXx64 = 1,   // fast, well distributed
  kFnv64 = 2,  // fastest, weakest distribution
  kCrc32c = 3, // checksum-grade; collisions plausible at scale
};

[[nodiscard]] std::string_view to_string(HashKind kind) noexcept;
// Parses "sha1" / "xx64" / "fnv64" / "crc32c"; throws std::invalid_argument
// on unknown names.
[[nodiscard]] HashKind parse_hash_kind(std::string_view name);

class ChunkHasher {
 public:
  virtual ~ChunkHasher() = default;

  [[nodiscard]] virtual Fingerprint fingerprint(
      std::span<const std::uint8_t> chunk) const = 0;
  // out[i] = fingerprint(chunks[i]) for every i; out.size() must equal
  // chunks.size().  The default is that per-chunk loop; SHA-1 hashes
  // equal-length chunks in SIMD lanes (Sha1::digest_many).
  virtual void fingerprint_many(
      std::span<const std::span<const std::uint8_t>> chunks,
      std::span<Fingerprint> out) const;
  [[nodiscard]] virtual HashKind kind() const noexcept = 0;
  // Approximate hashing throughput in bytes/second on the paper's testbed
  // CPU (Xeon X5670); consumed by the simtime cost model.
  [[nodiscard]] virtual double modeled_bytes_per_second() const noexcept = 0;
};

// Returns a process-lifetime hasher instance for `kind` (stateless, safe to
// share across threads).
[[nodiscard]] const ChunkHasher& hasher_for(HashKind kind);

}  // namespace collrep::hash
