#include "hash/hasher.hpp"

#include <stdexcept>

#include "hash/crc32c.hpp"
#include "hash/fnv.hpp"
#include "hash/sha1.hpp"
#include "hash/xx64.hpp"

namespace collrep::hash {

std::string_view to_string(HashKind kind) noexcept {
  switch (kind) {
    case HashKind::kSha1:
      return "sha1";
    case HashKind::kXx64:
      return "xx64";
    case HashKind::kFnv64:
      return "fnv64";
    case HashKind::kCrc32c:
      return "crc32c";
  }
  return "unknown";
}

HashKind parse_hash_kind(std::string_view name) {
  if (name == "sha1") return HashKind::kSha1;
  if (name == "xx64") return HashKind::kXx64;
  if (name == "fnv64") return HashKind::kFnv64;
  if (name == "crc32c") return HashKind::kCrc32c;
  throw std::invalid_argument("unknown hash kind: " + std::string(name));
}

void ChunkHasher::fingerprint_many(
    std::span<const std::span<const std::uint8_t>> chunks,
    std::span<Fingerprint> out) const {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    out[i] = fingerprint(chunks[i]);
  }
}

namespace {

class Sha1Hasher final : public ChunkHasher {
 public:
  Fingerprint fingerprint(std::span<const std::uint8_t> chunk) const override {
    const auto digest = Sha1::digest(chunk);
    return Fingerprint{std::span<const std::uint8_t>{digest}};
  }
  void fingerprint_many(std::span<const std::span<const std::uint8_t>> chunks,
                        std::span<Fingerprint> out) const override {
    Sha1::digest_many(chunks, out);
  }
  HashKind kind() const noexcept override { return HashKind::kSha1; }
  double modeled_bytes_per_second() const noexcept override { return 300e6; }
};

class Xx64Hasher final : public ChunkHasher {
 public:
  Fingerprint fingerprint(std::span<const std::uint8_t> chunk) const override {
    return Fingerprint::from_u64(xx64(chunk));
  }
  HashKind kind() const noexcept override { return HashKind::kXx64; }
  double modeled_bytes_per_second() const noexcept override { return 5e9; }
};

class Fnv64Hasher final : public ChunkHasher {
 public:
  Fingerprint fingerprint(std::span<const std::uint8_t> chunk) const override {
    return Fingerprint::from_u64(fnv1a64(chunk));
  }
  HashKind kind() const noexcept override { return HashKind::kFnv64; }
  double modeled_bytes_per_second() const noexcept override { return 800e6; }
};

class Crc32cHasher final : public ChunkHasher {
 public:
  Fingerprint fingerprint(std::span<const std::uint8_t> chunk) const override {
    return Fingerprint::from_u64(crc32c(chunk));
  }
  HashKind kind() const noexcept override { return HashKind::kCrc32c; }
  double modeled_bytes_per_second() const noexcept override { return 1.5e9; }
};

}  // namespace

const ChunkHasher& hasher_for(HashKind kind) {
  static const Sha1Hasher sha1;
  static const Xx64Hasher xx;
  static const Fnv64Hasher fnv;
  static const Crc32cHasher crc;
  switch (kind) {
    case HashKind::kSha1:
      return sha1;
    case HashKind::kXx64:
      return xx;
    case HashKind::kFnv64:
      return fnv;
    case HashKind::kCrc32c:
      return crc;
  }
  throw std::invalid_argument("unknown HashKind");
}

}  // namespace collrep::hash
