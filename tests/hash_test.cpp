// Unit tests for the hash substrate: SHA-1 against RFC 3174 / FIPS test
// vectors, XXH64 and CRC-32C against published reference values, FNV-1a
// against its specification constants, and the Fingerprint/registry API.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hash/crc32c.hpp"
#include "hash/fingerprint.hpp"
#include "hash/fnv.hpp"
#include "hash/hasher.hpp"
#include "hash/sha1.hpp"
#include "hash/xx64.hpp"

namespace {

using namespace collrep::hash;

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string sha1_hex(std::string_view input) {
  const auto digest = Sha1::digest(as_bytes(input));
  return Fingerprint{std::span<const std::uint8_t>{digest}}.hex();
}

// -- SHA-1 -------------------------------------------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174TestCase2) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  const std::string input(1000000, 'a');
  EXPECT_EQ(sha1_hex(input), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const std::string input =
      "streaming interface must produce identical digests";
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Sha1 h;
    h.update(as_bytes(std::string_view{input}.substr(0, split)));
    h.update(as_bytes(std::string_view{input}.substr(split)));
    std::array<std::uint8_t, Sha1::kDigestBytes> digest{};
    h.finish(digest);
    EXPECT_EQ(digest, Sha1::digest(as_bytes(input))) << "split=" << split;
  }
}

TEST(Sha1, StreamingByteAtATime) {
  const std::string input(257, 'x');
  Sha1 h;
  for (char c : input) {
    h.update({reinterpret_cast<const std::uint8_t*>(&c), 1});
  }
  std::array<std::uint8_t, Sha1::kDigestBytes> digest{};
  h.finish(digest);
  EXPECT_EQ(digest, Sha1::digest(as_bytes(input)));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(as_bytes("first"));
  std::array<std::uint8_t, Sha1::kDigestBytes> d1{};
  h.finish(d1);
  h.reset();
  h.update(as_bytes("abc"));
  std::array<std::uint8_t, Sha1::kDigestBytes> d2{};
  h.finish(d2);
  EXPECT_EQ(d2, Sha1::digest(as_bytes("abc")));
}

// Block-boundary lengths are where padding bugs hide.
class Sha1LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1LengthSweep, PaddingConsistency) {
  const std::size_t len = GetParam();
  std::vector<std::uint8_t> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  // Digest computed in two pieces must equal the one-shot digest for every
  // length near the 64-byte block boundary.
  Sha1 h;
  const std::size_t half = len / 2;
  h.update(std::span<const std::uint8_t>{data.data(), half});
  h.update(std::span<const std::uint8_t>{data.data() + half, len - half});
  std::array<std::uint8_t, Sha1::kDigestBytes> streamed{};
  h.finish(streamed);
  EXPECT_EQ(streamed, Sha1::digest(data));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha1LengthSweep,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           118, 119, 120, 127, 128, 129, 255,
                                           256, 1000));

// Independent reference digests of the sweep's byte pattern (i*37+11 mod
// 256), computed with Python's hashlib.sha1: every padding shape — one
// padding block or two, every tail length — across two full blocks, plus
// the chunk sizes the benches hash.
TEST(Sha1, MatchesReferenceDigestsOfBytePattern) {
  struct Vector {
    std::size_t len;
    const char* hex;
  };
  static constexpr Vector kVectors[] = {
    {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
    {1, "067d5096f219c64b53bb1c7d5e3754285b565a47"},
    {2, "4be654dd621d5ec3bc2063b90547a6535c0f9b18"},
    {3, "5e8b290f00d31c341d769e40255c757924864ef3"},
    {4, "2dd70ef5eb275db816ad751aa8522f37195df68b"},
    {5, "3cf4fce5cd85b5982c1f4658d9fbaec7477122d5"},
    {6, "b00c286ecaa8ed96a4d3acd9c92b6c687027c237"},
    {7, "fa39e4b946d2fee587051a87d47d68a5590f64b9"},
    {8, "3e17075dce4d6126b81819ad27c1ed1dbc09da96"},
    {9, "395d20b7b6380ee7ee9637f7fa84eea3eaa8a4bb"},
    {10, "35136dff4606d0a81510297e30cef176f9e062ca"},
    {11, "56981b2bf0d6e1cdbf0803b46dc24695ee6f2381"},
    {12, "7ab5ef94757f046269cd6875a492ce2f0cba16f1"},
    {13, "879d14a6c7d91c391c8ace8c94f536f9ba311fb6"},
    {14, "59261b7212751d215331bb219c288165c2596f0f"},
    {15, "b3d944a4a992367acc8b98647cfbc7b70a9815d5"},
    {16, "285bb70cf533e49774327262d098532912b051ad"},
    {17, "6a2b7be01ac2e99f75828a830157bf7472afee68"},
    {18, "4ef363751c121af5342f7db324d67e799e6ccde5"},
    {19, "65dd27e3c6143ae9400a770c2b029172171b0ded"},
    {20, "c08c26f20f9b6e425705af5ccc0300325c4d619a"},
    {21, "20a14b20b61ad4c992f03f11bb65e1547fc15705"},
    {22, "663f80ccb5a0e75242370d7c01e8160b88cf33e8"},
    {23, "46b5088563575fb3c694bb2d2dac5dd9fdd23151"},
    {24, "83611dfdad1842b9b5078f94440a3175554f5542"},
    {25, "da317f34b61a0742acc08a9200203ec2c65ab0b8"},
    {26, "3d85ecb2a28fc6ac3c98ab3f4f22b900dbee5f9c"},
    {27, "538bb5bba2a530207144d23bf8a1e9e31410e0f7"},
    {28, "24a127b6fd45815fe8c84eefc6c10eaecf24abdd"},
    {29, "ba843372d39029e36842213f8710342046d197ce"},
    {30, "c26809384885c78dfd5c13235bba74f87fb4178d"},
    {31, "e2deeb8b4b6105f32d5b16eafe20ff3ee98876c6"},
    {32, "95e96dd17403929a339e339e680dd076e78ac039"},
    {33, "6c150252887fe3e0f4f4165da9c9e53aeabf1dec"},
    {34, "55bc9b2e3d4e456827b1c36b55ef8c4c45d58fc7"},
    {35, "4cb485eefd617f01a1939aa56474213a925c41a1"},
    {36, "59a46f9488bf2a420010fb9b28b94cdabf792d70"},
    {37, "da4801164e04942221bebfcfacc7cc7b5a79ae50"},
    {38, "afd418b6a1efd4fe7eaa1cfb28a4e276e1244972"},
    {39, "5c0782f42be644c3e293e5cac5dcbb49413eb719"},
    {40, "b4cef9aebd96975376eca04e064acd5bd7b9bce7"},
    {41, "879a893a15bc101818673a8aabcfaee369e12d32"},
    {42, "16b13d64b3d010493acd7d5bea99b6aba3bb5452"},
    {43, "c6207c3658c508d675628689cdd0d00ec22458a0"},
    {44, "1f5bdc9d380f714d051f3cc82439ecc1406c4916"},
    {45, "c9a1d1a1d58c875ff6375c288eb0a261873bf9e4"},
    {46, "178b06cf8927bea91305fcf83bd87a4666cf45f8"},
    {47, "7349e05796e3aad67a0d3ee127c181b9d9267648"},
    {48, "3896e0b517ab062fbad6a58fc90f178a36dfa91f"},
    {49, "361b7c34514e07cc6c22789244c8cec14df29ffb"},
    {50, "ee82d4e1b239b40826cef2a9f9f513700d36ea4c"},
    {51, "77ec79b6831d152c44aa31e9472407ff918a6616"},
    {52, "deade998775fb1c6a56d4779e3c0c1e74b804cc6"},
    {53, "9f7b8b29044bcf9e215c56a1e2ec9dfd2b9a62bf"},
    {54, "e5d956aa039fb09be02efb91ee8646e55fccaf14"},
    {55, "c4622048cfef59b72875839ee7ae1cbcf55e7658"},
    {56, "ddc12942656468475970fa4fa49161f52ed138e4"},
    {57, "c3299df7d6a56509d38a55d09ccf403d4a56d044"},
    {58, "fad4fc85c2d9f50c4a8950e0a20c531acc4c3728"},
    {59, "d715dca3216d5aa47ae00dbddfbd22f7ce47c780"},
    {60, "de372186202ca27222de76ba6693e7f0a7dbcde0"},
    {61, "791ec7d7c7c446666f8f3014799b96157976c9bc"},
    {62, "c28f79c3d8bdbda7d224d4f91e7dc16a1182efc9"},
    {63, "7f8c3fa49f1297bd8b9feb964b6b419987f9f0d1"},
    {64, "a334b47180c61fd522f99905ec02c36f9e848211"},
    {65, "dd27d9eb923d39687e10872c3e8133ba2f0a68a1"},
    {66, "79f5114808f0be75c4fbf37c3c762917e5592883"},
    {67, "cb0f23e8d6b4c38bc559fee9266a09463abbc927"},
    {68, "80c2b4bbb7ad0c69259a99e209828cfe5f26016a"},
    {69, "4c06350856bd5dcf34df6393257556b87fa44624"},
    {70, "e47e0540cd6e2a702ae240424083e6449ee0116c"},
    {71, "bdb828f97254d1d5bf733d1acb7adf894a41d343"},
    {72, "cca562c1390ae4cbfc61e35d9455e98056994879"},
    {73, "9190a5474c084a40af87f21a69d50ddefd7b52bf"},
    {74, "cabaf4e45424c40614489b3c1864ea3ddc609097"},
    {75, "fb611bc738b32806b508a3ea668917f3ad755a83"},
    {76, "8e721ca1af0d7a29f3ab142696d1558e709c3923"},
    {77, "b0ad0d5a66024fe3412de3396b0816a08980c485"},
    {78, "5ac0b9e368026f4cb7a61024a7342fc0c6a762c5"},
    {79, "d84649b47497c0b8d8a39773543e6f4a6d75d3c9"},
    {80, "c6c13ad16223f6aecda02f985efc2ea5b8a0b7e7"},
    {81, "5462c04834bc59abef12b53f0ff7cdc80a7ec4e7"},
    {82, "dec348c727d716dc20621fb242c3bd2eea232990"},
    {83, "70ae45ec6bd7df839e1671c68c2d8a3521d9a0dc"},
    {84, "eb00b28a4f2e63e24c0c6b61ae64ec30df6c7bc8"},
    {85, "e3364207213cfea2076039ac9a439f691a8dc148"},
    {86, "1ca5eb669a314b10cd70402743f93a122486b325"},
    {87, "5d0ce749b80b8b8c7cf90ea9646bc52d08d1e739"},
    {88, "e661812643a01364065f3f430e596f389624a714"},
    {89, "f1bd3bb677a9f64cf3351886daea408b64214ab2"},
    {90, "936cdaec96ff6bb2813088f31d911da82cc38231"},
    {91, "c5f7ec79bab3d695691af2be8d73c6abc98c0753"},
    {92, "89e4bca200cabf221f6411851b3bdc7853c7a327"},
    {93, "975e8d6b97942374518c2d28a7cb658f77a2fb43"},
    {94, "e000647921c14e8a2836235403c091ea59948bd8"},
    {95, "ade943c8f9117109898a15c0d55ba3089b2e4123"},
    {96, "73f1b9a6bd5506a9719792d54354cc29cbf28474"},
    {97, "e0b6c708776452a3a77bffc02994a8bc0c0765d0"},
    {98, "94dd5c1a1b67e51e0860100ae91c1cbda85c0962"},
    {99, "baabf5ea908c083b3dbb6f234ec67185e1641cd0"},
    {100, "e5d160eb8f641e92d5f02b2779bcc5261de3eec7"},
    {101, "f4a5ebcfea421c132244805be5b1f64272247e9b"},
    {102, "747a9f07203d437f60893d4d8d93e5d502fdb1bf"},
    {103, "fa161cc7caec7bc39463ab6f1ae4d601874bf9f7"},
    {104, "481fc0a4d6f333932bae7965fe2bd08d7d595f3a"},
    {105, "8568047b6d369735aab1195716890295bc2ec736"},
    {106, "eaeb6c0cc2026195a654b9b4fcac20b02df99884"},
    {107, "fa2338135957b2b416b08c825d83b43ee5705a80"},
    {108, "5892c542dcd348f8cd239b85ce127a52d1e23354"},
    {109, "b5dd5fb462721061cee241ef335786858a8fff29"},
    {110, "063dd225888c77fcf4f4f09fefaa7199085575c0"},
    {111, "aa138368b05cd08f2e4c0d7ef9be54552bb00f7f"},
    {112, "28528b51ef6d26dc41f33652db6540d0f5c0f124"},
    {113, "6d1ae0def5a2dfda8af7cf8414b1a1a2400accf4"},
    {114, "047b33a092a92a27ce63ad03baa5a1bbb2ee4c93"},
    {115, "767588f4d1ca3cd40ad944a58b124ac93162f698"},
    {116, "16962dfb3634dee5d538c188a0a7e5f6785715db"},
    {117, "ef17880b45a95a58379deac7494e9a9f9f567534"},
    {118, "41272ca90dacde8fb603895149bb039c8d24bae5"},
    {119, "bea949473b1ec34747ce121c3293624b5d9d8f84"},
    {120, "bf05266acd3ec21592b4d42aaea97fa6f3e51926"},
    {121, "f7688ed0507cf4592f4c56e0f8c7c839569e3a2a"},
    {122, "9e399ab1efb7cf69ba80ed31e1270c94409c68d4"},
    {123, "45a38809a0edb5023e8522c8856b1965f239a944"},
    {124, "1c97d8f8ea9f5f0e4b73b70a973759f365bfad3c"},
    {125, "54f856669404556694a3d84b081f38608ef479f6"},
    {126, "a21da359c0ea8a3daf515769a9f6209b08df176b"},
    {127, "b2b4bfd7b2112a167b77a600cca227593523c406"},
    {128, "3b1953091899492377f686c266b81d84b5d40f70"},
    {129, "4fd6558b2a93925fb7129447e1d1fac8cff56287"},
    {130, "ee8120e7f5787120dce7a850d22547f1fe197c72"},
    {512, "f3042998a20f9db0d9e64f95131a576d6031f7f0"},
    {4096, "c4a4f8cb5d332af2c2c970d28d45e66d22b12b82"},
  };
  for (const Vector& v : kVectors) {
    std::vector<std::uint8_t> data(v.len);
    for (std::size_t i = 0; i < v.len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const auto digest = Sha1::digest(data);
    EXPECT_EQ(Fingerprint{std::span<const std::uint8_t>{digest}}.hex(), v.hex)
        << "len=" << v.len;
  }
}

// digest_many against digest(): every padding shape, alone and in
// batches that fill the SIMD lanes exactly, leave a remainder, or mix
// lengths (more distinct lengths than digest_many keeps lane groups for).
TEST(Sha1, DigestManyMatchesDigest) {
  const std::size_t kLengths[] = {0,   1,   55,  56,  63,   64,
                                  65,  119, 120, 512, 4095, 4096};
  const std::size_t kBatches[] = {1, 7, 15, 16, 17, 33, 100};
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  const auto message = [&](std::size_t len) {
    std::vector<std::uint8_t> m(len);
    for (auto& b : m) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(seed >> 56);
    }
    return m;
  };
  const auto check = [](const std::vector<std::vector<std::uint8_t>>& batch,
                        const std::string& what) {
    std::vector<std::span<const std::uint8_t>> views(batch.begin(),
                                                     batch.end());
    std::vector<Fingerprint> got(batch.size());
    Sha1::digest_many(views, got);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto want = Sha1::digest(batch[i]);
      EXPECT_EQ(got[i], Fingerprint{std::span<const std::uint8_t>{want}})
          << what << " message=" << i << " len=" << batch[i].size();
    }
  };
  for (const std::size_t n : kBatches) {
    for (const std::size_t len : kLengths) {
      std::vector<std::vector<std::uint8_t>> batch;
      for (std::size_t i = 0; i < n; ++i) batch.push_back(message(len));
      check(batch, "equal len=" + std::to_string(len) +
                       " batch=" + std::to_string(n));
    }
    std::vector<std::vector<std::uint8_t>> mixed;
    for (std::size_t i = 0; i < n; ++i) {
      mixed.push_back(message(kLengths[i % std::size(kLengths)]));
    }
    check(mixed, "interleaved batch=" + std::to_string(n));
  }
}

// digest_many on the byte pattern of MatchesReferenceDigestsOfBytePattern,
// against digests computed with Python's hashlib.sha1: 17 copies of each
// length, alternating with a 512-byte message, so every length fills a
// set of lanes and leaves one over.
TEST(Sha1, DigestManyMatchesReferenceDigests) {
  struct Vector {
    std::size_t len;
    const char* hex;
  };
  static constexpr Vector kVectors[] = {
      {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {55, "c4622048cfef59b72875839ee7ae1cbcf55e7658"},
      {56, "ddc12942656468475970fa4fa49161f52ed138e4"},
      {64, "a334b47180c61fd522f99905ec02c36f9e848211"},
      {119, "bea949473b1ec34747ce121c3293624b5d9d8f84"},
      {4095, "27864c45709dcaf6588c97ece8fa8e9b3403764f"},
      {4096, "c4a4f8cb5d332af2c2c970d28d45e66d22b12b82"},
  };
  const auto pattern = [](std::size_t len) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    return data;
  };
  const auto other = pattern(512);
  const std::string other_hex = "f3042998a20f9db0d9e64f95131a576d6031f7f0";
  for (const Vector& v : kVectors) {
    const auto data = pattern(v.len);
    std::vector<std::span<const std::uint8_t>> views;
    for (int i = 0; i < 17; ++i) {
      views.emplace_back(data);
      views.emplace_back(other);
    }
    std::vector<Fingerprint> got(views.size());
    Sha1::digest_many(views, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].hex(), i % 2 == 0 ? std::string(v.hex) : other_hex)
          << "len=" << v.len << " message=" << i;
    }
  }
}

// -- XXH64 -------------------------------------------------------------------

TEST(Xx64, PublishedVectors) {
  // Reference values from the xxHash specification test suite.
  EXPECT_EQ(xx64(as_bytes(""), 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xx64(as_bytes(""), 1), 0xD5AFBA1336A3BE4Bull);
  EXPECT_EQ(xx64(as_bytes("a"), 0), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xx64(as_bytes("abc"), 0), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xx64(as_bytes("The quick brown fox jumps over the lazy dog"), 0),
            0x0B242D361FDA71BCull);
}

TEST(Xx64, SeedChangesResult) {
  const auto data = as_bytes("same input, different seed");
  EXPECT_NE(xx64(data, 0), xx64(data, 1));
}

TEST(Xx64, AllInternalPaths) {
  // <4, <8, <32 and >=32 byte paths.
  for (std::size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 64u, 100u}) {
    std::vector<std::uint8_t> a(len, 0x5A);
    std::vector<std::uint8_t> b(len, 0x5A);
    EXPECT_EQ(xx64(a), xx64(b));
    if (len > 0) {
      b[len / 2] ^= 1;
      EXPECT_NE(xx64(a), xx64(b)) << "len=" << len;
    }
  }
}

// -- FNV-1a ------------------------------------------------------------------

TEST(Fnv, SpecificationConstants) {
  EXPECT_EQ(fnv1a64(as_bytes("")), kFnvOffsetBasis);
  // Known FNV-1a 64 values.
  EXPECT_EQ(fnv1a64(as_bytes("a")), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64(as_bytes("foobar")), 0x85944171F73967E8ull);
}

TEST(Fnv, Constexpr) {
  static constexpr std::uint8_t kBytes[] = {'a'};
  static_assert(fnv1a64(std::span<const std::uint8_t>{kBytes, 1}) ==
                0xAF63DC4C8601EC8Cull);
  SUCCEED();
}

// -- CRC-32C -----------------------------------------------------------------

TEST(Crc32c, PublishedVectors) {
  // RFC 3720 (iSCSI) reference vectors.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  std::vector<std::uint8_t> inc(32);
  for (std::size_t i = 0; i < 32; ++i) inc[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(inc), 0x46DD794Eu);
  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(as_bytes("")), 0u); }

// -- Fingerprint -------------------------------------------------------------

TEST(Fingerprint, DefaultIsZero) {
  Fingerprint fp;
  EXPECT_EQ(fp.hex(), std::string(40, '0'));
  EXPECT_EQ(fp.prefix64(), 0u);
}

TEST(Fingerprint, FromU64RoundTrip) {
  const auto fp = Fingerprint::from_u64(0x0123456789ABCDEFull);
  EXPECT_EQ(fp.prefix64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(fp.hex().substr(16), std::string(24, '0'));
}

TEST(Fingerprint, Ordering) {
  const auto a = Fingerprint::from_u64(1);
  const auto b = Fingerprint::from_u64(2);
  EXPECT_LT(a, b);  // little-endian low byte differs
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Fingerprint::from_u64(1));
}

TEST(Fingerprint, HashUsableInContainers) {
  std::unordered_map<Fingerprint, int> map;
  map[Fingerprint::from_u64(7)] = 1;
  map[Fingerprint::from_u64(8)] = 2;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(Fingerprint::from_u64(7)), 1);
}

TEST(Fingerprint, TruncatesLongDigest) {
  std::vector<std::uint8_t> digest(32, 0xAB);
  const Fingerprint fp{digest};
  std::string expected;
  for (int i = 0; i < 20; ++i) expected += "ab";
  EXPECT_EQ(fp.hex(), expected);
}

// -- Registry ----------------------------------------------------------------

TEST(HashRegistry, AllKindsResolve) {
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64, HashKind::kFnv64,
                          HashKind::kCrc32c}) {
    const auto& hasher = hasher_for(kind);
    EXPECT_EQ(hasher.kind(), kind);
    EXPECT_GT(hasher.modeled_bytes_per_second(), 0.0);
  }
}

TEST(HashRegistry, NamesRoundTrip) {
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64, HashKind::kFnv64,
                          HashKind::kCrc32c}) {
    EXPECT_EQ(parse_hash_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_hash_kind("md5"), std::invalid_argument);
}

TEST(HashRegistry, Sha1HasherMatchesRawSha1) {
  const auto data = as_bytes("registry consistency");
  const auto digest = Sha1::digest(data);
  EXPECT_EQ(hasher_for(HashKind::kSha1).fingerprint(data),
            Fingerprint{std::span<const std::uint8_t>{digest}});
}

TEST(HashRegistry, FingerprintManyMatchesFingerprint) {
  std::vector<std::vector<std::uint8_t>> chunks;
  for (std::size_t i = 0; i < 40; ++i) {
    chunks.emplace_back(i % 5 == 4 ? 100 : 512,
                        static_cast<std::uint8_t>(i * 13));
  }
  const std::vector<std::span<const std::uint8_t>> views(chunks.begin(),
                                                         chunks.end());
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64, HashKind::kFnv64,
                          HashKind::kCrc32c}) {
    const auto& hasher = hasher_for(kind);
    std::vector<Fingerprint> got(views.size());
    hasher.fingerprint_many(views, got);
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(got[i], hasher.fingerprint(views[i]))
          << to_string(kind) << " chunk=" << i;
    }
  }
}

TEST(HashRegistry, DifferentKindsDisagree) {
  const auto data = as_bytes("disambiguation");
  EXPECT_NE(hasher_for(HashKind::kSha1).fingerprint(data),
            hasher_for(HashKind::kXx64).fingerprint(data));
}

class HasherDistinguishesInputs
    : public ::testing::TestWithParam<HashKind> {};

TEST_P(HasherDistinguishesInputs, NearbyInputsDiffer) {
  const auto& hasher = hasher_for(GetParam());
  std::vector<std::uint8_t> base(4096, 0x11);
  const auto fp0 = hasher.fingerprint(base);
  for (std::size_t pos : {0u, 1u, 2047u, 4094u, 4095u}) {
    auto copy = base;
    copy[pos] ^= 0x01;
    EXPECT_NE(hasher.fingerprint(copy), fp0) << "pos=" << pos;
  }
  EXPECT_EQ(hasher.fingerprint(base), fp0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HasherDistinguishesInputs,
                         ::testing::Values(HashKind::kSha1, HashKind::kXx64,
                                           HashKind::kFnv64,
                                           HashKind::kCrc32c));

}  // namespace
