// Unit tests for the crypto substrate: SHA-256, HMAC-SHA256, XTEA-CTR.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/xtea.hpp"
#include "sim/rng.hpp"

namespace tmg::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------- SHA-256 (FIPS 180-4 vectors) ----------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(Sha256::hash(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 ctx;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ctx.update({data.data() + i, 1});
  }
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

TEST(Sha256, IncrementalOddChunks) {
  std::vector<std::uint8_t> data(517);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  Sha256 ctx;
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 100, 224};
  for (std::size_t c : chunks) {
    ctx.update({data.data() + off, c});
    off += c;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update(bytes_of("junk"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockBoundary) {
  const std::vector<std::uint8_t> block(64, 0x5a);
  // 64-byte input exercises the padding-into-second-block path.
  Sha256 a;
  a.update(block);
  EXPECT_EQ(a.finish(), Sha256::hash(block));
}

// ---------------- HMAC-SHA256 (RFC 4231 vectors) ----------------

TEST(Hmac, Rfc4231Case1) {
  Key key{std::vector<std::uint8_t>(20, 0x0b)};
  const auto mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Key key{bytes_of("Jefe")};
  const auto mac = hmac_sha256(key, bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKeyData) {
  Key key{std::vector<std::uint8_t>(20, 0xaa)};
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, KeyLongerThanBlockIsHashed) {
  Key key{std::vector<std::uint8_t>(131, 0xaa)};
  const auto mac = hmac_sha256(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDisagree) {
  const auto data = bytes_of("payload");
  const auto a = hmac_sha256(Key::derive(bytes_of("k1")), data);
  const auto b = hmac_sha256(Key::derive(bytes_of("k2")), data);
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Hmac, DigestEqualDetectsSingleBitFlip) {
  auto a = hmac_sha256(Key::derive(bytes_of("k")), bytes_of("m"));
  auto b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 0x01;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Hmac, KeyDeriveDeterministic) {
  const auto msg = bytes_of("m");
  EXPECT_EQ(hmac_sha256(Key::derive(bytes_of("seed")), msg),
            hmac_sha256(Key::derive(bytes_of("seed")), msg));
  EXPECT_NE(hmac_sha256(Key::derive(bytes_of("seed")), msg),
            hmac_sha256(Key::derive(bytes_of("seeds")), msg));
}

/// HMAC as RFC 2104 writes it: two passes over freshly padded key blocks.
Digest256 reference_hmac(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> msg) {
  constexpr std::size_t kBlock = 64;
  std::vector<std::uint8_t> k(key.begin(), key.end());
  if (k.size() > kBlock) {
    const Digest256 kd = Sha256::hash(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(kBlock, 0);
  std::vector<std::uint8_t> inner, outer;
  for (std::uint8_t b : k) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest256 inner_digest = Sha256::hash(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

TEST(Hmac, MidstatesMatchRfc2104Reference) {
  // Every key length 0..200 (longer than 64 takes the hashed-key path),
  // each key reused for several MACs in a row (its midstates must be
  // copied, not consumed), and message lengths walking 0..300 so every
  // length, and with it each 55/56/64-byte padding edge, is hit.
  sim::Rng rng{2104};
  const auto random_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
  };
  constexpr std::size_t kMacsPerKey = 6;
  std::size_t msg_len = 0;
  for (std::size_t key_len = 0; key_len <= 200; ++key_len) {
    const auto key_bytes = random_bytes(key_len);
    const Key key{key_bytes};
    for (std::size_t i = 0; i < kMacsPerKey; ++i) {
      const auto msg = random_bytes(msg_len);
      ASSERT_EQ(hmac_sha256(key, msg), reference_hmac(key_bytes, msg))
          << "key length " << key_len << ", message length " << msg_len;
      msg_len = (msg_len + 1) % 301;
    }
  }
  // Key::derive keys on the SHA-256 of its seed.
  const auto seed = bytes_of("seed");
  const auto msg = bytes_of("m");
  EXPECT_EQ(hmac_sha256(Key::derive(seed), msg),
            reference_hmac(Sha256::hash(seed), msg));
}

// ---------------- XTEA ----------------

TEST(Xtea, BlockRoundTrip) {
  const XteaKey key = XteaKey::derive(bytes_of("xtea-key"));
  const std::uint64_t pt = 0x0123456789abcdefULL;
  const std::uint64_t ct = xtea_encrypt_block(key, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(xtea_decrypt_block(key, ct), pt);
}

TEST(Xtea, KnownVector) {
  // Published XTEA test vector: key = 000102...0f, pt = 4142434445464748.
  XteaKey key;
  key.words = {0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f};
  EXPECT_EQ(xtea_encrypt_block(key, 0x4142434445464748ULL),
            0x497df3d072612cb5ULL);
}

TEST(Xtea, KnownVectorZeroKey) {
  XteaKey key;
  key.words = {0, 0, 0, 0};
  EXPECT_EQ(xtea_encrypt_block(key, 0x4142434445464748ULL),
            0xa0390589f8b8efa5ULL);
}

TEST(Xtea, CtrRoundTrip) {
  const XteaKey key = XteaKey::derive(bytes_of("ctr"));
  std::vector<std::uint8_t> data = bytes_of("hello, link latency inspector!");
  const auto original = data;
  xtea_ctr_apply(key, 42, data);
  EXPECT_NE(data, original);
  xtea_ctr_apply(key, 42, data);
  EXPECT_EQ(data, original);
}

TEST(Xtea, CtrDifferentNoncesDiffer) {
  const XteaKey key = XteaKey::derive(bytes_of("ctr"));
  std::vector<std::uint8_t> a = bytes_of("same plaintext bytes");
  std::vector<std::uint8_t> b = a;
  xtea_ctr_apply(key, 1, a);
  xtea_ctr_apply(key, 2, b);
  EXPECT_NE(a, b);
}

TEST(Xtea, SealOpenRoundTrip) {
  const XteaKey key = XteaKey::derive(bytes_of("ts"));
  const std::uint64_t value = 1234567890123456789ULL;
  const auto sealed = seal_u64(key, 99, value);
  ASSERT_EQ(sealed.size(), 8u);
  std::uint64_t out = 0;
  ASSERT_TRUE(open_u64(key, 99, sealed, out));
  EXPECT_EQ(out, value);
}

TEST(Xtea, OpenWrongNonceGarbles) {
  const XteaKey key = XteaKey::derive(bytes_of("ts"));
  const auto sealed = seal_u64(key, 1, 42);
  std::uint64_t out = 0;
  ASSERT_TRUE(open_u64(key, 2, sealed, out));
  EXPECT_NE(out, 42u);
}

TEST(Xtea, OpenWrongSizeFails) {
  const XteaKey key = XteaKey::derive(bytes_of("ts"));
  std::uint64_t out = 0;
  const std::vector<std::uint8_t> short_buf(7, 0);
  EXPECT_FALSE(open_u64(key, 1, short_buf, out));
}

TEST(Xtea, DeriveDeterministic) {
  EXPECT_EQ(XteaKey::derive(bytes_of("a")).words,
            XteaKey::derive(bytes_of("a")).words);
  EXPECT_NE(XteaKey::derive(bytes_of("a")).words,
            XteaKey::derive(bytes_of("b")).words);
}

}  // namespace
}  // namespace tmg::crypto
