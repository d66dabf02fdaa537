#include "crypto/hmac.hpp"

#include <algorithm>

namespace tmg::crypto {

Key::Key(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (bytes.size() > kBlock) {
    const Digest256 kd = Sha256::hash(bytes);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(bytes.begin(), bytes.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad{};
  std::array<std::uint8_t, kBlock> opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Key Key::derive(std::span<const std::uint8_t> seed) {
  return Key{Sha256::hash(seed)};
}

Digest256 hmac_sha256(const Key& key, std::span<const std::uint8_t> data) {
  Sha256 inner = key.inner_;
  inner.update(data);
  const Digest256 inner_digest = inner.finish();

  Sha256 outer = key.outer_;
  outer.update(inner_digest);
  return outer.finish();
}

bool digest_equal(const Digest256& a, const Digest256& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace tmg::crypto
