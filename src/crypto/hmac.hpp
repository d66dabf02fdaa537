// HMAC-SHA256 (RFC 2104).
//
// TopoGuard authenticates controller-emitted LLDP packets with a keyed
// MAC so that end-hosts cannot forge LLDP contents (they can still relay
// intact packets, which is exactly what the port-amnesia attacks exploit).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace tmg::crypto {

/// A symmetric key held by the controller. Construction absorbs the
/// padded key blocks K^ipad and K^opad into two SHA-256 midstates, so
/// every MAC under the key starts from copies of them and costs two
/// compressions for a short message instead of four. The raw key bytes
/// are not kept, so the midstates cannot go stale.
class Key {
 public:
  explicit Key(std::span<const std::uint8_t> bytes);

  /// Derive a key deterministically from a seed label (test fixtures and
  /// scenario setup; production code would use a CSPRNG).
  static Key derive(std::span<const std::uint8_t> seed);

 private:
  friend Digest256 hmac_sha256(const Key& key,
                               std::span<const std::uint8_t> data);

  Sha256 inner_;  // state after the K^ipad block
  Sha256 outer_;  // state after the K^opad block
};

/// HMAC-SHA256 of `data` under `key`.
Digest256 hmac_sha256(const Key& key, std::span<const std::uint8_t> data);

/// Constant-time comparison of two digests.
bool digest_equal(const Digest256& a, const Digest256& b);

}  // namespace tmg::crypto
