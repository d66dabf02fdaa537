// Link Layer Discovery Protocol packets.
//
// The controller's link-discovery service crafts LLDP packets carrying
// the emitting switch's DPID and port. TopoGuard adds an HMAC
// authenticator TLV; TOPOGUARD+ adds an encrypted departure-timestamp
// TLV (paper Sec. VI-D). Packets are (de)serialized to bytes so the
// cryptographic operations run over real wire content.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "sim/time.hpp"

namespace tmg::net {

/// Switch datapath identifier.
using Dpid = std::uint64_t;
/// Switch-local port number (1-based; 0 is reserved).
using PortNo = std::uint16_t;

class LldpPacket {
 public:
  LldpPacket() = default;
  LldpPacket(Dpid chassis, PortNo port, std::uint16_t ttl_seconds = 120)
      : chassis_{chassis}, port_{port}, ttl_{ttl_seconds} {}

  [[nodiscard]] Dpid chassis_id() const { return chassis_; }
  [[nodiscard]] PortNo port_id() const { return port_; }
  [[nodiscard]] std::uint16_t ttl() const { return ttl_; }

  // --- Authenticator TLV (TopoGuard) ---

  /// The authenticator TLV's value: HMAC-SHA256 truncated to 16 bytes.
  using Authenticator = std::array<std::uint8_t, 16>;

  /// The tag sign(key) attaches: the MAC of the core TLVs
  /// (chassis/port/ttl) under `key`. Nothing else enters it, so a core
  /// keeps its tag for as long as the key lives.
  [[nodiscard]] Authenticator authenticator(const crypto::Key& key) const;

  /// Attach `tag` as the authenticator, replacing any present.
  void set_authenticator(const Authenticator& tag);

  /// Sign the core TLVs: set_authenticator(authenticator(key)).
  void sign(const crypto::Key& key);

  /// True iff an authenticator is present and equals `tag`. The compare
  /// runs in constant time.
  [[nodiscard]] bool verify(const Authenticator& tag) const;

  /// Verify the authenticator against authenticator(key). False if
  /// absent or mismatched.
  [[nodiscard]] bool verify(const crypto::Key& key) const;

  [[nodiscard]] bool has_authenticator() const { return !auth_.empty(); }

  /// Corrupt the authenticator (attack modeling / negative tests).
  void tamper_authenticator();

  // --- Encrypted timestamp TLV (TOPOGUARD+ LLI) ---

  /// Seal the departure time under the controller's key. `nonce` must be
  /// unique per packet.
  void set_encrypted_timestamp(const crypto::XteaKey& key,
                               std::uint64_t nonce, sim::SimTime departure);

  /// Decrypt the departure timestamp. nullopt if the TLV is absent.
  [[nodiscard]] std::optional<sim::SimTime> decrypt_timestamp(
      const crypto::XteaKey& key) const;

  [[nodiscard]] bool has_timestamp() const { return !sealed_ts_.empty(); }

  /// Overwrite the sealed timestamp bytes (attacker tampering; the value
  /// decrypts to garbage, which the LLI flags as an implausible latency).
  void tamper_timestamp();

  // --- Wire format ---

  /// Serialize the full packet (core + present optional TLVs).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// `serialize().size()`, by arithmetic (frame sizing for byte counters).
  [[nodiscard]] std::size_t serialized_size() const;

  /// Parse from bytes. nullopt on malformed input.
  static std::optional<LldpPacket> parse(std::span<const std::uint8_t> bytes);

  bool operator==(const LldpPacket&) const = default;

 private:
  /// Chassis (2+8), port (2+2) and TTL (2+2) TLVs.
  static constexpr std::size_t kCoreLen = 18;

  /// The byte string covered by the authenticator.
  [[nodiscard]] std::array<std::uint8_t, kCoreLen> core_bytes() const;

  Dpid chassis_ = 0;
  PortNo port_ = 0;
  std::uint16_t ttl_ = 120;
  std::vector<std::uint8_t> auth_;        // truncated HMAC (16 bytes)
  std::uint64_t ts_nonce_ = 0;            // CTR nonce for the sealed ts
  std::vector<std::uint8_t> sealed_ts_;   // 8 bytes XTEA-CTR ciphertext
};

}  // namespace tmg::net
