#include "net/lldp.hpp"

#include <algorithm>
#include <cstring>

namespace tmg::net {

namespace {

// TLV type codes (loosely modeled on 802.1AB: type 1 chassis, 2 port,
// 3 TTL, 127 org-specific with a one-byte subtype).
constexpr std::uint8_t kTlvChassis = 1;
constexpr std::uint8_t kTlvPort = 2;
constexpr std::uint8_t kTlvTtl = 3;
constexpr std::uint8_t kTlvOrg = 127;
constexpr std::uint8_t kSubAuth = 0x01;
constexpr std::uint8_t kSubTimestamp = 0x02;

constexpr std::size_t kAuthLen = std::tuple_size_v<LldpPacket::Authenticator>;
constexpr std::size_t kTlvHeader = 2;               // type + length
constexpr std::size_t kOrgHeader = kTlvHeader + 1;  // + subtype

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_tlv(std::vector<std::uint8_t>& out, std::uint8_t type,
             std::span<const std::uint8_t> value) {
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= data.size(); }

  bool read_tlv(std::uint8_t& type, std::span<const std::uint8_t>& value) {
    if (pos + 2 > data.size()) return false;
    type = data[pos];
    const std::size_t len = data[pos + 1];
    if (pos + 2 + len > data.size()) return false;
    value = data.subspan(pos + 2, len);
    pos += 2 + len;
    return true;
  }
};

std::uint16_t get_u16(std::span<const std::uint8_t> v) {
  return static_cast<std::uint16_t>((v[0] << 8) | v[1]);
}

std::uint64_t get_u64(std::span<const std::uint8_t> v) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | v[static_cast<std::size_t>(i)];
  return x;
}

}  // namespace

std::array<std::uint8_t, LldpPacket::kCoreLen> LldpPacket::core_bytes()
    const {
  std::array<std::uint8_t, kCoreLen> out{};
  std::size_t pos = 0;
  const auto put = [&](std::uint8_t type, std::uint64_t v, std::size_t len) {
    out[pos++] = type;
    out[pos++] = static_cast<std::uint8_t>(len);
    for (std::size_t i = len; i-- > 0;) {
      out[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put(kTlvChassis, chassis_, 8);
  put(kTlvPort, port_, 2);
  put(kTlvTtl, ttl_, 2);
  return out;
}

LldpPacket::Authenticator LldpPacket::authenticator(
    const crypto::Key& key) const {
  const crypto::Digest256 mac = crypto::hmac_sha256(key, core_bytes());
  Authenticator tag{};
  std::copy_n(mac.begin(), kAuthLen, tag.begin());
  return tag;
}

void LldpPacket::set_authenticator(const Authenticator& tag) {
  auth_.assign(tag.begin(), tag.end());
}

void LldpPacket::sign(const crypto::Key& key) {
  set_authenticator(authenticator(key));
}

bool LldpPacket::verify(const Authenticator& tag) const {
  if (auth_.size() != kAuthLen) return false;
  // Constant time: no exit at the first differing byte.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kAuthLen; ++i) diff |= auth_[i] ^ tag[i];
  return diff == 0;
}

bool LldpPacket::verify(const crypto::Key& key) const {
  return has_authenticator() && verify(authenticator(key));
}

void LldpPacket::tamper_authenticator() {
  if (auth_.empty()) auth_.assign(kAuthLen, 0);
  auth_[0] ^= 0xff;
}

void LldpPacket::set_encrypted_timestamp(const crypto::XteaKey& key,
                                         std::uint64_t nonce,
                                         sim::SimTime departure) {
  ts_nonce_ = nonce;
  sealed_ts_ = crypto::seal_u64(
      key, nonce, static_cast<std::uint64_t>(departure.count_nanos()));
}

std::optional<sim::SimTime> LldpPacket::decrypt_timestamp(
    const crypto::XteaKey& key) const {
  if (sealed_ts_.empty()) return std::nullopt;
  std::uint64_t v = 0;
  if (!crypto::open_u64(key, ts_nonce_, sealed_ts_, v)) return std::nullopt;
  return sim::SimTime::from_nanos(static_cast<std::int64_t>(v));
}

void LldpPacket::tamper_timestamp() {
  if (sealed_ts_.empty()) sealed_ts_.assign(8, 0);
  sealed_ts_[0] ^= 0xff;
}

std::size_t LldpPacket::serialized_size() const {
  std::size_t n = kCoreLen + kTlvHeader;  // core TLVs + end marker
  if (!auth_.empty()) n += kOrgHeader + auth_.size();
  if (!sealed_ts_.empty()) {
    n += kOrgHeader + sizeof ts_nonce_ + sealed_ts_.size();
  }
  return n;
}

std::vector<std::uint8_t> LldpPacket::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(serialized_size());
  const auto core = core_bytes();
  out.assign(core.begin(), core.end());
  if (!auth_.empty()) {
    std::vector<std::uint8_t> v;
    v.push_back(kSubAuth);
    v.insert(v.end(), auth_.begin(), auth_.end());
    put_tlv(out, kTlvOrg, v);
  }
  if (!sealed_ts_.empty()) {
    std::vector<std::uint8_t> v;
    v.push_back(kSubTimestamp);
    put_u64(v, ts_nonce_);
    v.insert(v.end(), sealed_ts_.begin(), sealed_ts_.end());
    put_tlv(out, kTlvOrg, v);
  }
  // End-of-LLDPDU marker.
  out.push_back(0);
  out.push_back(0);
  return out;
}

std::optional<LldpPacket> LldpPacket::parse(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  LldpPacket pkt;
  bool have_chassis = false, have_port = false, have_ttl = false;
  while (!r.done()) {
    std::uint8_t type = 0;
    std::span<const std::uint8_t> value;
    if (!r.read_tlv(type, value)) return std::nullopt;
    switch (type) {
      case 0:
        // End of LLDPDU.
        if (!(have_chassis && have_port && have_ttl)) return std::nullopt;
        return pkt;
      case kTlvChassis:
        if (value.size() != 8) return std::nullopt;
        pkt.chassis_ = get_u64(value);
        have_chassis = true;
        break;
      case kTlvPort:
        if (value.size() != 2) return std::nullopt;
        pkt.port_ = get_u16(value);
        have_port = true;
        break;
      case kTlvTtl:
        if (value.size() != 2) return std::nullopt;
        pkt.ttl_ = get_u16(value);
        have_ttl = true;
        break;
      case kTlvOrg: {
        if (value.empty()) return std::nullopt;
        const std::uint8_t sub = value[0];
        const auto body = value.subspan(1);
        if (sub == kSubAuth) {
          if (body.size() != kAuthLen) return std::nullopt;
          pkt.auth_.assign(body.begin(), body.end());
        } else if (sub == kSubTimestamp) {
          if (body.size() != 16) return std::nullopt;
          pkt.ts_nonce_ = get_u64(body.first(8));
          pkt.sealed_ts_.assign(body.begin() + 8, body.end());
        }
        // Unknown subtypes are skipped (forward compatibility).
        break;
      }
      default:
        // Unknown TLV types are skipped.
        break;
    }
  }
  return std::nullopt;  // missing end marker
}

}  // namespace tmg::net
