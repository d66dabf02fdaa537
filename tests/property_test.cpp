// Property-based tests: randomized sweeps checking invariants against
// reference implementations (seeded, so failures are reproducible).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <bit>
#include <iterator>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "net/ipv4_address.hpp"
#include "net/lldp.hpp"
#include "net/mac_address.hpp"
#include "of/flow_table.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/latency_window.hpp"
#include "topo/graph.hpp"

namespace tmg {
namespace {

using namespace tmg::sim::literals;
using sim::Duration;
using sim::EventLoop;
using sim::Rng;
using sim::SimTime;

// ---------------- LLDP wire format ----------------

class LldpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LldpFuzz, RandomBytesNeverCrashAndRoundTripHolds) {
  Rng rng{GetParam()};
  // (a) random garbage must parse to nullopt or to *something*, never
  // crash or read out of bounds.
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)net::LldpPacket::parse(junk);
  }
  // (b) serialize -> parse is the identity for random valid packets,
  // with random combinations of optional TLVs, including TLVs that only
  // a tamper call created; serialized_size() agrees with serialize().
  // sign(key) attaches exactly authenticator(key), and verifying against
  // that tag agrees with verify(key).
  const crypto::Key akey = crypto::Key::derive({{0x1, 0x2}});
  const crypto::XteaKey tkey = crypto::XteaKey::derive({{0x3, 0x4}});
  for (int i = 0; i < 500; ++i) {
    net::LldpPacket p{rng.next_u64(),
                      static_cast<net::PortNo>(rng.uniform_int(0, 65535)),
                      static_cast<std::uint16_t>(rng.uniform_int(0, 65535))};
    if (rng.chance(0.5)) {
      net::LldpPacket tagged = p;
      tagged.set_authenticator(p.authenticator(akey));
      p.sign(akey);
      EXPECT_EQ(p, tagged);
    }
    if (rng.chance(0.5)) {
      p.set_encrypted_timestamp(
          tkey, rng.next_u64(),
          SimTime::from_nanos(static_cast<std::int64_t>(rng.next_u64() >> 1)));
    }
    if (rng.chance(0.25)) p.tamper_authenticator();
    if (rng.chance(0.25)) p.tamper_timestamp();
    EXPECT_EQ(p.verify(p.authenticator(akey)), p.verify(akey));
    EXPECT_EQ(p.serialized_size(), p.serialize().size());
    const auto parsed = net::LldpPacket::parse(p.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  // (c) single-bit corruption of a signed packet must break the MAC or
  // the structure — never yield a different packet that still verifies,
  // by verify(key) or by its own authenticator(key).
  for (int i = 0; i < 300; ++i) {
    net::LldpPacket p{rng.next_u64(), 7};
    p.sign(akey);
    EXPECT_TRUE(p.verify(p.authenticator(akey)));
    auto bytes = p.serialize();
    EXPECT_EQ(p.serialized_size(), bytes.size());
    const std::size_t bit = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size() * 8 - 1)));
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto parsed = net::LldpPacket::parse(bytes);
    if (parsed) {
      EXPECT_EQ(parsed->verify(parsed->authenticator(akey)),
                parsed->verify(akey));
    }
    if (parsed && parsed->verify(akey)) {
      // Only acceptable if the flip landed in ignored padding, i.e. the
      // packet is bit-identical in content.
      EXPECT_EQ(*parsed, p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LldpFuzz, ::testing::Values(1, 2, 3, 4));

// ---------------- Address text: seeded mutations ----------------

/// Valid inputs of the address parsers: a MAC and an IPv4 address.
const std::vector<std::string>& address_seeds() {
  static const std::vector<std::string> seeds{"aa:bb:cc:dd:ee:ff",
                                              "10.0.0.1"};
  return seeds;
}

/// One to four bit flips, truncations, splices from any seed, or
/// inserted tokens that an address parser treats specially.
std::string mutate(Rng& rng, std::string text) {
  static const char* const kTokens[] = {
      "-", "-0", "0.", "18446744073709551616", "\n", " ", ".", ":", "::",
      "ff", "256", "999"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  const std::vector<std::string>& seeds = address_seeds();
  for (std::int64_t round = rng.uniform_int(1, 4); round > 0; --round) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (!text.empty()) {
          text[pick(text.size() - 1)] ^=
              static_cast<char>(1 << rng.uniform_int(0, 7));
        }
        break;
      case 1:
        text.resize(pick(text.size()));
        break;
      case 2: {
        const std::string& donor = seeds[pick(seeds.size() - 1)];
        const std::size_t from = pick(donor.size());
        const std::size_t len = pick(std::min<std::size_t>(
            64, donor.size() - from));
        const std::size_t at = pick(text.size());
        const std::size_t cut =
            pick(std::min<std::size_t>(64, text.size() - at));
        text.replace(at, cut, donor, from, len);
        break;
      }
      default:
        text.insert(pick(text.size()),
                    kTokens[pick(std::size(kTokens) - 1)]);
        break;
    }
  }
  return text;
}

class FileInputFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The MAC and IPv4 parsers return a value or nothing on mutated input,
// never crash (the sanitizer builds turn an out-of-bounds read into an
// abort), and an accepted address prints back to itself.
TEST_P(FileInputFuzz, MutatedInputsYieldValueOrError) {
  Rng rng{GetParam()};
  const std::vector<std::string>& seeds = address_seeds();
  // The unmutated seeds are valid.
  ASSERT_TRUE(net::MacAddress::parse(seeds[0]));
  ASSERT_TRUE(net::Ipv4Address::parse(seeds[1]));
  for (int i = 0; i < 400; ++i) {
    const std::size_t seed = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size() - 1)));
    const std::string text = mutate(rng, seeds[seed]);
    if (const auto mac = net::MacAddress::parse(text)) {
      EXPECT_EQ(net::MacAddress::parse(mac->to_string()), mac) << text;
    }
    if (const auto ip = net::Ipv4Address::parse(text)) {
      EXPECT_EQ(net::Ipv4Address::parse(ip->to_string()), ip) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileInputFuzz,
                         ::testing::Values(1, 2, 3, 4));

// ---------------- FlowTable vs. reference model ----------------

namespace reference {

struct Entry {
  of::FlowEntry e;
  std::uint64_t order;  // insertion order for stable tie-break
};

/// Dumb-but-obviously-correct lookup: scan everything.
const of::FlowEntry* lookup(const std::vector<Entry>& entries,
                            const net::Packet& pkt, of::PortNo in_port) {
  const Entry* best = nullptr;
  for (const auto& entry : entries) {
    if (!entry.e.match.matches(pkt, in_port)) continue;
    if (!best || entry.e.priority > best->e.priority ||
        (entry.e.priority == best->e.priority &&
         entry.order < best->order)) {
      best = &entry;
    }
  }
  return best ? &best->e : nullptr;
}

}  // namespace reference

class FlowTableModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableModel, LookupAgreesWithReference) {
  Rng rng{GetParam()};
  of::FlowTable table;
  std::vector<reference::Entry> model;
  std::uint64_t order = 0;

  const auto random_match = [&]() {
    of::FlowMatch m;
    if (rng.chance(0.4)) m.in_port = static_cast<of::PortNo>(rng.uniform_int(1, 3));
    if (rng.chance(0.4)) m.src_mac = net::MacAddress::host(
        static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
    if (rng.chance(0.4)) m.dst_mac = net::MacAddress::host(
        static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
    if (rng.chance(0.3)) m.src_ip = net::Ipv4Address::host(
        static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
    return m;
  };

  for (int i = 0; i < 60; ++i) {
    of::FlowEntry e;
    e.match = random_match();
    e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 5) * 100);
    e.action = of::FlowAction::output(
        static_cast<of::PortNo>(rng.uniform_int(1, 3)));
    e.cookie = static_cast<std::uint64_t>(i);
    // Mirror OpenFlow replace semantics in the model.
    bool replaced = false;
    for (auto& m : model) {
      if (m.e.priority == e.priority && m.e.match == e.match) {
        m.e = e;
        replaced = true;
        break;
      }
    }
    if (!replaced) model.push_back({e, order++});
    table.add(e, SimTime::zero());
  }

  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    const auto dst = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    const auto port = static_cast<of::PortNo>(rng.uniform_int(1, 3));
    const net::Packet pkt = net::make_icmp_echo(
        net::MacAddress::host(src), net::Ipv4Address::host(src),
        net::MacAddress::host(dst), net::Ipv4Address::host(dst), 1, 1);
    const of::FlowEntry* got = table.lookup(pkt, port, SimTime::zero());
    const of::FlowEntry* want = reference::lookup(model, pkt, port);
    ASSERT_EQ(got != nullptr, want != nullptr) << "query " << i;
    if (got) {
      EXPECT_EQ(got->cookie, want->cookie) << "query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableModel,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------- EventLoop ordering ----------------

class EventLoopOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLoopOrdering, ExecutionRespectsTimeThenInsertion) {
  Rng rng{GetParam()};
  EventLoop loop;
  struct Planned {
    std::int64_t at_ms;
    int id;
    bool cancelled;
  };
  std::vector<Planned> plan;
  std::vector<int> executed;
  std::vector<sim::TimerHandle> handles;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t at = rng.uniform_int(0, 20);  // many ties
    plan.push_back({at, i, false});
    handles.push_back(loop.schedule_at(
        SimTime::zero() + Duration::millis(at),
        [&executed, i] { executed.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(0.25)) {
      plan[static_cast<std::size_t>(i)].cancelled = true;
      handles[static_cast<std::size_t>(i)].cancel();
    }
  }
  loop.run();

  std::vector<int> expected;
  std::vector<Planned> sorted = plan;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.at_ms < b.at_ms;
                   });
  for (const auto& p : sorted) {
    if (!p.cancelled) expected.push_back(p.id);
  }
  EXPECT_EQ(executed, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopOrdering,
                         ::testing::Values(5, 6, 7));

// ---------------- Topology BFS vs. Floyd-Warshall ----------------

class GraphPaths : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphPaths, BfsLengthMatchesFloydWarshall) {
  Rng rng{GetParam()};
  topo::TopologyGraph g;
  constexpr int kNodes = 8;
  constexpr int kInf = 1'000'000;
  int dist[kNodes + 1][kNodes + 1];
  for (int i = 1; i <= kNodes; ++i) {
    for (int j = 1; j <= kNodes; ++j) dist[i][j] = i == j ? 0 : kInf;
  }
  std::uint16_t next_port = 1;
  for (int e = 0; e < 12; ++e) {
    const auto a = static_cast<topo::Dpid>(rng.uniform_int(1, kNodes));
    const auto b = static_cast<topo::Dpid>(rng.uniform_int(1, kNodes));
    if (a == b) continue;
    g.add_link(topo::Location{a, next_port++},
               topo::Location{b, next_port++});
    dist[a][b] = std::min(dist[a][b], 1);
    dist[b][a] = std::min(dist[b][a], 1);
  }
  for (int k = 1; k <= kNodes; ++k) {
    for (int i = 1; i <= kNodes; ++i) {
      for (int j = 1; j <= kNodes; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (int i = 1; i <= kNodes; ++i) {
    for (int j = 1; j <= kNodes; ++j) {
      const auto path = g.path(static_cast<topo::Dpid>(i),
                               static_cast<topo::Dpid>(j));
      if (dist[i][j] >= kInf) {
        EXPECT_FALSE(path.has_value()) << i << "->" << j;
      } else {
        ASSERT_TRUE(path.has_value()) << i << "->" << j;
        EXPECT_EQ(static_cast<int>(path->size()), dist[i][j])
            << i << "->" << j;
        // The hop sequence must be a real walk over existing links.
        topo::Dpid cur = static_cast<topo::Dpid>(i);
        for (const auto& hop : *path) {
          EXPECT_EQ(hop.from.dpid, cur);
          EXPECT_TRUE(g.has_link(hop.from, hop.to));
          cur = hop.to.dpid;
        }
        EXPECT_EQ(cur, static_cast<topo::Dpid>(j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPaths,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// ---------------- LatencyWindow vs. recompute ----------------

class WindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowProperty, ThresholdAlwaysMatchesRetainedSamples) {
  Rng rng{GetParam()};
  stats::LatencyWindow w{17, 3.0, 5};
  std::vector<double> shadow;  // last 17 accepted samples
  for (int i = 0; i < 400; ++i) {
    const double x = rng.lognormal(1.6, 0.4);
    w.add(x);
    shadow.push_back(x);
    if (shadow.size() > 17) shadow.erase(shadow.begin());
    EXPECT_EQ(w.samples(), shadow);
    if (shadow.size() >= 5) {
      const auto iqr = stats::compute_iqr(shadow);
      ASSERT_TRUE(w.threshold().has_value());
      EXPECT_DOUBLE_EQ(*w.threshold(), iqr.upper_fence(3.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowProperty, ::testing::Values(9, 10));

// ---------------- Crypto properties ----------------

class CryptoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CryptoProperty, Sha256ChunkingInvariant) {
  // Hashing is invariant under arbitrary input chunking.
  Rng rng{GetParam()};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto oneshot = crypto::Sha256::hash(data);
    crypto::Sha256 ctx;
    std::size_t off = 0;
    while (off < data.size()) {
      const auto take = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(data.size() - off)));
      ctx.update({data.data() + off, take});
      off += take;
    }
    EXPECT_EQ(ctx.finish(), oneshot);
  }
}

TEST_P(CryptoProperty, XteaRoundTripAndAvalanche) {
  Rng rng{GetParam() ^ 0x7e47};
  const crypto::XteaKey key = crypto::XteaKey::derive({{0x42}});
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t pt = rng.next_u64();
    const std::uint64_t ct = crypto::xtea_encrypt_block(key, pt);
    EXPECT_EQ(crypto::xtea_decrypt_block(key, ct), pt);
    // One flipped plaintext bit avalanches broadly (>= 16 of 64 bits).
    const std::uint64_t ct2 = crypto::xtea_encrypt_block(
        key, pt ^ (1ULL << rng.uniform_int(0, 63)));
    const int flipped = std::popcount(ct ^ ct2);
    EXPECT_GE(flipped, 16);
  }
}

TEST_P(CryptoProperty, HmacDistinguishesEverything) {
  // Different key or different message => different MAC (no collisions
  // across a random corpus).
  Rng rng{GetParam() ^ 0xaac};
  std::set<std::string> macs;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> key_bytes(16), msg(32);
    for (auto& b : key_bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto mac =
        crypto::hmac_sha256(crypto::Key{key_bytes}, msg);
    macs.insert(crypto::to_hex(mac));
  }
  EXPECT_EQ(macs.size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoProperty, ::testing::Values(21, 22));

// ---------------- Histogram conservation ----------------

TEST(HistogramProperty, EverySampleLandsExactlyOnce) {
  Rng rng{77};
  stats::Histogram h{-10.0, 10.0, 13};
  const int n = 5000;
  for (int i = 0; i < n; ++i) h.add(rng.normal(0.0, 8.0));  // many clamped
  std::size_t total = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) total += h.count(b);
  EXPECT_EQ(total, static_cast<std::size_t>(n));
  EXPECT_EQ(h.total(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace tmg
