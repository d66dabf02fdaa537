// Unit tests for the topology graph.
#include <gtest/gtest.h>

#include "topo/graph.hpp"

namespace tmg::topo {
namespace {

const Location kS1P1{0x1, 1};
const Location kS1P2{0x1, 2};
const Location kS2P1{0x2, 1};
const Location kS2P2{0x2, 2};
const Location kS3P1{0x3, 1};
const Location kS3P2{0x3, 2};
const Location kS4P1{0x4, 1};

TEST(Link, CanonicalOrdering) {
  const Link a{kS2P1, kS1P1};
  const Link b{kS1P1, kS2P1};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.a, kS1P1);
  EXPECT_EQ(a.b, kS2P1);
}

TEST(Link, ToString) {
  EXPECT_EQ((Link{kS2P1, kS1P1}).to_string(), "0x1:1<->0x2:1");
}

TEST(TopologyGraph, AddIsIdempotent) {
  TopologyGraph g;
  EXPECT_TRUE(g.add_link(kS1P1, kS2P1));
  EXPECT_FALSE(g.add_link(kS2P1, kS1P1));  // same link, other orientation
  EXPECT_EQ(g.link_count(), 1u);
}

TEST(TopologyGraph, HasLinkEitherOrientation) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  EXPECT_TRUE(g.has_link(kS1P1, kS2P1));
  EXPECT_TRUE(g.has_link(kS2P1, kS1P1));
  EXPECT_FALSE(g.has_link(kS1P2, kS2P1));
}

TEST(TopologyGraph, RemoveLink) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  EXPECT_TRUE(g.remove_link(kS2P1, kS1P1));
  EXPECT_FALSE(g.remove_link(kS2P1, kS1P1));
  EXPECT_EQ(g.link_count(), 0u);
  EXPECT_FALSE(g.is_switch_port(kS1P1));
}

TEST(TopologyGraph, IsSwitchPort) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  EXPECT_TRUE(g.is_switch_port(kS1P1));
  EXPECT_TRUE(g.is_switch_port(kS2P1));
  EXPECT_FALSE(g.is_switch_port(kS1P2));
  EXPECT_FALSE(g.is_switch_port(Location{0x9, 1}));
}

TEST(TopologyGraph, LinksSortedSnapshot) {
  TopologyGraph g;
  g.add_link(kS2P2, kS3P1);
  g.add_link(kS1P1, kS2P1);
  const auto links = g.links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_LT(links[0], links[1]);
}

TEST(TopologyGraph, PathTrivial) {
  TopologyGraph g;
  const auto p = g.path(0x1, 0x1);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(TopologyGraph, PathLinearChain) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  g.add_link(kS2P2, kS3P1);
  const auto p = g.path(0x1, 0x3);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->size(), 2u);
  EXPECT_EQ((*p)[0].from, kS1P1);
  EXPECT_EQ((*p)[0].to, kS2P1);
  EXPECT_EQ((*p)[1].from, kS2P2);
  EXPECT_EQ((*p)[1].to, kS3P1);
}

TEST(TopologyGraph, PathReverseDirection) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  const auto p = g.path(0x2, 0x1);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->size(), 1u);
  EXPECT_EQ((*p)[0].from, kS2P1);
  EXPECT_EQ((*p)[0].to, kS1P1);
}

TEST(TopologyGraph, PathUnreachable) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  g.add_link(kS3P1, kS4P1);
  EXPECT_FALSE(g.path(0x1, 0x3).has_value());
  EXPECT_FALSE(g.path(0x1, 0x99).has_value());
}

TEST(TopologyGraph, BfsPrefersShortcut) {
  // Chain 1-2-3-4 plus a (fabricated) shortcut 2-4: BFS must take it.
  TopologyGraph g;
  g.add_link(Location{0x1, 10}, Location{0x2, 11});
  g.add_link(Location{0x2, 10}, Location{0x3, 11});
  g.add_link(Location{0x3, 10}, Location{0x4, 11});
  const auto before = g.path(0x1, 0x4);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->size(), 3u);
  g.add_link(Location{0x2, 1}, Location{0x4, 1});  // the poisoned edge
  const auto after = g.path(0x1, 0x4);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->size(), 2u);
  EXPECT_EQ((*after)[1].from, (Location{0x2, 1}));
  EXPECT_EQ((*after)[1].to, (Location{0x4, 1}));
}

TEST(TopologyGraph, PathHandlesCycles) {
  TopologyGraph g;
  g.add_link(Location{0x1, 1}, Location{0x2, 1});
  g.add_link(Location{0x2, 2}, Location{0x3, 1});
  g.add_link(Location{0x3, 2}, Location{0x1, 2});  // cycle
  const auto p = g.path(0x1, 0x3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 1u);  // direct edge via the cycle link
}

TEST(TopologyGraph, ClearEmpties) {
  TopologyGraph g;
  g.add_link(kS1P1, kS2P1);
  const auto index = g.switch_index(0x1);
  ASSERT_TRUE(index.has_value());
  g.clear();
  EXPECT_EQ(g.link_count(), 0u);
  EXPECT_FALSE(g.path(0x1, 0x2).has_value());
  // Interning survives: side tables keyed on the index stay valid.
  EXPECT_EQ(g.switch_index(0x1), index);
}

TEST(TopologyGraph, MultipleLinksBetweenSameSwitches) {
  TopologyGraph g;
  EXPECT_TRUE(g.add_link(kS1P1, kS2P1));
  EXPECT_TRUE(g.add_link(kS1P2, kS2P2));  // parallel link, distinct ports
  EXPECT_EQ(g.link_count(), 2u);
  g.remove_link(kS1P1, kS2P1);
  // The parallel link still connects them.
  EXPECT_TRUE(g.path(0x1, 0x2).has_value());
}

}  // namespace
}  // namespace tmg::topo
