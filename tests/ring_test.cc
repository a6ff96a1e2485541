#include "hashring/ring.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hashring/ketama.h"

namespace hotman::hashring {
namespace {

TEST(KetamaTest, Deterministic) {
  EXPECT_EQ(KetamaHash("Resistor5"), KetamaHash("Resistor5"));
  EXPECT_NE(KetamaHash("Resistor5"), KetamaHash("Resistor6"));
}

TEST(KetamaTest, VirtualPointsCountAndDeterminism) {
  auto points = VirtualPoints("db1:19870", 128);
  EXPECT_EQ(points.size(), 128u);
  EXPECT_EQ(points, VirtualPoints("db1:19870", 128));
  EXPECT_NE(points, VirtualPoints("db2:19870", 128));
}

TEST(KetamaTest, FourPointsPerDigestGroup) {
  auto p4 = VirtualPoints("n", 4);
  auto p8 = VirtualPoints("n", 8);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p4[i], p8[i]);  // prefix-stable
}

TEST(RingTest, EmptyRingRejectsLookups) {
  Ring ring;
  EXPECT_TRUE(ring.PrimaryFor("k").status().IsNotFound());
  EXPECT_TRUE(ring.PreferenceList("k", 3).empty());
}

TEST(RingTest, AddRemoveNodes) {
  Ring ring;
  ASSERT_TRUE(ring.AddNode("a", 8).ok());
  EXPECT_TRUE(ring.AddNode("a", 8).IsAlreadyExists());
  EXPECT_TRUE(ring.AddNode("bad", 0).IsInvalidArgument());
  EXPECT_EQ(ring.NumPhysicalNodes(), 1u);
  EXPECT_EQ(ring.NumVirtualNodes(), 8u);
  ASSERT_TRUE(ring.RemoveNode("a").ok());
  EXPECT_TRUE(ring.RemoveNode("a").IsNotFound());
  EXPECT_EQ(ring.NumVirtualNodes(), 0u);
}

TEST(RingTest, AddNodeRefusesMoreThanMaxVnodes) {
  Ring ring;
  EXPECT_TRUE(ring.AddNode("big", kMaxVnodes + 1).IsInvalidArgument());
  EXPECT_FALSE(ring.HasNode("big"));
  EXPECT_EQ(ring.NumVirtualNodes(), 0u);
  ASSERT_TRUE(ring.AddNode("big", kMaxVnodes).ok());
  EXPECT_EQ(ring.VnodeCount("big"), kMaxVnodes);
}

TEST(RingTest, SingleNodeOwnsEverything) {
  Ring ring;
  ASSERT_TRUE(ring.AddNode("only", 4).ok());
  for (int i = 0; i < 100; ++i) {
    auto owner = ring.PrimaryFor("key" + std::to_string(i));
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(*owner, "only");
  }
}

TEST(RingTest, PreferenceListDistinctPhysicalNodes) {
  Ring ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), 64).ok());
  }
  for (int i = 0; i < 200; ++i) {
    auto prefs = ring.PreferenceList("key" + std::to_string(i), 3);
    ASSERT_EQ(prefs.size(), 3u);
    std::set<NodeId> unique(prefs.begin(), prefs.end());
    EXPECT_EQ(unique.size(), 3u) << "duplicate physical node in preference list";
  }
}

TEST(RingTest, PreferenceListCappedByPhysicalCount) {
  Ring ring;
  ASSERT_TRUE(ring.AddNode("a", 16).ok());
  ASSERT_TRUE(ring.AddNode("b", 16).ok());
  auto prefs = ring.PreferenceList("k", 5);
  EXPECT_EQ(prefs.size(), 2u);
}

TEST(RingTest, PreferenceListStartsAtPrimary) {
  Ring ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), 64).ok());
  }
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(ring.PreferenceList(key, 3).front(), *ring.PrimaryFor(key));
  }
}

TEST(RingTest, RangeContainsMatchesPrimaryOwnership) {
  Ring ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), 32).ok());
  }
  // For every key, exactly the owner's ranges contain the key's hash.
  for (int i = 0; i < 300; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::uint32_t h = Ring::HashKey(key);
    const NodeId owner = *ring.PrimaryFor(key);
    bool in_owner_range = false;
    for (const Range& range : ring.RangesOwnedBy(owner)) {
      if (range.Contains(h)) {
        in_owner_range = true;
        break;
      }
    }
    EXPECT_TRUE(in_owner_range) << key;
  }
}

TEST(RingTest, RangesCoverWholeRing) {
  Ring ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), 32).ok());
  }
  std::uint64_t covered = 0;
  for (const NodeId& node : ring.Nodes()) {
    for (const Range& range : ring.RangesOwnedBy(node)) {
      if (range.start == range.end) {
        covered += std::uint64_t{1} << 32;
      } else if (range.start < range.end) {
        covered += range.end - range.start;
      } else {
        covered += (std::uint64_t{1} << 32) - range.start + range.end;
      }
    }
  }
  EXPECT_EQ(covered, std::uint64_t{1} << 32);
}

TEST(RingTest, WrapAroundKeyMapsToFirstPoint) {
  Ring ring;
  ASSERT_TRUE(ring.AddNode("a", 4).ok());
  ASSERT_TRUE(ring.AddNode("b", 4).ok());
  // A point beyond the last virtual node must wrap to the first.
  const auto& points = ring.points();
  const std::uint32_t past_last = points.rbegin()->first;  // max point
  auto owner = ring.PreferenceListForPoint(past_last, 1);
  ASSERT_EQ(owner.size(), 1u);
  EXPECT_EQ(owner.front(), points.begin()->second);
}

TEST(RingTest, MorePowerfulNodeOwnsMoreKeys) {
  // "The number of virtual nodes is determined by the performance of the
  // physical node. More powerful means more virtual nodes."
  Ring ring;
  ASSERT_TRUE(ring.AddNode("big", 256).ok());
  ASSERT_TRUE(ring.AddNode("small", 32).ok());
  std::map<NodeId, int> counts;
  for (int i = 0; i < 8000; ++i) {
    counts[*ring.PrimaryFor("key" + std::to_string(i))]++;
  }
  EXPECT_GT(counts["big"], counts["small"] * 3);
}

TEST(RingTest, VnodeCountReported) {
  Ring ring;
  ASSERT_TRUE(ring.AddNode("a", 7).ok());
  EXPECT_EQ(ring.VnodeCount("a"), 7);
  EXPECT_EQ(ring.VnodeCount("missing"), 0);
}

TEST(RingTest, RemovalOnlyAffectsNeighbours) {
  // The consistent-hashing property: removing a node only remaps keys it
  // owned; every other key keeps its primary.
  Ring ring;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), 64).ok());
  }
  std::map<std::string, NodeId> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = *ring.PrimaryFor(key);
  }
  ASSERT_TRUE(ring.RemoveNode("db3").ok());
  for (const auto& [key, owner] : before) {
    if (owner == "db3") continue;  // these must remap
    EXPECT_EQ(*ring.PrimaryFor(key), owner) << key << " moved unnecessarily";
  }
}

TEST(RingTest, ModNBaselineRemapsAlmostEverything) {
  // Contrast Eq. (1) with Eq. (2): mod-N placement remaps ~N/(N+1) keys on
  // a node addition, consistent hashing only ~1/(N+1).
  const int keys = 4000;
  int modn_moved = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (ModNPlacement(key, 5) != ModNPlacement(key, 6)) ++modn_moved;
  }
  Ring before;
  Ring after;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(before.AddNode("db" + std::to_string(i), 64).ok());
    ASSERT_TRUE(after.AddNode("db" + std::to_string(i), 64).ok());
  }
  ASSERT_TRUE(after.AddNode("db5", 64).ok());
  int ring_moved = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (*before.PrimaryFor(key) != *after.PrimaryFor(key)) ++ring_moved;
  }
  EXPECT_GT(modn_moved, keys * 3 / 5);  // ~83% expected
  EXPECT_LT(ring_moved, keys / 3);      // ~17% expected
  EXPECT_LT(ring_moved * 3, modn_moved);
}

class RingBalanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RingBalanceTest, VirtualNodesImproveBalance) {
  // Property sweep: with enough virtual nodes, per-node key share is within
  // a reasonable factor of fair; more vnodes → tighter balance.
  const int vnodes = GetParam();
  Ring ring;
  const int node_count = 5;
  for (int i = 0; i < node_count; ++i) {
    ASSERT_TRUE(ring.AddNode("db" + std::to_string(i), vnodes).ok());
  }
  std::map<NodeId, int> counts;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    counts[*ring.PrimaryFor("key" + std::to_string(i))]++;
  }
  const double fair = static_cast<double>(keys) / node_count;
  double worst = 0;
  for (const auto& [node, count] : counts) {
    worst = std::max(worst, std::abs(count - fair) / fair);
  }
  // Tolerance shrinks as vnodes grow.
  const double tolerance = vnodes >= 128 ? 0.30 : (vnodes >= 32 ? 0.55 : 1.00);
  EXPECT_LT(worst, tolerance) << "vnodes=" << vnodes;
}

INSTANTIATE_TEST_SUITE_P(VnodeSweep, RingBalanceTest,
                         ::testing::Values(8, 32, 128, 256));

}  // namespace
}  // namespace hotman::hashring
