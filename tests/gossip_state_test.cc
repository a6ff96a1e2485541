#include "gossip/node_state.h"

#include <gtest/gtest.h>

#include "gossip/messages.h"

namespace hotman::gossip {
namespace {

TEST(EndpointStateTest, MaxVersionTracksEntries) {
  EndpointState state(1);
  EXPECT_EQ(state.MaxVersion(), 0);
  state.SetEntry("heartbeat", "1", 3);
  state.SetEntry("probe", "0.5", 7);
  EXPECT_EQ(state.MaxVersion(), 7);
}

TEST(EndpointStateTest, EntriesAfterFiltersByVersion) {
  EndpointState state(1);
  state.SetEntry("a", "1", 1);
  state.SetEntry("b", "2", 5);
  state.SetEntry("c", "3", 9);
  auto deltas = state.EntriesAfter(4);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(state.EntriesAfter(0).size(), 3u);
  EXPECT_TRUE(state.EntriesAfter(9).empty());
}

TEST(EndpointStateTest, MergeTakesHigherVersions) {
  EndpointState local(1);
  local.SetEntry("heartbeat", "5", 10);
  local.SetEntry("probe", "0.3", 4);
  EndpointState remote(1);
  remote.SetEntry("heartbeat", "7", 12);  // newer
  remote.SetEntry("probe", "0.9", 2);     // older
  EXPECT_TRUE(local.Merge(remote));
  EXPECT_EQ(local.GetEntry("heartbeat")->value, "7");
  EXPECT_EQ(local.GetEntry("probe")->value, "0.3");
}

TEST(EndpointStateTest, MergeSameVersionsNoChange) {
  EndpointState local(1);
  local.SetEntry("k", "v", 5);
  EndpointState remote(1);
  remote.SetEntry("k", "other", 5);
  EXPECT_FALSE(local.Merge(remote));
  EXPECT_EQ(local.GetEntry("k")->value, "v");
}

TEST(EndpointStateTest, NewerGenerationReplacesWholesale) {
  // "The greater of version number means newer states" — but a reboot
  // (higher generation) resets everything.
  EndpointState local(1);
  local.SetEntry("heartbeat", "999", 999);
  EndpointState rebooted(2);
  rebooted.SetEntry("heartbeat", "1", 1);
  EXPECT_TRUE(local.Merge(rebooted));
  EXPECT_EQ(local.generation(), 2);
  EXPECT_EQ(local.GetEntry("heartbeat")->value, "1");
  EXPECT_EQ(local.entries().size(), 1u);
}

TEST(EndpointStateTest, StaleGenerationIgnored) {
  EndpointState local(3);
  local.SetEntry("k", "current", 1);
  EndpointState stale(2);
  stale.SetEntry("k", "old", 99);
  EXPECT_FALSE(local.Merge(stale));
  EXPECT_EQ(local.GetEntry("k")->value, "current");
}

TEST(NodeStateMapTest, GetOrCreateAndEndpoints) {
  NodeStateMap map;
  EXPECT_EQ(map.Get("a"), nullptr);
  map.GetOrCreate("a")->SetEntry("k", "v", 1);
  ASSERT_NE(map.Get("a"), nullptr);
  EXPECT_EQ(map.Endpoints().size(), 1u);
}

TEST(NodeStateMapTest, LivenessBookkeeping) {
  NodeStateMap map;
  EXPECT_FALSE(map.LastHeard("a").has_value());
  map.TouchLiveness("a", 500);
  ASSERT_TRUE(map.LastHeard("a").has_value());
  EXPECT_EQ(*map.LastHeard("a"), 500);
  map.TouchLiveness("a", 900);
  EXPECT_EQ(*map.LastHeard("a"), 900);
}

TEST(MessagesTest, SynRoundTrip) {
  SynMessage syn;
  syn.digests.push_back(GossipDigest{"db1:19870", 3, 42});
  syn.digests.push_back(GossipDigest{"db2:19870", 1, 7});
  auto decoded = DecodeSyn(EncodeSyn(syn));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->digests.size(), 2u);
  EXPECT_EQ(decoded->digests[0].endpoint, "db1:19870");
  EXPECT_EQ(decoded->digests[0].generation, 3);
  EXPECT_EQ(decoded->digests[1].max_version, 7);
}

TEST(MessagesTest, Ack1RoundTrip) {
  Ack1Message ack1;
  EndpointStateUpdate update;
  update.endpoint = "db1";
  update.generation = 2;
  update.entries.emplace_back("heartbeat", VersionedEntry{"5", 10});
  ack1.states.push_back(update);
  ack1.requests.push_back(GossipDigest{"db2", 1, 3});
  auto decoded = DecodeAck1(EncodeAck1(ack1));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->states.size(), 1u);
  EXPECT_EQ(decoded->states[0].entries[0].first, "heartbeat");
  EXPECT_EQ(decoded->states[0].entries[0].second.version, 10);
  ASSERT_EQ(decoded->requests.size(), 1u);
  EXPECT_EQ(decoded->requests[0].max_version, 3);
}

TEST(MessagesTest, Ack2RoundTrip) {
  Ack2Message ack2;
  EndpointStateUpdate update;
  update.endpoint = "db3";
  update.generation = 1;
  ack2.states.push_back(update);
  auto decoded = DecodeAck2(EncodeAck2(ack2));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->states[0].endpoint, "db3");
}

TEST(MessagesTest, MalformedRejected) {
  EXPECT_FALSE(DecodeSyn(bson::Document{}).ok());
  bson::Document bad;
  bad.Append("digests", bson::Value("not an array"));
  EXPECT_FALSE(DecodeSyn(bad).ok());
}

TEST(MessagesTest, StateLineMatchesPaperTemplate) {
  // "HostAddress@VirtualNode;bootGeneration:...;heartbeat:...", the paper's
  // template without the load field no node measures.
  EndpointState state(4);
  state.SetEntry(kStateVnodes, "128", 1);
  state.SetEntry(kStateHeartbeat, "17", 8);
  const std::string line = FormatStateLine("db1:19870", state);
  EXPECT_EQ(line, "db1:19870@128;bootGeneration:4;heartbeat:17/8");
}

}  // namespace
}  // namespace hotman::gossip
