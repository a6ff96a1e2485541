#include "gossip/gossiper.h"

#include <memory>

#include <gtest/gtest.h>

#include "sim/event_loop.h"

#include "bson/codec.h"
#include "sim/network.h"

namespace hotman::gossip {
namespace {

/// An application-state key of these tests' own: any key gossips alike.
constexpr const char* kProbeKey = "probe";

/// A little cluster of gossipers wired over the simulated network.
class GossipHarness {
 public:
  GossipHarness(int nodes, int seeds, std::uint64_t seed = 1)
      : net_(&loop_, sim::NetworkConfig{}, seed) {
    GossipConfig config;
    std::vector<std::string> seed_names;
    for (int i = 0; i < seeds; ++i) seed_names.push_back(Name(i));
    for (int i = 0; i < nodes; ++i) {
      const std::string name = Name(i);
      auto gossiper = std::make_unique<Gossiper>(
          name, seed_names, i < seeds, &loop_, config, seed + i,
          [this, name](const std::string& to, const std::string& type,
                       bson::Document body) {
            sim::Message msg;
            msg.from = name;
            msg.to = to;
            msg.type = type;
            const std::size_t bytes = bson::EncodedSize(body);
            msg.body = std::move(body);
            net_.Send(std::move(msg), bytes);
          });
      Gossiper* raw = gossiper.get();
      net_.RegisterEndpoint(name, [raw](const sim::Message& msg) {
        if (msg.type == kMsgGossipSyn) {
          raw->HandleSyn(msg.from, msg.body);
        } else if (msg.type == kMsgGossipAck1) {
          raw->HandleAck1(msg.from, msg.body);
        } else if (msg.type == kMsgGossipAck2) {
          raw->HandleAck2(msg.from, msg.body);
        }
      });
      gossiper->Boot(1);
      gossipers_.push_back(std::move(gossiper));
    }
  }

  static std::string Name(int i) { return "node" + std::to_string(i); }

  void StartAll() {
    for (auto& g : gossipers_) g->Start();
  }

  /// True when every node knows every other node's endpoint state.
  bool FullyConverged() const {
    for (const auto& g : gossipers_) {
      if (g->states().Endpoints().size() != gossipers_.size()) return false;
    }
    return true;
  }

  sim::EventLoop loop_;
  sim::SimNetwork net_;
  std::vector<std::unique_ptr<Gossiper>> gossipers_;
};

TEST(GossipProtocolTest, ThreeMessageExchangeTransfersState) {
  GossipHarness harness(2, 1);
  Gossiper* a = harness.gossipers_[0].get();
  Gossiper* b = harness.gossipers_[1].get();
  a->SetLocalState(kProbeKey, "0.7");
  b->SetLocalState(kProbeKey, "0.2");
  // One explicit round from b (a normal node talking to the seed).
  b->Tick();
  harness.loop_.RunUntilIdle();
  // After Syn/Ack1/Ack2, each side knows the other's entry.
  const EndpointState* b_at_a = a->states().Get(GossipHarness::Name(1));
  ASSERT_NE(b_at_a, nullptr);
  EXPECT_EQ(b_at_a->GetEntry(kProbeKey)->value, "0.2");
  const EndpointState* a_at_b = b->states().Get(GossipHarness::Name(0));
  ASSERT_NE(a_at_b, nullptr);
  EXPECT_EQ(a_at_b->GetEntry(kProbeKey)->value, "0.7");
}

TEST(GossipProtocolTest, ClusterConverges) {
  GossipHarness harness(8, 2);
  harness.StartAll();
  harness.loop_.RunFor(20 * kMicrosPerSecond);
  EXPECT_TRUE(harness.FullyConverged());
}

TEST(GossipProtocolTest, HeartbeatVersionsAdvanceEverywhere) {
  GossipHarness harness(4, 1);
  harness.StartAll();
  harness.loop_.RunFor(10 * kMicrosPerSecond);
  Gossiper* observer = harness.gossipers_[3].get();
  const EndpointState* state = observer->states().Get(GossipHarness::Name(0));
  ASSERT_NE(state, nullptr);
  const std::int64_t v1 = state->GetEntry(kStateHeartbeat)->version;
  harness.loop_.RunFor(10 * kMicrosPerSecond);
  const std::int64_t v2 =
      observer->states().Get(GossipHarness::Name(0))->GetEntry(kStateHeartbeat)->version;
  EXPECT_GT(v2, v1) << "heartbeats must keep propagating";
}

TEST(GossipProtocolTest, StateChangeListenerFires) {
  GossipHarness harness(3, 1);
  Gossiper* observer = harness.gossipers_[2].get();
  std::map<std::string, std::string> seen;
  observer->SetStateChangeListener(
      [&seen](const std::string& endpoint, const std::string& key,
              const std::string& value) { seen[endpoint + "/" + key] = value; });
  harness.gossipers_[0]->SetLocalState(kStateVnodes, "256");
  harness.StartAll();
  harness.loop_.RunFor(15 * kMicrosPerSecond);
  EXPECT_EQ(seen[GossipHarness::Name(0) + "/" + kStateVnodes], "256");
}

TEST(GossipProtocolTest, LateJoinerLearnsEverything) {
  GossipHarness harness(5, 1);
  harness.StartAll();
  harness.loop_.RunFor(10 * kMicrosPerSecond);
  // node4 state as seen by node0 includes entries node4 set before start.
  EXPECT_TRUE(harness.FullyConverged());
  // Now a node updates its state late; everyone eventually sees it.
  harness.gossipers_[4]->SetLocalState(kStateStatus, "LEAVING");
  harness.loop_.RunFor(20 * kMicrosPerSecond);
  for (const auto& g : harness.gossipers_) {
    const EndpointState* state = g->states().Get(GossipHarness::Name(4));
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->GetEntry(kStateStatus)->value, "LEAVING");
  }
}

TEST(GossipProtocolTest, PartitionedNodeCatchesUpAfterHeal) {
  GossipHarness harness(4, 1);
  harness.gossipers_[0]->SetLocalState(kProbeKey, "0.10");
  harness.StartAll();
  harness.loop_.RunFor(10 * kMicrosPerSecond);
  harness.net_.Disconnect(GossipHarness::Name(3));
  harness.gossipers_[0]->SetLocalState(kProbeKey, "0.99");
  harness.loop_.RunFor(10 * kMicrosPerSecond);
  const EndpointState* stale =
      harness.gossipers_[3]->states().Get(GossipHarness::Name(0));
  ASSERT_NE(stale, nullptr);
  ASSERT_NE(stale->GetEntry(kProbeKey), nullptr);
  EXPECT_EQ(stale->GetEntry(kProbeKey)->value, "0.10");
  harness.net_.Reconnect(GossipHarness::Name(3));
  harness.loop_.RunFor(20 * kMicrosPerSecond);
  EXPECT_EQ(harness.gossipers_[3]
                ->states()
                .Get(GossipHarness::Name(0))
                ->GetEntry(kProbeKey)
                ->value,
            "0.99");
}

TEST(GossipProtocolTest, MalformedGossipIgnored) {
  GossipHarness harness(2, 1);
  bson::Document garbage;
  garbage.Append("junk", bson::Value("data"));
  harness.gossipers_[0]->HandleSyn("node1", garbage);
  harness.gossipers_[0]->HandleAck1("node1", garbage);
  harness.gossipers_[0]->HandleAck2("node1", garbage);
  SUCCEED();  // no crash, no state change
}

TEST(GossipProtocolTest, StopHaltsRounds) {
  GossipHarness harness(3, 1);
  harness.StartAll();
  harness.loop_.RunFor(5 * kMicrosPerSecond);
  const std::size_t rounds = harness.gossipers_[0]->rounds();
  harness.gossipers_[0]->Stop();
  harness.loop_.RunFor(5 * kMicrosPerSecond);
  EXPECT_EQ(harness.gossipers_[0]->rounds(), rounds);
}

}  // namespace
}  // namespace hotman::gossip
