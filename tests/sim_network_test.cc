#include "sim/network.h"

#include <gtest/gtest.h>

#include <functional>

namespace hotman::sim {
namespace {

Message Make(const std::string& from, const std::string& to) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = "test";
  return msg;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&loop_, NetworkConfig{}, 1) {
    net_.RegisterEndpoint("a", [this](const Message& m) { a_inbox_.push_back(m); });
    net_.RegisterEndpoint("b", [this](const Message& m) { b_inbox_.push_back(m); });
  }

  EventLoop loop_;
  SimNetwork net_;
  std::vector<Message> a_inbox_;
  std::vector<Message> b_inbox_;
};

TEST_F(NetworkTest, DeliversAsynchronously) {
  EXPECT_TRUE(net_.Send(Make("a", "b"), 100));
  EXPECT_TRUE(b_inbox_.empty());  // not yet delivered
  loop_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_EQ(b_inbox_[0].from, "a");
  EXPECT_EQ(b_inbox_[0].type, "test");
}

TEST_F(NetworkTest, LatencyIncludesTransmissionTime) {
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter = 0;
  config.bandwidth_bytes_per_sec = 1.0e6;  // 1 MB/s
  SimNetwork slow(&loop_, config, 1);
  Micros delivered_at = -1;
  slow.RegisterEndpoint("x", [this, &delivered_at](const Message&) {
    delivered_at = loop_.Now();
  });
  Message msg = Make("y", "x");
  slow.RegisterEndpoint("y", [](const Message&) {});
  EXPECT_TRUE(slow.Send(std::move(msg), 1000000));  // 1 MB -> 1 s transmission
  loop_.RunUntilIdle();
  EXPECT_EQ(delivered_at, 100 + kMicrosPerSecond);
}

// Each delivered frame's latency is recorded under its type, as TCP does:
// the delay it was scheduled with. A frame dropped at send records none.
TEST_F(NetworkTest, FrameLatencyIsRecordedPerTypeAtDelivery) {
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter = 0;
  config.bandwidth_bytes_per_sec = 1.0e6;  // 1 MB/s
  SimNetwork net(&loop_, config, 1);
  net.RegisterEndpoint("x", [](const Message&) {});
  Message msg = Make("y", "x");
  msg.type = "t";
  EXPECT_TRUE(net.Send(msg, 1000));  // 1000 B -> 1000 us transmission
  msg.to = "ghost";
  msg.type = "lost";
  EXPECT_FALSE(net.Send(msg, 1000));
  loop_.RunUntilIdle();
  ASSERT_EQ(net.stats().frame_latency.size(), 1u);
  const metrics::HistogramSnapshot t = net.stats().frame_latency.at("t").Snapshot();
  EXPECT_EQ(t.count, 1u);
  EXPECT_EQ(t.min, 1100);
  EXPECT_EQ(t.max, 1100);
}

TEST_F(NetworkTest, UnknownDestinationDropped) {
  EXPECT_FALSE(net_.Send(Make("a", "ghost"), 10));
  loop_.RunUntilIdle();
  EXPECT_EQ(net_.stats().frames_dropped, 1u);
}

TEST_F(NetworkTest, MissingEndpointStillDrops) {
  // The destination exists at send time but dies in flight.
  EXPECT_TRUE(net_.Send(Make("a", "b"), 10));
  net_.UnregisterEndpoint("b");
  loop_.RunUntilIdle();
  EXPECT_TRUE(b_inbox_.empty());
  EXPECT_EQ(net_.stats().frames_dropped, 1u);
}

TEST_F(NetworkTest, PartitionCutsBothDirections) {
  net_.PartitionLink("a", "b");
  EXPECT_FALSE(net_.Send(Make("a", "b"), 10));
  EXPECT_FALSE(net_.Send(Make("b", "a"), 10));
  net_.HealLink("b", "a");  // order-insensitive
  EXPECT_TRUE(net_.Send(Make("a", "b"), 10));
  loop_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 1u);
}

TEST_F(NetworkTest, DisconnectIsolatesNode) {
  net_.Disconnect("b");
  EXPECT_TRUE(net_.IsDisconnected("b"));
  EXPECT_FALSE(net_.Send(Make("a", "b"), 10));
  EXPECT_FALSE(net_.Send(Make("b", "a"), 10));
  net_.Reconnect("b");
  EXPECT_TRUE(net_.Send(Make("a", "b"), 10));
  loop_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 1u);
}

TEST_F(NetworkTest, DisconnectionInFlightDropsDelivery) {
  EXPECT_TRUE(net_.Send(Make("a", "b"), 10));
  net_.Disconnect("b");
  loop_.RunUntilIdle();
  EXPECT_TRUE(b_inbox_.empty());
}

TEST_F(NetworkTest, DropProbabilityLosesSomeMessages) {
  NetworkConfig config;
  config.drop_probability = 0.5;
  SimNetwork lossy(&loop_, config, 42);
  int received = 0;
  lossy.RegisterEndpoint("r", [&received](const Message&) { ++received; });
  lossy.RegisterEndpoint("s", [](const Message&) {});
  const int sent = 1000;
  for (int i = 0; i < sent; ++i) lossy.Send(Make("s", "r"), 10);
  loop_.RunUntilIdle();
  EXPECT_GT(received, sent / 3);
  EXPECT_LT(received, sent * 2 / 3);
  EXPECT_EQ(lossy.stats().frames_dropped, static_cast<std::size_t>(sent) - received);
}

// Every fault is counted once under its own cause, once in the total, and
// under no other cause: partition experiments read exactly what was lost.
TEST(NetworkDropTest, EachDropIsCountedOnceUnderItsCause) {
  using Count = net::NetStats::Field;
  struct Case {
    const char* cause;
    Count counter;
    double drop_probability;
    std::function<void(SimNetwork*)> fault;  // sends the one frame
  };
  const auto send = [](SimNetwork* net) { net->Send(Make("a", "b"), 10); };
  const Case cases[] = {
      {"no_endpoint", &net::NetStats::dropped_no_endpoint, 0.0,
       [](SimNetwork* net) { net->Send(Make("a", "ghost"), 10); }},
      {"disconnected", &net::NetStats::dropped_disconnected, 0.0,
       [&](SimNetwork* net) {
         net->Disconnect("b");
         send(net);
       }},
      {"partition", &net::NetStats::dropped_partition, 0.0,
       [&](SimNetwork* net) {
         net->PartitionLink("a", "b");
         send(net);
       }},
      {"random", &net::NetStats::dropped_random, 1.0, send},
      {"chaos", &net::NetStats::dropped_chaos, 0.0,
       [&](SimNetwork* net) {
         LinkChaos drop_all;
         drop_all.drop_probability = 1.0;
         net->SetLinkChaos("a", "b", drop_all);
         send(net);
       }},
      {"in_flight", &net::NetStats::dropped_in_flight, 0.0,
       [&](SimNetwork* net) {
         send(net);
         net->UnregisterEndpoint("b");
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cause);
    EventLoop loop;
    NetworkConfig config;
    config.drop_probability = c.drop_probability;
    SimNetwork net(&loop, config, 1);
    int delivered = 0;
    net.RegisterEndpoint("a", [&delivered](const Message&) { ++delivered; });
    net.RegisterEndpoint("b", [&delivered](const Message&) { ++delivered; });
    c.fault(&net);
    loop.RunUntilIdle();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.stats().frames_dropped, 1u);
    for (const Case& other : cases) {
      EXPECT_EQ(net.stats().*other.counter, other.counter == c.counter ? 1u : 0u)
          << "dropped_" << other.cause;
    }
  }
}

TEST_F(NetworkTest, StatsAccumulate) {
  net_.Send(Make("a", "b"), 128);
  net_.Send(Make("b", "a"), 256);
  EXPECT_EQ(net_.stats().frames_sent, 2u);
  EXPECT_EQ(net_.stats().bytes_sent, 384u);
}

TEST_F(NetworkTest, SelfSendWorks) {
  EXPECT_TRUE(net_.Send(Make("a", "a"), 10));
  loop_.RunUntilIdle();
  EXPECT_EQ(a_inbox_.size(), 1u);
}

TEST_F(NetworkTest, ReRegisterReplacesHandler) {
  int second = 0;
  net_.RegisterEndpoint("b", [&second](const Message&) { ++second; });
  net_.Send(Make("a", "b"), 10);
  loop_.RunUntilIdle();
  EXPECT_TRUE(b_inbox_.empty());
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace hotman::sim
