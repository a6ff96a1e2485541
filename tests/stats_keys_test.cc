// Golden key set of the stats JSON: Cluster::StatsJson() and a NodeServer's
// client_stats reply (the hotmand /stats payload), at 1 and 2 shards per
// node, after one fixed sim workload; and the net.* names a TcpTransport
// exports after one frame each way over loopback.
//
// Dashboards and perfbench read these names, so a metric that is renamed,
// dropped or added fails here; such a change edits the tables below on
// purpose and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node_server.h"
#include "net/client_proto.h"
#include "net/tcp_transport.h"

namespace hotman::cluster {
namespace {

// Every node's operation counters.
const std::vector<std::string> kOpCounterNames = {
    "puts_coordinated", "puts_succeeded", "puts_failed",
    "gets_coordinated", "gets_succeeded", "gets_failed",
    "replica_puts_applied", "replica_gets_served", "handoff_writes",
    "hints_delivered", "read_repairs", "read_repairs_skipped_dead",
    "read_probes",
    "fast_read_hits", "fast_read_fallbacks", "fast_read_demotions",
    "hot_gets_fanned", "hot_read_hits", "hot_read_demotions",
    "replica_digests_served", "get_acks_corrupt", "rereplications",
    "rebalance_purges", "ae_rounds", "ae_pushed", "ae_requested",
};

const std::vector<std::string> kRebalanceCounterNames = {
    "rebalance.transfers_started", "rebalance.transfers_completed",
    "rebalance.transfers_aborted", "rebalance.arcs_planned",
    "rebalance.arcs_completed", "rebalance.records_streamed",
    "rebalance.bytes_streamed", "rebalance.records_received",
    "rebalance.records_skipped", "rebalance.throttle_stalls",
    "rebalance.resumes", "rebalance.retries",
};

// The net.* counters, the same for the simulated and the TCP transport.
const std::vector<std::string> kNetCounterNames = {
    "net.frames_sent", "net.frames_delivered", "net.frames_dropped",
    "net.bytes_sent", "net.bytes_delivered", "net.dropped_partition",
    "net.dropped_disconnected", "net.dropped_no_endpoint",
    "net.dropped_random", "net.dropped_in_flight", "net.dropped_chaos",
    "net.dropped_not_connected", "net.dropped_backpressure",
    "net.chaos_duplicates", "net.connections_opened",
    "net.connections_accepted", "net.connections_failed",
    "net.connections_closed", "net.posts_dropped_stopped",
};

const std::vector<std::string> kHeatGauges = {
    "heat.tracked_keys", "heat.top1_qps", "heat.total_qps",
    "heat.skew_coeff_milli",
};

// Both views carry the same histograms: coordinator latency, the replica
// service station and the frame latency of each message type the workload
// delivers.
const std::vector<std::string> kHistograms = {
    "put_latency_us", "get_latency_us", "fast_get_latency_us",
    "quorum_get_latency_us", "replica_queue_wait_us", "replica_service_us",
    "net.frame_latency.GossipDigestSynMessage",
    "net.frame_latency.GossipDigestAck1Message",
    "net.frame_latency.GossipDigestAck2Message",
    "net.frame_latency.put_replica", "net.frame_latency.put_ack",
    "net.frame_latency.get_replica", "net.frame_latency.get_ack",
    "net.frame_latency.ae_digest", "net.frame_latency.ae_request",
    "net.frame_latency.range_digest", "net.frame_latency.range_ack",
    "net.frame_latency.range_push", "net.frame_latency.transfer_done",
};

std::set<std::string> Union(
    std::initializer_list<std::vector<std::string>> parts) {
  std::set<std::string> all;
  for (const std::vector<std::string>& part : parts) {
    all.insert(part.begin(), part.end());
  }
  return all;
}

/// The members of `section` ("counters", "gauges" or "histograms") of a
/// metrics::Registry JSON document: name -> raw value text.
std::map<std::string, std::string> Section(const std::string& json,
                                           const std::string& section) {
  std::map<std::string, std::string> members;
  const std::string open = "\"" + section + "\":{";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return members;
  pos += open.size();
  while (pos < json.size() && json[pos] == '"') {
    const std::size_t colon = json.find("\":", pos + 1);
    std::size_t end = colon + 2;
    for (int depth = 0;
         end < json.size() &&
         (depth > 0 || (json[end] != ',' && json[end] != '}'));
         ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}') --depth;
    }
    members[json.substr(pos + 1, colon - pos - 1)] =
        json.substr(colon + 2, end - colon - 2);
    pos = json[end] == ',' ? end + 1 : end;
  }
  return members;
}

/// Fails with the missing and the unexpected names of `section`.
void ExpectNames(const std::string& json, const std::string& section,
                 const std::set<std::string>& expected) {
  std::set<std::string> actual;
  for (const auto& [name, value] : Section(json, section)) actual.insert(name);
  std::vector<std::string> missing, extra;
  for (const std::string& name : expected) {
    if (actual.count(name) == 0) missing.push_back(name);
  }
  for (const std::string& name : actual) {
    if (expected.count(name) == 0) extra.push_back(name);
  }
  EXPECT_TRUE(missing.empty() && extra.empty())
      << section << ": missing " << ::testing::PrintToString(missing)
      << ", unexpected " << ::testing::PrintToString(extra);
}

/// A fixed workload that moves every kind of counter exported: puts and
/// gets, a replica that loses a record only anti-entropy restores, and a
/// join the rebalancer streams.
std::unique_ptr<Cluster> RunWorkload(int shards) {
  ClusterConfig config = ClusterConfig::Uniform(3);
  config.shards = shards;
  config.anti_entropy = true;
  config.anti_entropy_interval = 5 * kMicrosPerSecond;
  auto cluster = std::make_unique<Cluster>(std::move(config), /*seed=*/18);
  EXPECT_TRUE(cluster->Start().ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster->PutSync("key" + std::to_string(i), ToBytes("v")).ok());
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster->GetSync("key" + std::to_string(i)).ok());
  }
  StorageNode* victim = cluster->node("db2:19870");
  EXPECT_TRUE(victim->StoreForKey("key0")->Purge("key0").ok());
  NodeSpec newcomer;
  newcomer.address = "db4:19870";
  EXPECT_TRUE(cluster->AddNode(newcomer).ok());
  cluster->RunFor(30 * kMicrosPerSecond);
  return cluster;
}

/// db1's client_stats reply over the cluster's own transport: the JSON
/// hotman_ctl fetches from hotmand over TCP.
std::string NodeServerStats(Cluster* cluster, NodeServer* server) {
  server->Start();
  std::string json;
  cluster->network()->RegisterEndpoint("ctl:1", [&json](const net::Message& msg) {
    auto ack = net::DecodeClientStatsAck(msg.body);
    if (ack.ok()) json = ack->json;
  });
  net::Message request;
  request.from = "ctl:1";
  request.to = "db1:19870";
  request.type = net::kMsgClientStats;
  request.body = net::EncodeClientGet(net::ClientGetMsg{/*req=*/1, ""});
  cluster->network()->Send(std::move(request));
  cluster->RunFor(kMicrosPerSecond);
  cluster->network()->UnregisterEndpoint("ctl:1");
  return json;
}

TEST(StatsKeysTest, ClusterStatsJsonKeySet) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto cluster = RunWorkload(shards);
    const std::string json = cluster->StatsJson();
    ExpectNames(json, "counters",
                Union({kOpCounterNames, kRebalanceCounterNames, kNetCounterNames,
                       {"heat.tracked_ops"}}));
    ExpectNames(json, "gauges",
                Union({kHeatGauges, {"nodes", "virtual_now_us"}}));
    ExpectNames(json, "histograms", Union({kHistograms}));
  }
}

TEST(StatsKeysTest, NodeServerStatsKeySet) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto cluster = RunWorkload(shards);
    NodeServer server(cluster->node("db1:19870"), cluster->network());
    const std::string json = NodeServerStats(cluster.get(), &server);
    ASSERT_FALSE(json.empty()) << "no client_stats_ack";
    ExpectNames(json, "counters",
                Union({kOpCounterNames, kRebalanceCounterNames, kNetCounterNames,
                       {"heat.tracked_ops", "client_puts", "client_gets",
                        "client_deletes", "sharded.cross_posts",
                        "sharded.mailbox_overflows",
                        "sharded.posts_dropped_stopped"}}));
    ExpectNames(json, "gauges", Union({kHeatGauges, {"sharded.shards"}}));
    // The reply also times the client_stats request that asked for it.
    ExpectNames(json, "histograms",
                Union({kHistograms, {"net.frame_latency.client_stats"}}));
  }
}

TEST(StatsKeysTest, TcpTransportKeySet) {
  net::TcpTransport server(net::TcpTransportConfig{});
  ASSERT_TRUE(server.Start().ok());
  server.RegisterEndpoint("srv", [&server](const net::Message& msg) {
    net::Message pong;
    pong.from = "srv";
    pong.to = msg.from;
    pong.type = "pong";
    server.Send(std::move(pong));
  });
  net::TcpTransportConfig client_config;
  client_config.listen_port = -1;
  client_config.peers["srv"] = net::TcpPeer{"127.0.0.1", server.listen_port()};
  net::TcpTransport client(client_config);
  ASSERT_TRUE(client.Start().ok());
  std::atomic<bool> ponged{false};
  client.RegisterEndpoint("cli", [&ponged](const net::Message&) { ponged = true; });
  net::Message ping;
  ping.from = "cli";
  ping.to = "srv";
  ping.type = "ping";
  client.Send(std::move(ping));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ponged && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(ponged) << "no pong";
  // Each side records the latency of the one type it received.
  for (auto [transport, received] :
       {std::pair{&server, "ping"}, std::pair{&client, "pong"}}) {
    SCOPED_TRACE(received);
    metrics::Registry registry;
    transport->ExportStats(&registry);
    const std::string json = registry.ToJson();
    ExpectNames(json, "counters", Union({kNetCounterNames}));
    ExpectNames(json, "gauges", {"net.connections_open"});
    ExpectNames(json, "histograms",
                {std::string("net.frame_latency.") + received});
  }
  client.Stop();
  server.Stop();
}

// The exported values are the typed counters: every kNodeCounters,
// kRebalanceCounters and kNetCounters row reads the same as
// AggregateStats(), AggregateRebalanceStats() and the sim network's stats().
TEST(StatsKeysTest, ClusterStatsJsonValuesMatchTypedCounters) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto cluster = RunWorkload(shards);
    const auto counters = Section(cluster->StatsJson(), "counters");
    const NodeStats stats = cluster->AggregateStats();
    for (const NodeCounter& c : kNodeCounters) {
      ASSERT_EQ(counters.count(c.name), 1u) << c.name;
      EXPECT_EQ(counters.at(c.name), std::to_string(stats.*c.field)) << c.name;
    }
    const rebalance::RebalanceStats rb = cluster->AggregateRebalanceStats();
    for (const rebalance::RebalanceCounter& c : rebalance::kRebalanceCounters) {
      ASSERT_EQ(counters.count(c.name), 1u) << c.name;
      EXPECT_EQ(counters.at(c.name), std::to_string(rb.*c.field)) << c.name;
    }
    const net::NetStats& sim_net = cluster->network()->sim_network()->stats();
    for (const net::NetCounter& c : net::kNetCounters) {
      ASSERT_EQ(counters.count(c.name), 1u) << c.name;
      EXPECT_EQ(counters.at(c.name), std::to_string(sim_net.*c.field)) << c.name;
    }
    // The workload's lost replica is restored by an anti-entropy push or
    // pull, so the export shows one.
    EXPECT_GT(std::stoull(counters.at("ae_pushed")) +
                  std::stoull(counters.at("ae_requested")),
              0u);
  }
}

}  // namespace
}  // namespace hotman::cluster
