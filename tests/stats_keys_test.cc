// Golden key set of the stats JSON: Cluster::StatsJson() and a NodeServer's
// client_stats reply (the hotmand /stats payload), at 1 and 2 shards per
// node, after one fixed sim workload.
//
// Dashboards and perfbench read these names, so a metric that is renamed,
// dropped or added fails here; such a change edits the tables below on
// purpose and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node_server.h"
#include "net/client_proto.h"

namespace hotman::cluster {
namespace {

// Every node's operation counters.
const std::vector<std::string> kOpCounterNames = {
    "puts_coordinated", "puts_succeeded", "puts_failed",
    "gets_coordinated", "gets_succeeded", "gets_failed",
    "replica_puts_applied", "replica_gets_served", "handoff_writes",
    "hints_delivered", "read_repairs", "read_repairs_skipped_dead",
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
    "rebalance.autonomic_reweights",
};

// The simulated transport's net.* counters.
const std::vector<std::string> kSimNetCounters = {
    "net.frames_sent", "net.frames_delivered", "net.frames_dropped",
    "net.bytes_sent", "net.bytes_delivered", "net.dropped_partition",
    "net.dropped_disconnected", "net.dropped_no_endpoint",
    "net.dropped_random", "net.dropped_in_flight", "net.dropped_chaos",
    "net.chaos_duplicates",
};

const std::vector<std::string> kHeatGauges = {
    "heat.tracked_keys", "heat.top1_qps", "heat.total_qps",
    "heat.skew_coeff_milli",
};

// Both views carry the same histograms: coordinator latency, the replica
// service station and the simulated network's delivery delay.
const std::vector<std::string> kHistograms = {
    "put_latency_us", "get_latency_us", "fast_get_latency_us",
    "quorum_get_latency_us", "replica_queue_wait_us", "replica_service_us",
    "net.delivery_delay",
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
                Union({kOpCounterNames, kRebalanceCounterNames, kSimNetCounters,
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
                Union({kOpCounterNames, kRebalanceCounterNames, kSimNetCounters,
                       {"heat.tracked_ops", "client_puts", "client_gets",
                        "client_deletes", "sharded.cross_posts",
                        "sharded.mailbox_overflows",
                        "sharded.posts_dropped_stopped"}}));
    ExpectNames(json, "gauges", Union({kHeatGauges, {"sharded.shards"}}));
    ExpectNames(json, "histograms", Union({kHistograms}));
  }
}

// The exported values are the typed counters: every kNodeCounters and
// kRebalanceCounters row reads the same as AggregateStats() and
// AggregateRebalanceStats().
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
    // The workload's lost replica is restored by an anti-entropy push or
    // pull, so the export shows one.
    EXPECT_GT(std::stoull(counters.at("ae_pushed")) +
                  std::stoull(counters.at("ae_requested")),
              0u);
  }
}

}  // namespace
}  // namespace hotman::cluster
