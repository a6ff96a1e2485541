#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"

namespace hotman::cluster {
namespace {

/// Parameterized over (N, W, R) configurations (§5.2.2's tuning space).
class QuorumTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  std::unique_ptr<Cluster> MakeCluster() {
    auto [n, w, r] = GetParam();
    ClusterConfig config = ClusterConfig::Uniform(5);
    config.replication_factor = n;
    config.write_quorum = w;
    config.read_quorum = r;
    auto cluster = std::make_unique<Cluster>(std::move(config), 11);
    EXPECT_TRUE(cluster->Start().ok());
    return cluster;
  }
};

TEST_P(QuorumTest, HealthyClusterServesReadsAndWrites) {
  auto cluster = MakeCluster();
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(cluster->PutSync("k" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster->RunFor(2 * kMicrosPerSecond);
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(cluster->GetSync("k" + std::to_string(i)).ok()) << i;
  }
}

TEST_P(QuorumTest, ReplicaCountIsN) {
  auto cluster = MakeCluster();
  auto [n, w, r] = GetParam();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->PutSync("k" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster->RunFor(3 * kMicrosPerSecond);
  EXPECT_EQ(cluster->TotalReplicas(), 10u * n);
}

TEST_P(QuorumTest, ReadYourWritesWhenQuorumsOverlap) {
  // R + W > N guarantees the read quorum intersects the write quorum, so a
  // read immediately after an acked write sees it (no repair time given).
  auto [n, w, r] = GetParam();
  if (r + w <= n) GTEST_SKIP() << "sloppy configuration; overlap not guaranteed";
  auto cluster = MakeCluster();
  ASSERT_TRUE(cluster->PutSync("fresh", ToBytes("written")).ok());
  auto value = cluster->GetSync("fresh");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "written");
}

INSTANTIATE_TEST_SUITE_P(
    NwrSweep, QuorumTest,
    ::testing::Values(std::make_tuple(3, 2, 1),   // the paper's deployment
                      std::make_tuple(3, 3, 1),   // high consistency (N=W)
                      std::make_tuple(3, 1, 1),   // high availability (W=1)
                      std::make_tuple(3, 2, 2),   // R+W > N
                      std::make_tuple(2, 1, 2),   // read-heavy overlap
                      std::make_tuple(5, 3, 3)),  // wide replication
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& nwr) {
      return "N" + std::to_string(std::get<0>(nwr.param)) + "W" +
             std::to_string(std::get<1>(nwr.param)) + "R" +
             std::to_string(std::get<2>(nwr.param));
    });

TEST(QuorumSemanticsTest, WriteSucceedsAtWReplicasEvenWithOneNodeDown) {
  // N=3, W=2: one dead replica holder must not fail writes.
  ClusterConfig config = ClusterConfig::Uniform(5);
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* any = cluster.nodes().front();
  auto prefs = any->ring().PreferenceList("pinned", 3);
  ASSERT_TRUE(cluster.CrashNode(prefs[1]).ok());
  EXPECT_TRUE(cluster.PutSync("pinned", ToBytes("v")).ok());
  auto value = cluster.GetSync("pinned");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "v");
}

TEST(QuorumSemanticsTest, WriteFailsWhenQuorumUnreachable) {
  // N=3, W=3 and hinted handoff disabled: any dead preference node kills
  // the write.
  ClusterConfig config = ClusterConfig::Uniform(3);
  config.replication_factor = 3;
  config.write_quorum = 3;
  config.hinted_handoff = false;
  config.put_timeout = 300 * kMicrosPerMilli;
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.CrashNode("db2:19870").ok());
  Status result = cluster.PutSync("k", ToBytes("v"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.IsQuorumFailed() || result.IsTimeout())
      << result.ToString();
}

TEST(QuorumSemanticsTest, UnreachableQuorumFailsFast) {
  // Regression: an unreachable write quorum used to park the client until
  // the 4x put_timeout cleanup timer. Once the timeout waves have given up
  // on every silent replica (all responded, no ack outstanding) the
  // QuorumFailed verdict must arrive promptly — well under 2x put_timeout.
  const Micros put_timeout = 300 * kMicrosPerMilli;
  ClusterConfig config = ClusterConfig::Uniform(3);
  config.replication_factor = 3;
  config.write_quorum = 3;
  config.hinted_handoff = false;
  config.put_timeout = put_timeout;
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  // Silent failure (messages vanish, no nacks): the slowest path, since the
  // coordinator must time the replica out instead of reacting to an error.
  cluster.network()->Disconnect("db3:19870");
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  const Micros start = cluster.loop()->Now();
  Micros finished = -1;
  Status result = Status::OK();
  coordinator->CoordinatePut("k", ToBytes("v"), [&](const Status& s) {
    result = s;
    finished = cluster.loop()->Now();
  });
  cluster.RunFor(5 * put_timeout);
  ASSERT_GE(finished, 0) << "put callback never fired";
  EXPECT_TRUE(result.IsQuorumFailed()) << result.ToString();
  EXPECT_LT(finished - start, 2 * put_timeout)
      << "fast-fail regressed to the cleanup timer";
}

TEST(QuorumSemanticsTest, PutStillWaitingOnSubstitutesFailsAtCleanup) {
  // The coordinator is cut off from every node, itself included, so no
  // replica or substitute ever answers. The timeout waves hand off to
  // substitutes until the ring runs out, the last one stays silent, and
  // only the 4x put_timeout cleanup timer can answer the caller.
  const Micros put_timeout = 300 * kMicrosPerMilli;
  ClusterConfig config = ClusterConfig::Uniform(10);
  config.hinted_handoff = true;
  config.put_timeout = put_timeout;
  config.detector.dead_after = 3600 * kMicrosPerSecond;  // nobody turns dead
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  cluster.network()->Disconnect("db1:19870");
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  const Micros start = cluster.loop()->Now();
  Micros finished = -1;
  int answers = 0;
  Status result = Status::OK();
  coordinator->CoordinatePut("k", ToBytes("v"), [&](const Status& s) {
    ++answers;
    result = s;
    finished = cluster.loop()->Now();
  });
  cluster.RunFor(10 * put_timeout);
  ASSERT_EQ(answers, 1) << "the caller must be answered exactly once";
  EXPECT_TRUE(result.IsQuorumFailed()) << result.ToString();
  EXPECT_GE(finished - start, 4 * put_timeout)
      << "answered before the cleanup timer; a substitute was still silent";
}

TEST(QuorumSemanticsTest, AckFromANodeThePutNeverContactedIsIgnored) {
  // A put_ack names its sender itself (on TCP, the frame's `f` field), so
  // an ack from a node the put never wrote to must not count toward W.
  const Micros put_timeout = 300 * kMicrosPerMilli;
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.write_quorum = 3;
  config.hinted_handoff = false;
  config.put_timeout = put_timeout;
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  std::string key;
  std::vector<std::string> prefs;
  for (int i = 0;; ++i) {
    key = "forged" + std::to_string(i);
    prefs = coordinator->ring().PreferenceList(key, 3);
    if (std::find(prefs.begin(), prefs.end(), coordinator->id()) ==
        prefs.end()) {
      break;
    }
  }
  std::string outsider;
  for (StorageNode* node : cluster.nodes()) {
    if (node != coordinator &&
        std::find(prefs.begin(), prefs.end(), node->id()) == prefs.end()) {
      outsider = node->id();
    }
  }
  ASSERT_FALSE(outsider.empty());
  // Only 2 of the 3 holders can take the write.
  cluster.network()->Disconnect(prefs[2]);

  int answers = 0;
  Status result = Status::OK();
  coordinator->CoordinatePut(key, ToBytes("v"), [&](const Status& s) {
    ++answers;
    result = s;
  });
  cluster.RunFor(10 * kMicrosPerMilli);
  PutAckMsg forged;
  // The first request id a fresh single-shard coordinator issues: this put's.
  forged.req = std::uint64_t{1} << StorageNode::kShardBits;
  forged.ok = true;
  net::Message msg;
  msg.from = outsider;
  msg.to = coordinator->id();
  msg.type = kMsgPutAck;
  msg.body = EncodePutAck(forged);
  cluster.network()->Send(std::move(msg));
  cluster.RunFor(10 * put_timeout);
  ASSERT_EQ(answers, 1);
  EXPECT_TRUE(result.IsQuorumFailed())
      << "an outsider's ack counted toward W: " << result.ToString();
}

TEST(QuorumSemanticsTest, SloppyQuorumMasksFailureViaHandoff) {
  // Same dead node, but hinted handoff on: the write redirects to a temp
  // node and still reaches W acks.
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.write_quorum = 3;
  config.hinted_handoff = true;
  Cluster cluster(std::move(config), 5);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* any = cluster.nodes().front();
  auto prefs = any->ring().PreferenceList("sloppy", 3);
  ASSERT_TRUE(cluster.CrashNode(prefs[2]).ok());
  EXPECT_TRUE(cluster.PutSync("sloppy", ToBytes("v")).ok());
  EXPECT_GT(cluster.AggregateStats().handoff_writes, 0u);
}

TEST(QuorumSemanticsTest, GetLatencyDecidedBySlowestOfQuorum) {
  // R=3 waits for all three replicas; R=1 returns at the fastest. The R=3
  // read must therefore take at least as long in virtual time.
  auto measure = [](int r) {
    ClusterConfig config = ClusterConfig::Uniform(5);
    config.read_quorum = r;
    Cluster cluster(std::move(config), 13);
    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(cluster.PutSync("k", ToBytes("v")).ok());
    cluster.RunFor(2 * kMicrosPerSecond);
    const Micros start = cluster.loop()->Now();
    Micros finished = -1;
    cluster.Get("k", [&](const Result<bson::Document>& record) {
      EXPECT_TRUE(record.ok());
      finished = cluster.loop()->Now();
    });
    cluster.RunFor(5 * kMicrosPerSecond);
    EXPECT_GE(finished, 0);
    return finished - start;
  };
  EXPECT_LE(measure(1), measure(3));
}

TEST(ReadPathRegressionTest, TracesNeverAttributeToFailedReplicas) {
  // Regression (ISSUE 6): HandleGetAck used to record last_queue /
  // last_service / last_replica from *failed* acks too, so a trace could
  // blame a replica that only ever returned an error.
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.read_quorum = 2;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  const auto prefs = coordinator->ring().PreferenceList("attr", 3);
  ASSERT_TRUE(cluster.PutSync("attr", ToBytes("v")).ok());
  cluster.RunFor(2 * kMicrosPerSecond);

  // One holder develops a disk fault: it still answers every request, but
  // always with an error ack. Reads keep succeeding via the other two.
  const std::string faulty = prefs[2];
  cluster.node(faulty)->server()->SetFault(docstore::FaultMode::kDiskError);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster.GetSync("attr").ok()) << i;
  }
  for (const auto& trace : cluster.RecentTraces(64)) {
    if (trace.op != metrics::TraceOp::kGet) continue;
    EXPECT_NE(trace.replica, faulty)
        << "latency attributed to a replica that returned an error";
  }
}

TEST(ReadPathRegressionTest, ReadRepairSkipsDeadNodesAndLeavesHints) {
  // Regression (ISSUE 6): FinalizeGet used to fire repair PutReplicaMsgs
  // at detector-dead targets, parking them in bounded outbound queues.
  // Dead targets must be skipped (counted) and routed via hinted handoff.
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.hinted_handoff = true;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());

  // A key held by the only seed (db1): with the seed among the crashed
  // holders, nobody announces removals, so the dead nodes stay in the
  // ring and in preference lists — exactly the state that used to leak
  // repairs into dead nodes' queues.
  StorageNode* any = cluster.nodes().back();
  std::string key;
  std::vector<std::string> prefs;
  for (int i = 0;; ++i) {
    key = "dk" + std::to_string(i);
    prefs = any->ring().PreferenceList(key, 3);
    if (std::find(prefs.begin(), prefs.end(), "db1:19870") != prefs.end()) {
      break;
    }
  }
  StorageNode* coordinator = nullptr;
  for (StorageNode* node : cluster.nodes()) {
    if (std::find(prefs.begin(), prefs.end(), node->id()) == prefs.end()) {
      coordinator = node;
    }
  }
  ASSERT_NE(coordinator, nullptr);

  ASSERT_TRUE(cluster.PutSync(key, ToBytes("v")).ok());
  cluster.RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(cluster.CrashNode(prefs[1]).ok());
  ASSERT_TRUE(cluster.CrashNode(prefs[2]).ok());
  cluster.RunFor(20 * kMicrosPerSecond);  // > dead_after

  const auto before = cluster.AggregateStats();
  bool concluded = false;
  coordinator->CoordinateGet(
      key, [&concluded](const Result<bson::Document>&) { concluded = true; });
  cluster.RunFor(3 * kMicrosPerSecond);
  ASSERT_TRUE(concluded);
  const auto after = cluster.AggregateStats();
  EXPECT_GE(after.read_repairs_skipped_dead - before.read_repairs_skipped_dead,
            2u);
  EXPECT_EQ(after.read_repairs, before.read_repairs);

  // The withheld repairs became hints: once the holders return, the
  // write-back timer delivers them.
  ASSERT_TRUE(cluster.RestartNode(prefs[1], /*lose_state=*/false).ok());
  ASSERT_TRUE(cluster.RestartNode(prefs[2], /*lose_state=*/false).ok());
  cluster.RunFor(15 * kMicrosPerSecond);
  EXPECT_GT(cluster.AggregateStats().hints_delivered, before.hints_delivered);
}

TEST(ReadPathRegressionTest, CorruptGetAckConcludesReadEarly) {
  // Regression (ISSUE 6): a get ack that fails to decode was silently
  // dropped, stalling the read until get_timeout even when the reply's
  // absence was the only thing blocking the all-responded miss path.
  const Micros get_timeout = 800 * kMicrosPerMilli;
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.get_timeout = get_timeout;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  // A never-written key the coordinator does not hold, so all three
  // replica replies travel the network.
  std::string key;
  std::vector<std::string> prefs;
  for (int i = 0;; ++i) {
    key = "missing" + std::to_string(i);
    prefs = coordinator->ring().PreferenceList(key, 3);
    if (std::find(prefs.begin(), prefs.end(), coordinator->id()) ==
        prefs.end()) {
      break;
    }
  }

  // One holder goes silent; the key exists nowhere, so the miss verdict
  // needs *all* replicas to answer and the read stalls on the silent one.
  cluster.network()->Disconnect(prefs[2]);
  const Micros start = cluster.loop()->Now();
  Micros finished = -1;
  Status verdict = Status::OK();
  coordinator->CoordinateGet(key, [&](const Result<bson::Document>& value) {
    verdict = value.status();
    finished = cluster.loop()->Now();
  });
  cluster.RunFor(100 * kMicrosPerMilli);  // both live replicas answered
  ASSERT_LT(finished, 0) << "read concluded before the corrupt ack";

  // The silent holder's ack finally "arrives" — as garbage. The decode
  // failure must count as its failed reply and conclude the read now.
  net::Message corrupt;
  corrupt.from = prefs[2];
  corrupt.to = coordinator->id();
  corrupt.type = kMsgGetAck;
  corrupt.body = bson::Document();
  ASSERT_TRUE(coordinator->dispatcher()->Dispatch(corrupt));
  cluster.RunFor(10 * kMicrosPerMilli);

  ASSERT_GE(finished, 0) << "corrupt ack still stalls the read";
  EXPECT_TRUE(verdict.IsNotFound()) << verdict.ToString();
  EXPECT_LT(finished - start, get_timeout / 2)
      << "read waited for the timeout instead of concluding early";
  EXPECT_EQ(cluster.AggregateStats().get_acks_corrupt, 1u);
}

}  // namespace
}  // namespace hotman::cluster
