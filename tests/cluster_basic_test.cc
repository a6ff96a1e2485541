#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace hotman::cluster {
namespace {

class ClusterBasicTest : public ::testing::Test {
 protected:
  void Boot(ClusterConfig config = ClusterConfig::PaperSetup(),
            std::uint64_t seed = 42) {
    cluster_ = std::make_unique<Cluster>(std::move(config), seed);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterBasicTest, PutThenGetRoundTrips) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("alpha", ToBytes("value-a")).ok());
  auto value = cluster_->GetSync("alpha");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "value-a");
}

TEST_F(ClusterBasicTest, GetMissingKeyIsNotFound) {
  Boot();
  EXPECT_TRUE(cluster_->GetSync("ghost").status().IsNotFound());
}

TEST_F(ClusterBasicTest, OverwriteVisible) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v1")).ok());
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v2")).ok());
  // With R=1 a lagging replica could answer; run repair traffic to settle.
  cluster_->RunFor(2 * kMicrosPerSecond);
  auto value = cluster_->GetSync("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "v2");
}

TEST_F(ClusterBasicTest, DeleteMakesKeyNotFound) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v")).ok());
  ASSERT_TRUE(cluster_->DeleteSync("k").ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(cluster_->GetSync("k").status().IsNotFound());
}

TEST_F(ClusterBasicTest, DeleteIsLogicalTombstone) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v")).ok());
  ASSERT_TRUE(cluster_->DeleteSync("k").ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  // "Just update the flag and not physically remove the record from disk":
  // some replica still physically holds the tombstone record.
  std::size_t tombstones = 0;
  for (StorageNode* node : cluster_->nodes()) {
    auto record = node->store()->GetByKey("k");
    if (record.ok() && core::RecordIsDeleted(*record)) ++tombstones;
  }
  EXPECT_GT(tombstones, 0u);
}

TEST_F(ClusterBasicTest, EmptyKeyPutFailsAtOnce) {
  // No replica stores the empty key (core::ValidateRecord refuses it, and a
  // peer's decoder drops such a record), so the coordinator refuses the
  // put before sending anything instead of waiting out its timeout.
  Boot();
  const Micros started = cluster_->loop()->NowMicros();
  const Status put = cluster_->PutSync("", ToBytes("v"));
  EXPECT_TRUE(put.IsInvalidArgument()) << put.ToString();
  EXPECT_LT(cluster_->loop()->NowMicros() - started, cluster_->config().put_timeout);
}

TEST_F(ClusterBasicTest, EveryRecordGetsNReplicas) {
  Boot();
  const int keys = 40;
  for (int i = 0; i < keys; ++i) {
    ASSERT_TRUE(cluster_->PutSync("key" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster_->RunFor(3 * kMicrosPerSecond);  // let W..N replication finish
  EXPECT_EQ(cluster_->TotalReplicas(), static_cast<std::size_t>(keys) * 3);
}

TEST_F(ClusterBasicTest, ReplicasLandOnPreferenceNodes) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("target", ToBytes("v")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  StorageNode* any = cluster_->nodes().front();
  auto prefs = any->ring().PreferenceList("target", 3);
  ASSERT_EQ(prefs.size(), 3u);
  for (const std::string& address : prefs) {
    EXPECT_TRUE(cluster_->node(address)->store()->GetByKey("target").ok())
        << address << " missing its replica";
  }
}

TEST_F(ClusterBasicTest, PrimaryHoldsOriginalReplicasHoldCopies) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("orig", ToBytes("v")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  StorageNode* any = cluster_->nodes().front();
  auto prefs = any->ring().PreferenceList("orig", 3);
  auto primary_record = cluster_->node(prefs[0])->store()->GetByKey("orig");
  ASSERT_TRUE(primary_record.ok());
  EXPECT_FALSE(core::RecordIsCopy(*primary_record));  // isData = "1"
  for (std::size_t i = 1; i < prefs.size(); ++i) {
    auto replica_record = cluster_->node(prefs[i])->store()->GetByKey("orig");
    ASSERT_TRUE(replica_record.ok());
    EXPECT_TRUE(core::RecordIsCopy(*replica_record));  // isData = "0"
  }
}

TEST_F(ClusterBasicTest, AnyNodeCanCoordinate) {
  Boot();
  // "All physical nodes have open service interfaces ... clients can
  // connect to any node in the system to get/put data."
  for (StorageNode* node : cluster_->nodes()) {
    const std::string key = "via-" + node->id();
    Status result = Status::Timeout("no callback");
    node->CoordinatePut(key, ToBytes("v"), [&result](const Status& s) { result = s; });
    cluster_->RunFor(3 * kMicrosPerSecond);
    EXPECT_TRUE(result.ok()) << node->id() << ": " << result.ToString();
  }
}

TEST_F(ClusterBasicTest, ManyKeysAllReadable) {
  Boot();
  const int keys = 60;
  for (int i = 0; i < keys; ++i) {
    ASSERT_TRUE(cluster_->PutSync("k" + std::to_string(i),
                                  ToBytes("value-" + std::to_string(i)))
                    .ok());
  }
  for (int i = 0; i < keys; ++i) {
    auto value = cluster_->GetSync("k" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(ToString(*value), "value-" + std::to_string(i));
  }
}

TEST_F(ClusterBasicTest, StatsAccumulate) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v")).ok());
  auto value = cluster_->GetSync("k");
  ASSERT_TRUE(value.ok());
  NodeStats stats = cluster_->AggregateStats();
  EXPECT_EQ(stats.puts_coordinated, 1u);
  EXPECT_EQ(stats.puts_succeeded, 1u);
  EXPECT_EQ(stats.gets_coordinated, 1u);
  EXPECT_EQ(stats.gets_succeeded, 1u);
  EXPECT_GE(stats.replica_puts_applied, 2u);  // at least W replicas
}

TEST_F(ClusterBasicTest, SingleNodeClusterDegradesGracefully) {
  ClusterConfig config = ClusterConfig::Uniform(1, /*seeds=*/0);
  Boot(std::move(config));
  ASSERT_TRUE(cluster_->PutSync("k", ToBytes("v")).ok());
  auto value = cluster_->GetSync("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "v");
  EXPECT_EQ(cluster_->TotalReplicas(), 1u);
}

TEST_F(ClusterBasicTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Cluster cluster(ClusterConfig::PaperSetup(), seed);
    EXPECT_TRUE(cluster.Start().ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(cluster.PutSync("k" + std::to_string(i), ToBytes("v")).ok());
    }
    cluster.RunFor(2 * kMicrosPerSecond);
    std::vector<std::size_t> counts;
    for (StorageNode* node : cluster.nodes()) {
      counts.push_back(node->store()->NumRecords());
    }
    return counts;
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace hotman::cluster
