#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/messages.h"
#include "core/record.h"

namespace hotman::cluster {
namespace {

class ClusterFailureTest : public ::testing::Test {
 protected:
  void Boot(std::uint64_t seed = 21) {
    ClusterConfig config = ClusterConfig::Uniform(5, /*seeds=*/2);
    cluster_ = std::make_unique<Cluster>(std::move(config), seed);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterFailureTest, ShortFailureHandledByHintedHandoff) {
  Boot();
  StorageNode* any = cluster_->nodes().front();
  auto prefs = any->ring().PreferenceList("hkey", 3);
  StorageNode* victim = cluster_->node(prefs[1]);

  // Short failure: network exception at one replica holder (Fig. 8's B).
  cluster_->injector()->Inject(victim->server(),
                               docstore::FaultMode::kNetworkException,
                               5 * kMicrosPerSecond);
  ASSERT_TRUE(cluster_->PutSync("hkey", ToBytes("v")).ok());

  // The quorum already succeeded, but after the per-replica timeout the
  // coordinator still redirects B's copy to a temporary node C with a hint.
  cluster_->RunFor(2 * kMicrosPerSecond);
  std::size_t hints = 0;
  for (StorageNode* node : cluster_->nodes()) {
    hints += node->hints()->ForTarget(victim->id()).size();
  }
  EXPECT_GT(hints, 0u);

  // B recovers; the hint timer writes the data back.
  cluster_->RunFor(20 * kMicrosPerSecond);
  auto record = victim->store()->GetByKey("hkey");
  EXPECT_TRUE(record.ok()) << "write-back never reached the recovered node";
  std::size_t left = 0;
  for (StorageNode* node : cluster_->nodes()) {
    left += node->hints()->ForTarget(victim->id()).size();
  }
  EXPECT_EQ(left, 0u) << "hints must be dropped after acked write-back";
  EXPECT_GT(cluster_->AggregateStats().hints_delivered, 0u);
}

// A hint is written back as a put_replica whose req is the hint's id, so
// its put_ack settles it. Only an ack from the hint's target may: any other
// sender says nothing about the target's copy.
TEST_F(ClusterFailureTest, OnlyTheTargetsAckSettlesAHint) {
  Boot();
  auto prefs = cluster_->nodes().front()->ring().PreferenceList("hkey", 3);
  StorageNode* victim = cluster_->node(prefs[1]);
  cluster_->injector()->Inject(victim->server(),
                               docstore::FaultMode::kNetworkException,
                               5 * kMicrosPerSecond);
  ASSERT_TRUE(cluster_->PutSync("hkey", ToBytes("v")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);

  // The substitute holding the victim's hint, and a live bystander that
  // neither holds it nor is its target.
  StorageNode* holder = nullptr;
  std::uint64_t hint_id = 0;
  for (StorageNode* node : cluster_->nodes()) {
    std::vector<Hint> held = node->hints()->ForTarget(victim->id());
    if (held.empty()) continue;
    ASSERT_EQ(held.size(), 1u);
    holder = node;
    hint_id = held.front().id;
  }
  ASSERT_NE(holder, nullptr);
  ASSERT_TRUE(holder->store()->GetByKey("hkey").ok());
  ASSERT_EQ(std::find(prefs.begin(), prefs.end(), holder->id()), prefs.end());
  StorageNode* bystander = nullptr;
  for (StorageNode* node : cluster_->nodes()) {
    if (node != holder && node != victim) bystander = node;
  }
  ASSERT_NE(bystander, nullptr);

  PutAckMsg forged;
  forged.req = hint_id;
  forged.ok = true;
  net::Message msg;
  msg.from = bystander->id();
  msg.to = holder->id();
  msg.type = kMsgPutAck;
  msg.body = EncodePutAck(forged);
  cluster_->network()->Send(std::move(msg));
  cluster_->RunFor(100 * kMicrosPerMilli);
  EXPECT_EQ(holder->hints()->ForTarget(victim->id()).size(), 1u)
      << "an ack from a node other than the target settled the hint";
  EXPECT_EQ(holder->stats().hints_delivered, 0u);
  EXPECT_TRUE(holder->store()->GetByKey("hkey").ok());

  // The victim recovers; its own ack of the write-back settles the hint,
  // and the substitute drops its stand-in copy.
  cluster_->RunFor(20 * kMicrosPerSecond);
  EXPECT_TRUE(victim->store()->GetByKey("hkey").ok());
  EXPECT_TRUE(holder->hints()->ForTarget(victim->id()).empty());
  EXPECT_EQ(holder->stats().hints_delivered, 1u);
  EXPECT_TRUE(holder->store()->GetByKey("hkey").status().IsNotFound())
      << "the substitute kept an unowned copy after the write-back";
}

TEST_F(ClusterFailureTest, ReadsSurviveSingleNodeCrash) {
  Boot();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_->PutSync("k" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster_->RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(cluster_->CrashNode("db3:19870").ok());
  int readable = 0;
  for (int i = 0; i < 30; ++i) {
    if (cluster_->GetSync("k" + std::to_string(i)).ok()) ++readable;
  }
  EXPECT_EQ(readable, 30) << "reads must be masked by surviving replicas";
}

TEST_F(ClusterFailureTest, LongFailureDetectedAndRepaired) {
  Boot();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_->PutSync("k" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster_->RunFor(2 * kMicrosPerSecond);
  const std::size_t before = cluster_->TotalReplicas();
  EXPECT_EQ(before, 90u);

  ASSERT_TRUE(cluster_->CrashNode("db4:19870").ok());
  // Give the seeds time to classify the silence as a long failure and
  // drive re-replication (Fig. 9).
  cluster_->RunFor(60 * kMicrosPerSecond);

  // The dead node must be off every survivor's ring.
  for (StorageNode* node : cluster_->nodes()) {
    if (node->id() == "db4:19870") continue;
    EXPECT_FALSE(node->ring().HasNode("db4:19870")) << node->id();
  }
  // Repair traffic flows through the rebalancer's streamed transfers (or
  // the legacy push path when the rebalancer is disabled).
  EXPECT_GT(cluster_->AggregateStats().rereplications +
                cluster_->AggregateRebalanceStats().records_streamed,
            0u);

  // Every key has N=3 live replicas among the survivors again.
  for (int i = 0; i < 30; ++i) {
    const std::string key = "k" + std::to_string(i);
    int holders = 0;
    for (StorageNode* node : cluster_->nodes()) {
      if (node->id() == "db4:19870") continue;
      if (node->store()->GetByKey(key).ok()) ++holders;
    }
    EXPECT_GE(holders, 3) << key;
  }
}

TEST_F(ClusterFailureTest, WritesContinueDuringLongFailure) {
  Boot();
  ASSERT_TRUE(cluster_->CrashNode("db5:19870").ok());
  cluster_->RunFor(60 * kMicrosPerSecond);  // detection + removal
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster_->PutSync("post-crash-" + std::to_string(i),
                                  ToBytes("v"))
                    .ok())
        << i;
  }
}

TEST_F(ClusterFailureTest, ReadRepairSupplementsMissingReplicas) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("repair-me", ToBytes("v")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  // Manually destroy one replica.
  StorageNode* any = cluster_->nodes().front();
  auto prefs = any->ring().PreferenceList("repair-me", 3);
  ASSERT_TRUE(cluster_->node(prefs[2])->store()->Purge("repair-me").ok());
  EXPECT_TRUE(cluster_->node(prefs[2])->store()->GetByKey("repair-me")
                  .status()
                  .IsNotFound());
  // A read notices the missing replica and supplements it (§5.2.2).
  ASSERT_TRUE(cluster_->GetSync("repair-me").ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(cluster_->node(prefs[2])->store()->GetByKey("repair-me").ok());
  EXPECT_GT(cluster_->AggregateStats().read_repairs, 0u);
}

TEST_F(ClusterFailureTest, ReadRepairFixesStaleReplica) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("stale-key", ToBytes("v1")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  StorageNode* any = cluster_->nodes().front();
  auto prefs = any->ring().PreferenceList("stale-key", 3);
  StorageNode* lagging = cluster_->node(prefs[2]);
  // The lagging replica misses the second write (network exception).
  cluster_->injector()->Inject(lagging->server(),
                               docstore::FaultMode::kNetworkException,
                               1 * kMicrosPerSecond);
  ASSERT_TRUE(cluster_->PutSync("stale-key", ToBytes("v2")).ok());
  cluster_->RunFor(5 * kMicrosPerSecond);  // recovery
  // Reads + repair eventually converge the lagging replica to v2.
  for (int i = 0; i < 5; ++i) {
    (void)cluster_->GetSync("stale-key");
    cluster_->RunFor(1 * kMicrosPerSecond);
  }
  auto record = lagging->store()->GetByKey("stale-key");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(ToString(core::RecordValue(*record)), "v2");
}

TEST_F(ClusterFailureTest, ReadsRetryThroughAnotherCoordinator) {
  // Regression: Cluster::Get had no client-side retry, unlike Put/Delete.
  // A network-only outage leaves the node looking healthy to the client
  // picker, so round-robin keeps handing it reads to coordinate; those
  // time out and must be retried through a connected front door.
  Boot();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->PutSync("r" + std::to_string(i), ToBytes("v")).ok());
  }
  cluster_->RunFor(2 * kMicrosPerSecond);
  cluster_->network()->Disconnect("db2:19870");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cluster_->GetSync("r" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(ClusterFailureTest, PrimaryRetryKeepsOriginalRecord) {
  // Regression: the first timeout wave resent core::AsReplicaCopy to every
  // silent target — including the primary, silently demoting its isData=1
  // original to a copy.
  Boot();
  const std::string key = "primary-retry";
  auto prefs = cluster_->nodes().front()->ring().PreferenceList(key, 3);
  StorageNode* coordinator = nullptr;
  for (StorageNode* node : cluster_->nodes()) {
    if (std::find(prefs.begin(), prefs.end(), node->id()) == prefs.end()) {
      coordinator = node;
      break;
    }
  }
  ASSERT_NE(coordinator, nullptr) << "need a coordinator outside the prefs";
  // Only the coordinator<->primary link drops, so the quorum still succeeds
  // via the other two replicas; heal before the wave-1 resend fires.
  cluster_->network()->PartitionLink(coordinator->id(), prefs[0]);
  Status result = Status::Timeout("never finished");
  coordinator->CoordinatePut(key, ToBytes("v"), [&](const Status& s) {
    result = s;
  });
  cluster_->RunFor(cluster_->config().put_timeout / 2);
  cluster_->network()->HealLink(coordinator->id(), prefs[0]);
  cluster_->RunFor(3 * cluster_->config().put_timeout);
  EXPECT_TRUE(result.ok()) << result.ToString();
  auto record = cluster_->node(prefs[0])->store()->GetByKey(key);
  ASSERT_TRUE(record.ok()) << "wave-1 resend never reached the primary";
  EXPECT_FALSE(core::RecordIsCopy(*record))
      << "primary resend must carry the original record (isData=1)";
}

TEST_F(ClusterFailureTest, StopFailsPendingOperationsOnce) {
  // Regression: Stop() leaked every pending request's timeout/cleanup
  // events and left callers hanging. It must fail undone operations with
  // Unavailable immediately, and the orphaned timers must never fire a
  // second callback.
  Boot();
  StorageNode* coordinator = cluster_->node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  cluster_->network()->Disconnect(coordinator->id());
  int put_calls = 0;
  int get_calls = 0;
  Status put_result = Status::OK();
  Status get_result = Status::OK();
  coordinator->CoordinatePut("stopped-put", ToBytes("v"), [&](const Status& s) {
    ++put_calls;
    put_result = s;
  });
  coordinator->CoordinateGet("stopped-get",
                             [&](const Result<bson::Document>& r) {
                               ++get_calls;
                               get_result = r.status();
                             });
  cluster_->RunFor(50 * kMicrosPerMilli);
  ASSERT_EQ(put_calls, 0);
  ASSERT_EQ(get_calls, 0);
  coordinator->Stop();
  EXPECT_EQ(put_calls, 1);
  EXPECT_EQ(get_calls, 1);
  EXPECT_TRUE(put_result.IsUnavailable()) << put_result.ToString();
  EXPECT_TRUE(get_result.IsUnavailable()) << get_result.ToString();
  // Any leaked per-request timer would fire a duplicate callback here.
  cluster_->RunFor(10 * kMicrosPerSecond);
  EXPECT_EQ(put_calls, 1);
  EXPECT_EQ(get_calls, 1);
}

TEST_F(ClusterFailureTest, FaultInjectionStillReachesHighSuccessRate) {
  // The paper's availability claim: with Table 2 fault rates, the vast
  // majority of operations still succeed.
  ClusterConfig config = ClusterConfig::Uniform(5, /*seeds=*/2);
  sim::FailureConfig faults;  // Table 2 defaults
  cluster_ = std::make_unique<Cluster>(std::move(config), 31, faults);
  ASSERT_TRUE(cluster_->Start().ok());
  int put_ok = 0;
  const int ops = 150;
  for (int i = 0; i < ops; ++i) {
    if (cluster_->PutSync("f" + std::to_string(i), ToBytes("v")).ok()) ++put_ok;
    cluster_->RunFor(50 * kMicrosPerMilli);
  }
  EXPECT_GT(put_ok, ops * 95 / 100)
      << "NWR + handoff should mask nearly all injected faults";
  EXPECT_GT(cluster_->injector()->stats().total(), 0u)
      << "the run must actually have injected faults";
}

TEST_F(ClusterFailureTest, TombstonePreventsResurrectionByRepair) {
  Boot();
  ASSERT_TRUE(cluster_->PutSync("zombie", ToBytes("v")).ok());
  cluster_->RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(cluster_->DeleteSync("zombie").ok());
  cluster_->RunFor(5 * kMicrosPerSecond);
  // Repeated reads + repair rounds must never bring the key back.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster_->GetSync("zombie").status().IsNotFound());
    cluster_->RunFor(1 * kMicrosPerSecond);
  }
}

}  // namespace
}  // namespace hotman::cluster
