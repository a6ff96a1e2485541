// The version probe of a read answered in place, on the runtime hotmand
// ships: three core::NodeHosts on loopback at N=3 W=2 R=1 with hinted
// handoff off, each on an ephemeral port of its own. A get through db1 is
// answered by db1's own replica before any frame leaves; db1 then sends
// each other replica one partial ae_digest of the served version instead
// of a get_replica. A replica that agrees sends nothing back, one that
// missed the write pulls it (ae_request), and one holding a newer version
// pushes it to db1 (put_replica).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/messages.h"
#include "cluster/storage_node.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "core/node_host.h"
#include "core/record.h"
#include "docstore/server.h"

namespace hotman {
namespace {

using namespace std::chrono_literals;

constexpr int kNodes = 3;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

class ReadProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.replication_factor = 3;
    config_.write_quorum = 2;
    config_.read_quorum = 1;
    config_.hinted_handoff = false;
    // No gossip round in a test's lifetime, so every frame counted below
    // belongs to the test's own ops. The ring is static, and the failure
    // detector holds a peer it never heard from alive.
    config_.gossip.interval = 3600 * kMicrosPerSecond;
    for (int i = 0; i < kNodes; ++i) {
      cluster::NodeSpec spec;
      spec.address = "db" + std::to_string(i + 1) + ":19870";
      spec.is_seed = i == 0;
      config_.nodes.push_back(spec);
    }
    ASSERT_TRUE(config_.Validate().ok());
    for (int i = 0; i < kNodes; ++i) {
      hosts_.push_back(std::make_unique<core::NodeHost>(
          config_.nodes[i], config_, net::TcpTransportConfig{}, /*rng_seed=*/2026 + i));
      ASSERT_TRUE(hosts_.back()->Start().ok());
    }
    // Each host listens on a port the kernel picked; tell the others.
    for (int i = 0; i < kNodes; ++i) {
      for (int j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        hosts_[i]->transport()->AddOrUpdatePeer(
            config_.nodes[j].address,
            net::TcpPeer{"127.0.0.1", hosts_[j]->transport()->listen_port()});
      }
    }
  }

  void TearDown() override {
    for (auto& host : hosts_) host->Stop();
  }

  cluster::StorageNode* node(int i) { return hosts_[i]->node(); }

  /// A put coordinated by node `i`; Timeout when no answer came within 5 s.
  Status Put(int i, const std::string& key, const std::string& value) {
    auto reply = std::make_shared<std::promise<Status>>();
    node(i)->CoordinatePut(key, ToBytes(value),
                           [reply](const Status& s) { reply->set_value(s); });
    auto answer = reply->get_future();
    if (answer.wait_for(5s) != std::future_status::ready) {
      return Status::Timeout("no answer to put " + key);
    }
    return answer.get();
  }

  /// The value a get coordinated by node `i` answers, or its failure.
  std::string Get(int i, const std::string& key) {
    auto reply = std::make_shared<std::promise<std::string>>();
    node(i)->CoordinateGet(key, [reply](const Result<bson::Document>& r) {
      reply->set_value(r.ok() ? ToString(core::RecordValue(*r)) : r.status().ToString());
    });
    auto answer = reply->get_future();
    if (answer.wait_for(5s) != std::future_status::ready) {
      return "<no answer to get " + key + ">";
    }
    return answer.get();
  }

  /// The value node `i`'s own replica of `key` holds, read on the key's
  /// shard; "<none>" when it holds none.
  std::string Holds(int i, const std::string& key) {
    std::string value = "<none>";
    cluster::StorageNode* n = node(i);
    hosts_[i]->sharded()->PostSync(n->ShardOfKey(key), [&] {
      auto record = n->StoreForKey(key)->GetByKey(key);
      if (record.ok()) value = ToString(core::RecordValue(*record));
    });
    return value;
  }

  metrics::Registry Net(int i) {
    metrics::Registry registry;
    hosts_[i]->transport()->ExportStats(&registry);
    return registry;
  }

  std::uint64_t Counter(int i, const char* name) {
    return Net(i).counter(name)->value();
  }

  /// How many frames of `type` node `i` has been handed.
  std::uint64_t Received(int i, const std::string& type) {
    return Net(i).histogram("net.frame_latency." + type)->count();
  }

  /// Waits until every frame sent has been handled and no handler sent
  /// another: all frames here run between the three hosts, and a handler
  /// runs on shard 0, the loop that delivered its frame.
  bool Settle() {
    auto totals = [this] {
      std::uint64_t sent = 0, delivered = 0;
      for (int i = 0; i < kNodes; ++i) {
        sent += Counter(i, "net.frames_sent");
        delivered += Counter(i, "net.frames_delivered");
      }
      return std::make_pair(sent, delivered);
    };
    for (int round = 0; round < 100; ++round) {
      if (!WaitUntil([&] {
            const auto t = totals();
            return t.first == t.second;
          })) {
        return false;
      }
      const auto seen = totals();
      for (auto& host : hosts_) host->sharded()->PostSync(0, [] {});
      if (totals() == seen) return true;
    }
    return false;
  }

  cluster::ClusterConfig config_;
  std::vector<std::unique_ptr<core::NodeHost>> hosts_;
};

TEST_F(ReadProbeTest, AgreeingReplicasAnswerTheProbeWithNothing) {
  const std::string key = "probe:agree";
  // Every node also holds a record the probe does not list. A full digest
  // would have its receiver push that one to db1; a partial one must not.
  ASSERT_TRUE(Put(0, "probe:unlisted", "u").ok());
  ASSERT_TRUE(Put(0, key, "v1").ok());
  ASSERT_TRUE(Settle());
  for (int i = 0; i < kNodes; ++i) ASSERT_EQ(Holds(i, key), "v1") << i;

  std::vector<std::uint64_t> sent, digests, gets;
  for (int i = 0; i < kNodes; ++i) {
    sent.push_back(Counter(i, "net.frames_sent"));
    digests.push_back(Received(i, cluster::kMsgAeDigest));
    gets.push_back(Received(i, cluster::kMsgGetReplica));
  }
  const std::size_t probes = node(0)->stats().read_probes;

  EXPECT_EQ(Get(0, key), "v1");
  ASSERT_TRUE(Settle());
  // db1 sent one probe to each other replica and nothing else; the equal
  // versions made db2 and db3 answer nothing at all, not even a push of
  // the record the probe did not list.
  EXPECT_EQ(Counter(0, "net.frames_sent") - sent[0], 2u);
  EXPECT_EQ(node(0)->stats().read_probes - probes, 2u);
  for (int i = 1; i < kNodes; ++i) {
    SCOPED_TRACE(config_.nodes[i].address);
    EXPECT_EQ(Received(i, cluster::kMsgAeDigest) - digests[i], 1u);
    EXPECT_EQ(Received(i, cluster::kMsgGetReplica) - gets[i], 0u);
    EXPECT_EQ(Counter(i, "net.frames_sent") - sent[i], 0u);
  }
}

TEST_F(ReadProbeTest, ReplicaThatMissedAWritePullsItThroughItsProbe) {
  const std::string key = "probe:missed";
  node(2)->server()->SetFault(docstore::FaultMode::kDown);
  ASSERT_TRUE(Put(0, key, "v1").ok());  // db1 and db2 ack, db3 nacks
  ASSERT_TRUE(Settle());
  node(2)->server()->SetFault(docstore::FaultMode::kNone);
  ASSERT_EQ(Holds(2, key), "<none>");
  const std::size_t requested = node(0)->stats().ae_requested;

  EXPECT_EQ(Get(0, key), "v1");
  EXPECT_TRUE(WaitUntil([&] { return Holds(2, key) == "v1"; }));
  ASSERT_TRUE(Settle());
  // db3 asked db1 for the record, and db1 sent it.
  EXPECT_EQ(node(0)->stats().ae_requested - requested, 1u);
}

TEST_F(ReadProbeTest, NewerVersionAtAPeerIsPushedToTheCoordinator) {
  const std::string key = "probe:newer";
  ASSERT_TRUE(Put(0, key, "v1").ok());
  ASSERT_TRUE(Settle());
  node(0)->server()->SetFault(docstore::FaultMode::kDown);
  ASSERT_TRUE(Put(1, key, "v2").ok());  // through db2: db2 and db3 ack, db1 nacks
  ASSERT_TRUE(Settle());
  node(0)->server()->SetFault(docstore::FaultMode::kNone);
  ASSERT_EQ(Holds(0, key), "v1");
  const std::size_t pushed = node(1)->stats().ae_pushed + node(2)->stats().ae_pushed;

  // R=1 lets db1 answer with its own, older version at once.
  EXPECT_EQ(Get(0, key), "v1");
  EXPECT_TRUE(WaitUntil([&] { return Holds(0, key) == "v2"; }));
  ASSERT_TRUE(Settle());
  // Both probed peers hold v2, so each pushed it.
  EXPECT_EQ(node(1)->stats().ae_pushed + node(2)->stats().ae_pushed - pushed, 2u);
}

}  // namespace
}  // namespace hotman
