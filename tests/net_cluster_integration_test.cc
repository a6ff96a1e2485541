// End-to-end loopback cluster test: spawns three real `hotmand` processes,
// drives quorum put/get through net::RemoteClient, SIGKILLs one node and
// verifies the sloppy quorum keeps serving, then tears the cluster down
// with SIGTERM and asserts every daemon exits cleanly (under the TSan
// preset that also asserts the daemons are race-report-free). Runs once
// with single-reactor daemons and once at --shards=3, where keyed frames
// hop between the transport loop and the shard reactors and a node's frames
// to itself stay on the sending reactor.
//
// The daemon binary path arrives via $HOTMAND_BIN (set by tests/CMakeLists
// to the built target); without it the test skips, so bare ./ binary runs
// stay green.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/net_stats.h"
#include "net/remote_client.h"
#include "support/daemon_cluster.h"

namespace hotman::net {
namespace {

using namespace std::chrono_literals;
using support::DaemonCluster;

/// The daemon binary, or null outside ctest.
const char* HotmandBin() { return std::getenv("HOTMAND_BIN"); }

class LoopbackClusterTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (HotmandBin() == nullptr) {
      GTEST_SKIP() << "HOTMAND_BIN not set (run via ctest)";
    }
    cluster_ = std::make_unique<DaemonCluster>(
        HotmandBin(), 3,
        std::vector<std::string>{"--n", "3", "--w", "2", "--r",
                                 std::to_string(ReadQuorum()), "--shards",
                                 std::to_string(GetParam()), "--gossip-ms", "200",
                                 "--op-timeout-ms", "500"});
    const Status booted = cluster_->Start();
    ASSERT_TRUE(booted.ok()) << booted.ToString();
  }

  /// N=3 W=2 always. The single-shard cluster reads at R=1, as it always
  /// has. At 3 shards a read through db2 right after the delete below was
  /// once answered by the one replica the tombstone had not reached yet
  /// (R+W=N allows that), so that cluster reads at R=2, where every read
  /// quorum meets every write quorum and the one-shot checks must hold.
  static int ReadQuorum() { return GetParam() == 1 ? 1 : 2; }

  std::unique_ptr<DaemonCluster> cluster_;
};

TEST_P(LoopbackClusterTest, QuorumOpsSurviveNodeKill) {
  RemoteClient c1(cluster_->ClientConfig(0, "c1"));

  // Phase 1: writes through db1, reads through every node (any node can
  // coordinate; reads may be served by any replica).
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(c1.Put(cluster_->name(0), key, ToBytes("v" + std::to_string(i))).ok())
        << key;
  }
  RemoteClient c2(cluster_->ClientConfig(1, "c2"));
  RemoteClient c3(cluster_->ClientConfig(2, "c3"));
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto via2 = c2.Get(cluster_->name(1), key);
    ASSERT_TRUE(via2.ok()) << key << ": " << via2.status().ToString();
    EXPECT_EQ(ToString(*via2), "v" + std::to_string(i));
    auto via3 = c3.Get(cluster_->name(2), key);
    ASSERT_TRUE(via3.ok()) << key << ": " << via3.status().ToString();
  }

  // Deletes propagate as tombstones.
  ASSERT_TRUE(c1.Delete(cluster_->name(0), "key0").ok());
  auto deleted = c2.Get(cluster_->name(1), "key0");
  EXPECT_TRUE(!deleted.ok() && deleted.status().IsNotFound())
      << deleted.status().ToString();

  // Phase 2: hard-kill db3. W=2 of N=3 still holds on the two survivors,
  // so the sloppy quorum keeps accepting writes and serving reads.
  ASSERT_EQ(cluster_->Kill(2, SIGKILL), 128 + SIGKILL);

  int survived = 0;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (survived < 10 && std::chrono::steady_clock::now() < deadline) {
    const std::string key = "after" + std::to_string(survived);
    if (!c1.Put(cluster_->name(0), key, ToBytes("post-kill")).ok()) {
      // The first writes after the kill may time out while db1 notices the
      // death; the client's job is to retry.
      std::this_thread::sleep_for(100ms);
      continue;
    }
    auto read_back = c2.Get(cluster_->name(1), key);
    ASSERT_TRUE(read_back.ok()) << key << ": " << read_back.status().ToString();
    EXPECT_EQ(ToString(*read_back), "post-kill");
    ++survived;
  }
  EXPECT_EQ(survived, 10) << "sloppy quorum did not keep serving";

  // Pre-kill data stays readable (key0 was deleted above, start at 1).
  for (int i = 1; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto r = c1.Get(cluster_->name(0), key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  }

  // Stats surface every transport metric end to end.
  auto stats = c1.Stats(cluster_->name(0));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const NetCounter& c : kNetCounters) {
    EXPECT_NE(stats->find(std::string("\"") + c.name + "\":"), std::string::npos)
        << c.name << " missing from " << *stats;
  }
  EXPECT_NE(stats->find("\"net.connections_open\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("puts_succeeded"), std::string::npos) << *stats;

  // Phase 3: graceful teardown. Clean exits prove shutdown ordering (node
  // stop -> transport stop) and, under TSan (which exits non-zero on a
  // report), the absence of data races.
  const std::vector<int> codes = cluster_->Terminate();
  EXPECT_EQ(codes[0], 0) << cluster_->name(0);
  EXPECT_EQ(codes[1], 0) << cluster_->name(1);
}

TEST(DaemonClusterTest, DaemonExitingAtBootFailsTheBarrierAtOnce) {
  // hotmand rejects --shards 0 at config validation and exits 2. The boot
  // barrier must say so within 2 s, naming the daemon, instead of waiting
  // out its deadline. A port taken between pick and bind ends the same way.
  if (HotmandBin() == nullptr) GTEST_SKIP() << "HOTMAND_BIN not set (run via ctest)";
  DaemonCluster cluster(HotmandBin(), 1,
                        {"--n", "1", "--w", "1", "--r", "1", "--shards", "0"});
  const auto started = std::chrono::steady_clock::now();
  const Status booted = cluster.Start();
  EXPECT_LT(std::chrono::steady_clock::now() - started, 2s);
  ASSERT_FALSE(booted.ok());
  EXPECT_EQ(booted.message(), "db1:19870 exited with code 2 before the cluster booted");
  EXPECT_EQ(cluster.Terminate(), std::vector<int>{2});
}

INSTANTIATE_TEST_SUITE_P(Shards, LoopbackClusterTest, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int>& shards) {
                           return "shards" + std::to_string(shards.param);
                         });

}  // namespace
}  // namespace hotman::net
