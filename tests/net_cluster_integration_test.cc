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

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/net_stats.h"
#include "net/remote_client.h"

namespace hotman::net {
namespace {

using namespace std::chrono_literals;

/// Reserves an ephemeral port by binding and releasing it. A tiny race
/// remains (another process could grab it before hotmand binds), which the
/// boot-retry loop below absorbs.
std::uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  ::close(fd);
  return ntohs(bound.sin_port);
}

struct Node {
  std::string name;
  std::uint16_t port = 0;
  pid_t pid = -1;
};

class LoopbackClusterTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("HOTMAND_BIN");
    if (bin == nullptr) {
      GTEST_SKIP() << "HOTMAND_BIN not set (run via ctest)";
    }
    bin_ = bin;
    for (int i = 0; i < 3; ++i) {
      Node node;
      // A released port can come straight back from the next PickPort; two
      // daemons given one port leave one dead and the other silently
      // dropping the frames addressed to it.
      do {
        node.port = PickPort();
      } while (node.port != 0 &&
               std::any_of(nodes_.begin(), nodes_.end(), [&](const Node& n) {
                 return n.port == node.port;
               }));
      ASSERT_NE(node.port, 0) << "could not reserve a loopback port";
      node.name = "n" + std::to_string(i + 1) + ":" +
                  std::to_string(node.port);
      nodes_.push_back(node);
    }
    for (Node& node : nodes_) Spawn(&node);
  }

  void TearDown() override {
    for (Node& node : nodes_) {
      if (node.pid > 0) ::kill(node.pid, SIGKILL);
    }
    for (Node& node : nodes_) Reap(&node, /*expect_clean=*/false);
  }

  /// N=3 W=2 always. The single-shard cluster reads at R=1, as it always
  /// has. At 3 shards a read through n2 right after the delete below was
  /// once answered by the one replica the tombstone had not reached yet
  /// (R+W=N allows that), so that cluster reads at R=2, where every read
  /// quorum meets every write quorum and the one-shot checks must hold.
  static int ReadQuorum() { return GetParam() == 1 ? 1 : 2; }

  void Spawn(Node* node) {
    std::vector<std::string> args = {
        bin_,
        "--node", node->name,
        "--listen", "127.0.0.1:" + std::to_string(node->port),
        "--seeds", nodes_[0].name,
        "--n", "3", "--w", "2", "--r", std::to_string(ReadQuorum()),
        "--shards", std::to_string(GetParam()),
        "--gossip-ms", "200",
        "--op-timeout-ms", "500",
    };
    for (const Node& peer : nodes_) {
      args.push_back("--peer");
      args.push_back(peer.name + "=127.0.0.1:" + std::to_string(peer.port));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ::execv(bin_.c_str(), argv.data());
      std::perror("execv hotmand");
      ::_exit(127);
    }
    node->pid = pid;
  }

  /// Waits for the process; with expect_clean, asserts a 0 exit status —
  /// which under the TSan preset also means no race report (TSan exits
  /// non-zero on findings).
  void Reap(Node* node, bool expect_clean) {
    if (node->pid <= 0) return;
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = ::waitpid(node->pid, &status, WNOHANG);
      if (r == node->pid) {
        if (expect_clean) {
          EXPECT_TRUE(WIFEXITED(status))
              << node->name << " did not exit normally";
          if (WIFEXITED(status)) {
            EXPECT_EQ(WEXITSTATUS(status), 0) << node->name;
          }
        }
        node->pid = -1;
        return;
      }
      std::this_thread::sleep_for(10ms);
    }
    ::kill(node->pid, SIGKILL);
    ::waitpid(node->pid, &status, 0);
    node->pid = -1;
    if (expect_clean) ADD_FAILURE() << node->name << " hung on shutdown";
  }

  RemoteClientConfig ClientConfig(const Node& node, const char* who) {
    RemoteClientConfig config;
    config.host = "127.0.0.1";
    config.port = node.port;
    config.name = std::string(who) + "-" + std::to_string(::getpid());
    config.op_timeout = 5 * kMicrosPerSecond;
    return config;
  }

  /// Retries the first put until the cluster has booted (daemons need a
  /// moment to bind, connect and gossip).
  bool AwaitBoot(RemoteClient* client, const std::string& server) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (client->Put(server, "boot-probe", ToBytes("up")).ok()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return false;
  }

  std::string bin_;
  std::vector<Node> nodes_;
};

TEST_P(LoopbackClusterTest, QuorumOpsSurviveNodeKill) {
  RemoteClient c1(ClientConfig(nodes_[0], "c1"));
  ASSERT_TRUE(AwaitBoot(&c1, nodes_[0].name)) << "cluster never booted";

  // Phase 1: writes through n1, reads through every node (any node can
  // coordinate; reads may be served by any replica).
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(c1.Put(nodes_[0].name, key, ToBytes("v" + std::to_string(i))).ok())
        << key;
  }
  RemoteClient c2(ClientConfig(nodes_[1], "c2"));
  RemoteClient c3(ClientConfig(nodes_[2], "c3"));
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto via2 = c2.Get(nodes_[1].name, key);
    ASSERT_TRUE(via2.ok()) << key << ": " << via2.status().ToString();
    EXPECT_EQ(ToString(*via2), "v" + std::to_string(i));
    auto via3 = c3.Get(nodes_[2].name, key);
    ASSERT_TRUE(via3.ok()) << key << ": " << via3.status().ToString();
  }

  // Deletes propagate as tombstones.
  ASSERT_TRUE(c1.Delete(nodes_[0].name, "key0").ok());
  auto deleted = c2.Get(nodes_[1].name, "key0");
  EXPECT_TRUE(!deleted.ok() && deleted.status().IsNotFound())
      << deleted.status().ToString();

  // Phase 2: hard-kill n3. W=2 of N=3 still holds on the two survivors, so
  // the sloppy quorum keeps accepting writes and serving reads.
  ASSERT_EQ(::kill(nodes_[2].pid, SIGKILL), 0);
  ::waitpid(nodes_[2].pid, nullptr, 0);
  nodes_[2].pid = -1;

  int survived = 0;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (survived < 10 && std::chrono::steady_clock::now() < deadline) {
    const std::string key = "after" + std::to_string(survived);
    if (!c1.Put(nodes_[0].name, key, ToBytes("post-kill")).ok()) {
      // The first writes after the kill may time out while n1 notices the
      // death; the client's job is to retry.
      std::this_thread::sleep_for(100ms);
      continue;
    }
    auto read_back = c2.Get(nodes_[1].name, key);
    ASSERT_TRUE(read_back.ok()) << key << ": " << read_back.status().ToString();
    EXPECT_EQ(ToString(*read_back), "post-kill");
    ++survived;
  }
  EXPECT_EQ(survived, 10) << "sloppy quorum did not keep serving";

  // Pre-kill data stays readable (key0 was deleted above, start at 1).
  for (int i = 1; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto r = c1.Get(nodes_[0].name, key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  }

  // Stats surface every transport metric end to end.
  auto stats = c1.Stats(nodes_[0].name);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const NetCounter& c : kNetCounters) {
    EXPECT_NE(stats->find(std::string("\"") + c.name + "\":"), std::string::npos)
        << c.name << " missing from " << *stats;
  }
  EXPECT_NE(stats->find("\"net.connections_open\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("puts_succeeded"), std::string::npos) << *stats;

  // Phase 3: graceful teardown. Clean exits prove shutdown ordering (node
  // stop -> transport stop) and, under TSan, the absence of data races.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::kill(nodes_[i].pid, SIGTERM), 0);
  }
  for (int i = 0; i < 2; ++i) {
    Reap(&nodes_[i], /*expect_clean=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LoopbackClusterTest, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int>& shards) {
                           return "shards" + std::to_string(shards.param);
                         });

}  // namespace
}  // namespace hotman::net
