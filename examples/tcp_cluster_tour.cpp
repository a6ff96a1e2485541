// TCP cluster tour: the failover story of failover_tour.cpp, but over real
// sockets instead of the simulator. Three storage nodes run in-process,
// each in a core::NodeHost, the runtime hotmand runs (own transport loop
// thread, own loopback port); a net::RemoteClient talks to them exactly
// the way hotman_ctl talks to a hotmand daemon. One node is then stopped
// to show the sloppy quorum absorbing the loss.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "common/bytes.h"
#include "core/node_host.h"
#include "net/remote_client.h"

using namespace hotman;  // NOLINT: example brevity

namespace {

constexpr std::uint16_t kBasePort = 21870;

using Hosts = std::vector<std::unique_ptr<core::NodeHost>>;

/// Each node's view, read on its loop: StorageNode internals are
/// loop-confined. A stopped node's host is gone.
void PrintNodes(const cluster::ClusterConfig& config, Hosts& hosts, const char* label) {
  std::printf("%s\n", label);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const char* name = config.nodes[i].address.c_str();
    if (hosts[i] == nullptr) {
      std::printf("  %-10s  [stopped]\n", name);
      continue;
    }
    cluster::StorageNode* node = hosts[i]->node();
    std::size_t records = 0, hints = 0, members = 0;
    hosts[i]->sharded()->PostSync(0, [&] {
      records = node->store()->NumRecords();
      hints = node->hints()->PendingCount();
      members = node->ring().NumPhysicalNodes();
    });
    std::printf("  %-10s  sees %zu members, %zu records, %zu hints pending\n",
                name, members, records, hints);
  }
}

}  // namespace

int main() {
  // The same NWR shape the daemons use: N=3 W=2 R=1, static membership.
  cluster::ClusterConfig config;
  config.replication_factor = 3;
  config.write_quorum = 2;
  config.read_quorum = 1;
  config.gossip.interval = 200 * kMicrosPerMilli;

  for (int i = 0; i < 3; ++i) {
    cluster::NodeSpec spec;
    spec.address = "db" + std::to_string(i + 1) + ":" + std::to_string(kBasePort + i);
    spec.is_seed = (i == 0);
    config.nodes.push_back(spec);
  }
  if (Status v = config.Validate(); !v.ok()) {
    std::printf("bad config: %s\n", v.ToString().c_str());
    return 1;
  }

  Hosts hosts;
  for (int i = 0; i < 3; ++i) {
    net::TcpTransportConfig tconfig;
    tconfig.listen_port = kBasePort + i;
    for (int j = 0; j < 3; ++j) {
      if (j == i) continue;
      tconfig.peers[config.nodes[j].address] = net::TcpPeer{
          "127.0.0.1", static_cast<std::uint16_t>(kBasePort + j)};
    }
    hosts.push_back(std::make_unique<core::NodeHost>(
        config.nodes[i], config, std::move(tconfig), /*rng_seed=*/2026 + i));
    if (Status s = hosts.back()->Start(); !s.ok()) {
      std::printf("node start failed (port %d in use?): %s\n", kBasePort + i,
                  s.ToString().c_str());
      return 1;
    }
  }
  std::printf("== three nodes serving on loopback ports %u-%u ==\n",
              kBasePort, kBasePort + 2);

  const std::string& db1 = config.nodes[0].address;
  const std::string& db2 = config.nodes[1].address;
  const std::string& db3 = config.nodes[2].address;

  // A client, exactly as hotman_ctl would connect.
  net::RemoteClientConfig cconfig;
  cconfig.port = kBasePort;
  cconfig.name = "tour-client";
  net::RemoteClient client(cconfig);

  // Seed data through db1; any node can coordinate.
  int stored = 0;
  for (int i = 0; i < 25; ++i) {
    if (client.Put(db1, "asset" + std::to_string(i), ToBytes("payload")).ok()) {
      ++stored;
    }
  }
  std::printf("stored %d/25 assets via %s\n", stored, db1.c_str());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  PrintNodes(config, hosts, "-- steady state --");

  // Read through a different coordinator: the quorum fans out over TCP.
  net::RemoteClientConfig c2config = cconfig;
  c2config.port = kBasePort + 1;
  c2config.name = "tour-client-2";
  net::RemoteClient client2(c2config);
  auto roundtrip = client2.Get(db2, "asset7");
  std::printf("read asset7 via %s -> %s\n", db2.c_str(),
              roundtrip.ok() ? ToString(*roundtrip).c_str()
                             : roundtrip.status().ToString().c_str());

  // --- Node loss over real sockets -----------------------------------------
  std::printf("\n== stopping %s: connections drop, quorum absorbs it ==\n",
              db3.c_str());
  hosts[2].reset();

  // W=2 of N=3 still holds on the two survivors; early writes may stage
  // hints for the missing replica.
  int survived = 0;
  for (int attempt = 0; survived < 10 && attempt < 200; ++attempt) {
    const std::string key = "after" + std::to_string(survived);
    if (!client.Put(db1, key, ToBytes("post-stop")).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    ++survived;
  }
  std::printf("writes after the loss: %d/10 succeeded\n", survived);
  auto still = client2.Get(db2, "asset7");
  std::printf("asset7 still readable via %s: %s\n", db2.c_str(),
              still.ok() ? "yes" : still.status().ToString().c_str());
  PrintNodes(config, hosts, "-- after the loss --");

  // Server-side stats over the wire, as hotman_ctl's `stats` command. The
  // tour prints which keys the reply holds, never a value: counts such as
  // net.bytes_delivered move with how many gossip frames land first.
  if (auto stats = client.Stats(db1); stats.ok()) {
    std::printf("\n%s stats hold:", db1.c_str());
    for (const std::string key :
         {"puts_succeeded", "net.frames_sent", "sharded.shards"}) {
      const bool held = stats->find('"' + key + "\":") != std::string::npos;
      std::printf(" %s=%s", key.c_str(), held ? "yes" : "no");
    }
    std::printf("\n");
  }

  for (auto& host : hosts) host.reset();
  std::printf("\ntcp cluster tour complete.\n");
  return (stored == 25 && survived == 10 && still.ok()) ? 0 : 1;
}
