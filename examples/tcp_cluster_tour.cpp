// TCP cluster tour: the failover story of failover_tour.cpp, but over real
// sockets instead of the simulator. Three storage nodes run in-process,
// each on its own net::TcpTransport (own loop thread, own loopback port)
// and on the threaded shard runtime hotmand uses, started and stopped in
// hotmand's order; a net::RemoteClient talks to them exactly the way
// hotman_ctl talks to a hotmand daemon. One node is then stopped to show
// the sloppy quorum absorbing the loss.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.h"
#include "cluster/node_server.h"
#include "cluster/storage_node.h"
#include "common/bytes.h"
#include "net/remote_client.h"
#include "net/sharded_executor.h"
#include "net/tcp_transport.h"

using namespace hotman;  // NOLINT: example brevity

namespace {

constexpr std::uint16_t kBasePort = 21870;

struct TourNode {
  std::string name;
  std::uint16_t port = 0;
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<net::ShardedExecutor> sharded;
  std::unique_ptr<cluster::StorageNode> node;
  std::unique_ptr<cluster::NodeServer> server;
};

/// Runs `fn` on the node's loop thread and waits: StorageNode internals are
/// loop-confined, so inspection must happen there.
template <typename Fn>
void OnLoop(TourNode* tn, Fn fn) {
  std::promise<void> done;
  tn->transport->Post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

void PrintNodes(std::vector<TourNode>& nodes, const char* label) {
  std::printf("%s\n", label);
  for (TourNode& tn : nodes) {
    if (tn.node == nullptr) {
      std::printf("  %-10s  [stopped]\n", tn.name.c_str());
      continue;
    }
    std::size_t records = 0, hints = 0, members = 0;
    OnLoop(&tn, [&] {
      records = tn.node->store()->NumRecords();
      hints = tn.node->hints()->PendingCount();
      members = tn.node->ring().NumPhysicalNodes();
    });
    std::printf("  %-10s  sees %zu members, %zu records, %zu hints pending\n",
                tn.name.c_str(), members, records, hints);
  }
}

void StopNode(TourNode* tn) {
  OnLoop(tn, [&] { tn->node->Stop(); });
  tn->sharded->Shutdown();
  tn->transport->Stop();
  tn->node.reset();
  tn->server.reset();
  tn->sharded.reset();
  tn->transport.reset();
}

}  // namespace

int main() {
  // The same NWR shape the daemons use: N=3 W=2 R=1, static membership.
  cluster::ClusterConfig config;
  config.replication_factor = 3;
  config.write_quorum = 2;
  config.read_quorum = 1;
  config.gossip.interval = 200 * kMicrosPerMilli;

  std::vector<TourNode> nodes(3);
  for (int i = 0; i < 3; ++i) {
    nodes[i].port = static_cast<std::uint16_t>(kBasePort + i);
    nodes[i].name = "db" + std::to_string(i + 1) + ":" +
                    std::to_string(nodes[i].port);
    cluster::NodeSpec spec;
    spec.address = nodes[i].name;
    spec.is_seed = (i == 0);
    config.nodes.push_back(spec);
  }
  if (Status v = config.Validate(); !v.ok()) {
    std::printf("bad config: %s\n", v.ToString().c_str());
    return 1;
  }

  for (int i = 0; i < 3; ++i) {
    net::TcpTransportConfig tconfig;
    tconfig.listen_host = "127.0.0.1";
    tconfig.listen_port = nodes[i].port;
    for (int j = 0; j < 3; ++j) {
      if (j == i) continue;
      tconfig.peers[nodes[j].name] = net::TcpPeer{"127.0.0.1", nodes[j].port};
    }
    nodes[i].transport = std::make_unique<net::TcpTransport>(tconfig);
    if (Status s = nodes[i].transport->Start(); !s.ok()) {
      std::printf("transport start failed (port %u in use?): %s\n",
                  nodes[i].port, s.ToString().c_str());
      return 1;
    }
    net::ShardedExecutorConfig sconfig;
    sconfig.shards = config.shards;
    nodes[i].sharded = std::make_unique<net::ShardedExecutor>(
        nodes[i].transport.get(), sconfig);
    if (Status s = nodes[i].sharded->Launch(); !s.ok()) {
      std::printf("shard runtime start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    nodes[i].node = std::make_unique<cluster::StorageNode>(
        config.nodes[i], config, nodes[i].transport.get(),
        /*injector=*/nullptr, /*seed=*/2026 + i, nodes[i].sharded.get());
    nodes[i].server = std::make_unique<cluster::NodeServer>(
        nodes[i].node.get(), nodes[i].transport.get());
    nodes[i].server->Start();
    OnLoop(&nodes[i], [&] { nodes[i].node->Start(); });
  }
  std::printf("== three nodes serving on loopback ports %u-%u ==\n",
              kBasePort, kBasePort + 2);

  // A client, exactly as hotman_ctl would connect.
  net::RemoteClientConfig cconfig;
  cconfig.host = "127.0.0.1";
  cconfig.port = nodes[0].port;
  cconfig.name = "tour-client";
  net::RemoteClient client(cconfig);

  // Seed data through db1; any node can coordinate.
  int stored = 0;
  for (int i = 0; i < 25; ++i) {
    if (client.Put(nodes[0].name, "asset" + std::to_string(i),
                   ToBytes("payload"))
            .ok()) {
      ++stored;
    }
  }
  std::printf("stored %d/25 assets via %s\n", stored, nodes[0].name.c_str());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  PrintNodes(nodes, "-- steady state --");

  // Read through a different coordinator: the quorum fans out over TCP.
  net::RemoteClientConfig c2config = cconfig;
  c2config.port = nodes[1].port;
  c2config.name = "tour-client-2";
  net::RemoteClient client2(c2config);
  auto roundtrip = client2.Get(nodes[1].name, "asset7");
  std::printf("read asset7 via %s -> %s\n", nodes[1].name.c_str(),
              roundtrip.ok() ? ToString(*roundtrip).c_str()
                             : roundtrip.status().ToString().c_str());

  // --- Node loss over real sockets -----------------------------------------
  std::printf("\n== stopping %s: connections drop, quorum absorbs it ==\n",
              nodes[2].name.c_str());
  StopNode(&nodes[2]);

  // W=2 of N=3 still holds on the two survivors; early writes may stage
  // hints for the missing replica.
  int survived = 0;
  for (int attempt = 0; survived < 10 && attempt < 200; ++attempt) {
    const std::string key = "after" + std::to_string(survived);
    if (!client.Put(nodes[0].name, key, ToBytes("post-stop")).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    ++survived;
  }
  std::printf("writes after the loss: %d/10 succeeded\n", survived);
  auto still = client2.Get(nodes[1].name, "asset7");
  std::printf("asset7 still readable via %s: %s\n", nodes[1].name.c_str(),
              still.ok() ? "yes" : still.status().ToString().c_str());
  PrintNodes(nodes, "-- after the loss --");

  // Server-side stats over the wire, as hotman_ctl's `stats` command.
  if (auto stats = client.Stats(nodes[0].name); stats.ok()) {
    std::printf("\n%s stats (first 400 bytes):\n%.400s...\n",
                nodes[0].name.c_str(), stats->c_str());
  }

  for (TourNode& tn : nodes) {
    if (tn.node != nullptr) StopNode(&tn);
  }
  std::printf("\ntcp cluster tour complete.\n");
  return (stored == 25 && survived == 10 && still.ok()) ? 0 : 1;
}
