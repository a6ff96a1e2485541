// hotmand: one MyStore storage node as a real networked daemon.
//
// Hosts a cluster::StorageNode + cluster::NodeServer over net::TcpTransport:
// the same middle-layer code the simulator runs, but with actual sockets,
// actual time and actual CPU work (service-time modeling off). A loopback
// cluster is three of these plus hotman_ctl:
//
//   hotmand --node db1:19870 --listen 127.0.0.1:19870
//           --peer db1:19870=127.0.0.1:19870
//           --peer db2:19871=127.0.0.1:19871
//           --peer db3:19872=127.0.0.1:19872
//           --seeds db1:19870 --n 3 --w 2 --r 1
//   (one command line; wrapped here for readability)
//
// Every listed peer (self included) is a static cluster member; gossip and
// the failure detector take over from there, exactly as in simulation.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "common/logging.h"
#include "core/node_host.h"
#include "net/tcp_transport.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

bool ParseHostPort(const std::string& s, HostPort* out) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) return false;
  out->host = s.substr(0, colon);
  const long port = std::strtol(s.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) return false;
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --node NAME --listen HOST:PORT --peer NAME=HOST:PORT...\n"
      "          [--seeds NAME,NAME,...] [--n N] [--w W] [--r R]\n"
      "          [--shards S] [--gossip-ms MS] [--op-timeout-ms MS]\n"
      "          [--seed-rng U64]\n"
      "Every --peer (self included) is a static cluster member.\n"
      "--shards S runs S reactors per node (shard-per-core; default 1).\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotman;

  std::string self;
  HostPort listen;
  bool have_listen = false;
  std::vector<std::pair<std::string, HostPort>> peers;
  std::vector<std::string> seeds;
  cluster::ClusterConfig config;
  std::uint64_t rng_seed = 19870;

  for (int i = 1; i < argc; i += 2) {  // every flag takes one value
    const std::string arg = argv[i];
    if (i + 1 == argc) { Usage(argv[0]); return 2; }
    const char* v = argv[i + 1];
    if (arg == "--node") {
      self = v;
    } else if (arg == "--listen") {
      if (!ParseHostPort(v, &listen)) { Usage(argv[0]); return 2; }
      have_listen = true;
    } else if (arg == "--peer") {
      const std::string spec = v;
      const std::size_t eq = spec.find('=');
      HostPort hp;
      if (eq == std::string::npos || !ParseHostPort(spec.substr(eq + 1), &hp)) {
        Usage(argv[0]);
        return 2;
      }
      peers.emplace_back(spec.substr(0, eq), hp);
    } else if (arg == "--seeds") {
      std::string rest = v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        seeds.push_back(rest.substr(0, comma));
        if (comma == std::string::npos) break;
        rest.erase(0, comma + 1);
      }
    } else if (arg == "--n") {
      config.replication_factor = std::atoi(v);
    } else if (arg == "--w") {
      config.write_quorum = std::atoi(v);
    } else if (arg == "--r") {
      config.read_quorum = std::atoi(v);
    } else if (arg == "--shards") {
      config.shards = std::atoi(v);
    } else if (arg == "--gossip-ms") {
      config.gossip.interval = std::atoll(v) * kMicrosPerMilli;
    } else if (arg == "--op-timeout-ms") {
      config.put_timeout = std::atoll(v) * kMicrosPerMilli;
      config.get_timeout = config.put_timeout;
    } else if (arg == "--seed-rng") {
      rng_seed = std::strtoull(v, nullptr, 10);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (self.empty() || !have_listen || peers.empty()) {
    Usage(argv[0]);
    return 2;
  }

  // Static membership from --peer; every other peer is a transport address.
  cluster::NodeSpec self_spec;
  bool self_listed = false;
  net::TcpTransportConfig tconfig;
  tconfig.listen_host = listen.host;
  tconfig.listen_port = listen.port;
  for (const auto& [name, hp] : peers) {
    cluster::NodeSpec spec;
    spec.address = name;
    for (const std::string& seed : seeds) {
      if (seed == name) spec.is_seed = true;
    }
    config.nodes.push_back(spec);
    if (name == self) {
      self_spec = spec;
      self_listed = true;
    } else {
      tconfig.peers[name] = net::TcpPeer{hp.host, hp.port};
    }
  }
  if (!self_listed) {
    std::fprintf(stderr, "hotmand: --node %s is not in the --peer list\n",
                 self.c_str());
    return 2;
  }
  if (seeds.empty()) {
    // Single defaulted seed: the first peer, on every member identically.
    config.nodes.front().is_seed = true;
    if (config.nodes.front().address == self) self_spec.is_seed = true;
  }
  if (Status v = config.Validate(); !v.ok()) {
    std::fprintf(stderr, "hotmand: bad cluster config: %s\n",
                 v.ToString().c_str());
    return 2;
  }

  // Shard-per-core runtime: the transport's event loop is shard 0 (gossip,
  // membership, the wire protocol); reactors 1..S-1 carry the keyed
  // coordinator/replica work, routed by ring position.
  core::NodeHost host(self_spec, config, std::move(tconfig), rng_seed);
  if (Status s = host.Start(); !s.ok()) {
    std::fprintf(stderr, "hotmand: %s\n", s.message().c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::fprintf(stderr,
               "hotmand: %s serving on %s:%u (N=%d W=%d R=%d shards=%d)\n",
               self.c_str(), listen.host.c_str(), host.transport()->listen_port(),
               config.replication_factor, config.write_quorum,
               config.read_quorum, config.shards);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "hotmand: %s shutting down\n", self.c_str());
  host.Stop();
  return 0;
}
