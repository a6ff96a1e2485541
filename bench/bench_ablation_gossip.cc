// Ablation: gossip parameters (§5.2.3) — interval, fanout and seed bias
// versus (a) membership convergence time for a late joiner's state and
// (b) message cost per node per second.

#include <memory>

#include "bench_common.h"
#include "bson/codec.h"
#include "gossip/gossiper.h"
#include "sim/network.h"

using namespace hotman;  // NOLINT

namespace {

struct GossipResult {
  double convergence_s = -1;  ///< time until all nodes saw the new state
  double msgs_per_node_s = 0;
};

GossipResult RunGossip(int nodes, int seeds, gossip::GossipConfig config,
                       std::uint64_t seed) {
  sim::EventLoop loop;
  sim::SimNetwork network(&loop, sim::NetworkConfig{}, seed);
  std::vector<std::unique_ptr<gossip::Gossiper>> gossipers;
  std::vector<std::string> seed_names;
  for (int i = 0; i < seeds; ++i) seed_names.push_back("n" + std::to_string(i));

  for (int i = 0; i < nodes; ++i) {
    const std::string name = "n" + std::to_string(i);
    auto gossiper = std::make_unique<gossip::Gossiper>(
        name, seed_names, i < seeds, &loop, config, seed + i,
        [&network, name](const std::string& to, const std::string& type,
                         bson::Document body) {
          sim::Message msg;
          msg.from = name;
          msg.to = to;
          msg.type = type;
          const std::size_t bytes = bson::EncodedSize(body);
          msg.body = std::move(body);
          network.Send(std::move(msg), bytes);
        });
    gossip::Gossiper* raw = gossiper.get();
    network.RegisterEndpoint(name, [raw](const sim::Message& msg) {
      if (msg.type == gossip::kMsgGossipSyn) {
        raw->HandleSyn(msg.from, msg.body);
      } else if (msg.type == gossip::kMsgGossipAck1) {
        raw->HandleAck1(msg.from, msg.body);
      } else if (msg.type == gossip::kMsgGossipAck2) {
        raw->HandleAck2(msg.from, msg.body);
      }
    });
    gossiper->Boot(1);
    gossiper->Start();
    gossipers.push_back(std::move(gossiper));
  }
  loop.RunFor(10 * kMicrosPerSecond);  // membership warm-up

  // Inject a fresh state at node 0 and time full propagation.
  const Micros t0 = loop.Now();
  gossipers[0]->SetLocalState("marker", "sentinel");
  const std::size_t msgs_before = network.stats().frames_sent;
  GossipResult result;
  for (int tick = 0; tick < 600; ++tick) {
    loop.RunFor(100 * kMicrosPerMilli);
    bool everyone = true;
    for (const auto& g : gossipers) {
      const gossip::EndpointState* state = g->states().Get("n0");
      const gossip::VersionedEntry* entry =
          state != nullptr ? state->GetEntry("marker") : nullptr;
      if (entry == nullptr || entry->value != "sentinel") {
        everyone = false;
        break;
      }
    }
    if (everyone) {
      result.convergence_s =
          static_cast<double>(loop.Now() - t0) / kMicrosPerSecond;
      break;
    }
  }
  const double elapsed_s = static_cast<double>(loop.Now() - t0) / kMicrosPerSecond;
  result.msgs_per_node_s =
      static_cast<double>(network.stats().frames_sent - msgs_before) /
      std::max(0.1, elapsed_s) / nodes;
  return result;
}

}  // namespace

int main() {
  bench::Header("Ablation", "gossip interval / fanout / seed bias vs convergence");
  const int kNodes = 24;
  const int kSeeds = 3;
  std::printf("cluster: %d nodes, %d seeds; marker injected at n0\n\n", kNodes,
              kSeeds);

  bench::Row({"interval", "fanout", "seed bias", "converge s", "msgs/node/s"});
  const struct {
    Micros interval;
    int fanout;
    double bias;
  } sweeps[] = {
      {2 * kMicrosPerSecond, 1, 0.6}, {1 * kMicrosPerSecond, 1, 0.6},
      {500 * kMicrosPerMilli, 1, 0.6}, {1 * kMicrosPerSecond, 2, 0.6},
      {1 * kMicrosPerSecond, 3, 0.6},  {1 * kMicrosPerSecond, 1, 0.0},
      {1 * kMicrosPerSecond, 1, 0.9},
  };
  for (const auto& sweep : sweeps) {
    gossip::GossipConfig config;
    config.interval = sweep.interval;
    config.fanout = sweep.fanout;
    config.seed_bias = sweep.bias;
    GossipResult result = RunGossip(kNodes, kSeeds, config, 33);
    bench::Row({bench::Fmt(sweep.interval / 1.0e6, 1) + "s",
                std::to_string(sweep.fanout), bench::Fmt(sweep.bias, 1),
                result.convergence_s < 0 ? "never"
                                         : bench::Fmt(result.convergence_s, 1),
                bench::Fmt(result.msgs_per_node_s, 1)});
  }

  bench::Section("expected shapes");
  std::printf("- shorter interval or higher fanout converges faster but costs\n");
  std::printf("  proportionally more messages per node\n");
  std::printf("- seed bias trades uniform mixing for faster hub dissemination\n");
  return 0;
}
