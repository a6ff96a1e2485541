#include "core/node_host.h"

#include <utility>

namespace hotman::core {

NodeHost::NodeHost(const cluster::NodeSpec& self,
                   const cluster::ClusterConfig& config,
                   net::TcpTransportConfig transport_config,
                   std::uint64_t rng_seed)
    : self_(self),
      config_(config),
      rng_seed_(rng_seed),
      transport_(std::move(transport_config)),
      sharded_(&transport_, net::ShardedExecutorConfig{.shards = config.shards}) {}

NodeHost::~NodeHost() { Stop(); }

Status NodeHost::Start() {
  if (state_ != State::kIdle) {
    return Status::AlreadyExists("node host already started");
  }
  state_ = State::kStopped;  // unless every step below succeeds
  if (Status s = transport_.Start(); !s.ok()) {
    return Status::IOError("transport start failed: " + s.ToString());
  }
  // The reactors must exist before the node captures its per-shard
  // executors, and the loop must be running so Launch() can tag it as
  // shard 0.
  if (Status s = sharded_.Launch(); !s.ok()) {
    transport_.Stop();
    return Status::IOError("shard reactors failed to start: " + s.ToString());
  }
  // Safe to construct with the loop live: no frame reaches the node before
  // the RegisterEndpoint inside node_->Start().
  node_ = std::make_unique<cluster::StorageNode>(
      self_, config_, &transport_, /*injector=*/nullptr, rng_seed_, &sharded_);
  server_ = std::make_unique<cluster::NodeServer>(node_.get(), &transport_);
  server_->Start();
  sharded_.PostSync(0, [this] { node_->Start(); });
  state_ = State::kRunning;
  return Status::OK();
}

void NodeHost::Stop() {
  if (state_ != State::kRunning) return;
  state_ = State::kStopped;
  sharded_.PostSync(0, [this] { node_->Stop(); });
  sharded_.Shutdown();
  transport_.Stop();
}

}  // namespace hotman::core
