#ifndef HOTMAN_CORE_NODE_HOST_H_
#define HOTMAN_CORE_NODE_HOST_H_

#include <cstdint>
#include <memory>

#include "cluster/config.h"
#include "cluster/node_server.h"
#include "cluster/storage_node.h"
#include "common/status.h"
#include "net/sharded_executor.h"
#include "net/tcp_transport.h"

namespace hotman::core {

/// One storage node on the runtime `hotmand` ships: a TcpTransport, a
/// threaded ShardedExecutor whose shard 0 is the transport's loop, the
/// StorageNode and its client-facing NodeServer, and the one place that
/// knows the order they start and stop in. Start() and Stop() block while
/// shard 0 runs the node's own Start() and Stop(), so call them from a
/// thread outside every shard (main, a test body).
class NodeHost {
 public:
  /// `self` must be one of `config.nodes`; `transport_config` holds the
  /// listen address and every other member's.
  NodeHost(const cluster::NodeSpec& self, const cluster::ClusterConfig& config,
           net::TcpTransportConfig transport_config, std::uint64_t rng_seed);
  /// Stops, if running.
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Transport Start() (binds the listener) -> ShardedExecutor Launch()
  /// (adopts the live loop as shard 0) -> StorageNode and NodeServer ->
  /// node->Start() on shard 0. The node exists only from here on. Fails
  /// once called, and stops what it started when a step fails.
  Status Start();

  /// node->Stop() on shard 0 -> Shutdown() -> transport Stop(). Every
  /// object stays in place, so counters stay readable until destruction.
  /// Idempotent; terminal.
  void Stop();

  net::TcpTransport* transport() { return &transport_; }
  net::ShardedExecutor* sharded() { return &sharded_; }
  /// Null before Start().
  cluster::StorageNode* node() { return node_.get(); }

 private:
  enum class State { kIdle, kRunning, kStopped };

  const cluster::NodeSpec self_;
  const cluster::ClusterConfig config_;
  const std::uint64_t rng_seed_;
  net::TcpTransport transport_;
  net::ShardedExecutor sharded_;
  std::unique_ptr<cluster::StorageNode> node_;
  std::unique_ptr<cluster::NodeServer> server_;
  State state_ = State::kIdle;
};

}  // namespace hotman::core

#endif  // HOTMAN_CORE_NODE_HOST_H_
