#ifndef HOTMAN_CLUSTER_NODE_SERVER_H_
#define HOTMAN_CLUSTER_NODE_SERVER_H_

#include <string>

#include "cluster/storage_node.h"
#include "net/client_proto.h"
#include "net/transport.h"

namespace hotman::cluster {

/// Client-facing request surface of one hosted StorageNode: decodes
/// client_put/get/delete/stats frames, drives the node's coordinator API
/// and routes the ack back to the requesting endpoint (`msg.from`).
///
/// This is the piece that turns a StorageNode into a *server*: `hotmand`
/// instantiates one per process over a TcpTransport, and the loopback
/// integration test talks to it with net::RemoteClient. It works over any
/// Transport, so tests can also exercise it in simulation.
///
/// Handlers run on the transport's event thread, like every other node
/// handler; attach (Start) before traffic arrives.
class NodeServer {
 public:
  NodeServer(StorageNode* node, net::Transport* transport);

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Registers the client_* handlers on the node's dispatcher.
  void Start();

 private:
  void HandleClientPut(const net::Message& msg);
  void HandleClientGet(const net::Message& msg);
  void HandleClientDelete(const net::Message& msg);
  void HandleClientStats(const net::Message& msg);
  void HandleClientJoin(const net::Message& msg);
  void HandleClientDecommission(const net::Message& msg);
  void HandleClientRebalanceStatus(const net::Message& msg);

  /// The node's metrics snapshot (the /stats JSON): StorageNode::ExportStats,
  /// the node's heat.*, the client_* request counts, the transport's net.*
  /// and the shard runtime's sharded.*.
  std::string StatsJson() const;

  void Reply(const std::string& to, const char* type, bson::Document body);

  StorageNode* node_;
  net::Transport* transport_;
  std::size_t client_puts_ = 0;
  std::size_t client_gets_ = 0;
  std::size_t client_deletes_ = 0;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_NODE_SERVER_H_
