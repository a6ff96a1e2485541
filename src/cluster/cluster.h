#ifndef HOTMAN_CLUSTER_CLUSTER_H_
#define HOTMAN_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/storage_node.h"
#include "net/sim_transport.h"
#include "sim/event_loop.h"
#include "sim/failure_injector.h"

namespace hotman::cluster {

/// The whole MyStore data storage module: an event loop, a simulated LAN
/// (behind the net::Transport seam), a failure injector and one StorageNode
/// per configured server.
///
/// This is the top-level object experiments and examples instantiate. It
/// offers both the asynchronous client API (callbacks, for workload
/// drivers that multiplex thousands of clients) and blocking convenience
/// wrappers that pump the event loop until completion (for examples and
/// tests).
class Cluster {
 public:
  /// `failure_config` defaults to no injected faults.
  Cluster(ClusterConfig config, std::uint64_t seed,
          sim::FailureConfig failure_config = sim::FailureConfig::None());
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Boots every node and runs the loop briefly so gossip stabilizes.
  Status Start();

  // --- client API -----------------------------------------------------------

  /// Any node can coordinate; this picks one round-robin ("clients can
  /// connect to any node in the system").
  StorageNode* AnyCoordinator();

  /// The node owning `key` (closest coordinator for the read path).
  StorageNode* CoordinatorFor(const std::string& key);

  /// Async operations through a round-robin coordinator.
  void Put(const std::string& key, Bytes value, PutCallback cb);
  void Get(const std::string& key, GetCallback cb);
  void Delete(const std::string& key, PutCallback cb);

  /// Blocking wrappers: drive the event loop until the callback fires.
  Status PutSync(const std::string& key, Bytes value);
  Result<Bytes> GetSync(const std::string& key);  ///< NotFound on tombstones
  Status DeleteSync(const std::string& key);

  // --- membership ------------------------------------------------------------

  /// Boots a brand-new node and lets the membership protocol integrate it;
  /// keys migrate to it automatically (streamed by the rebalancer), and the
  /// loop is pumped briefly so gossip settles.
  Status AddNode(const NodeSpec& spec);

  /// AddNode without pumping the loop — for callers already inside a loop
  /// event (the chaos nemesis), where re-entrant pumping is illegal.
  Status AddNodeAsync(const NodeSpec& spec);

  /// Hard-crashes `address` (long failure): the node goes silent until the
  /// seeds detect it and trigger repair.
  Status CrashNode(const std::string& address);

  /// Brings a crashed node back. With `lose_state` the node returns as a
  /// blank replacement — its replica store and hint ledger are wiped first
  /// (the disk died with the process); otherwise it resumes with whatever
  /// it held at crash time. Either way it is re-integrated into every
  /// member's ring so migration and anti-entropy bring it up to date.
  /// The chaos nemesis drives repeated crash/restart cycles through this.
  Status RestartNode(const std::string& address, bool lose_state);

  /// Graceful removal: decommissions the node — it streams every arc it
  /// holds to the members that inherit it *before* announcing departure and
  /// stopping, so no key drops below N replicas at any point. Pumps the
  /// loop until the decommission completes (or a generous virtual-time
  /// budget runs out). Falls back to the abrupt path when the node is not
  /// running.
  Status RemoveNode(const std::string& address);

  /// Abrupt removal: stop the node first, then announce its departure —
  /// explicitly *crash* semantics (survivors re-replicate from their own
  /// copies; any write only the departed node held is lost).
  Status RemoveNodeAbrupt(const std::string& address);

  /// Starts a graceful decommission without pumping the loop — for callers
  /// already inside a loop event (the chaos nemesis). `done` (optional)
  /// fires when the node has left the ring.
  Status DecommissionNodeAsync(const std::string& address,
                               std::function<void(const Status&)> done = nullptr);

  // --- plumbing ---------------------------------------------------------------

  sim::EventLoop* loop() { return &loop_; }
  /// The simulated transport, exposing the fault-injection surface
  /// (PartitionLink/Disconnect/...) experiments drive.
  net::SimTransport* network() { return &transport_; }
  sim::FailureInjector* injector() { return &injector_; }
  const ClusterConfig& config() const { return config_; }

  StorageNode* node(const std::string& address);
  std::vector<StorageNode*> nodes();

  /// Runs the loop for `duration` of virtual time (convenience).
  void RunFor(Micros duration) { loop_.RunFor(duration); }

  /// Total records stored across all nodes (replicas included).
  std::size_t TotalReplicas();

  /// Aggregated stats over all nodes.
  NodeStats AggregateStats();

  /// Aggregated rebalancer counters over all nodes (the /stats
  /// "rebalance.*" section).
  rebalance::RebalanceStats AggregateRebalanceStats();

  /// Cluster-wide metrics snapshot as JSON (the /stats "cluster" section):
  /// every node's StorageNode::ExportStats summed (the AggregateStats
  /// counters, AggregateRebalanceStats as rebalance.*, latency and replica
  /// station histograms), heat.* over the merged heat snapshots, the
  /// transport's net.*, and the `nodes` and `virtual_now_us` gauges.
  std::string StatsJson();

  /// The most recent `limit` trace records across all coordinators,
  /// ordered by finish time (oldest first).
  std::vector<metrics::TraceRecord> RecentTraces(std::size_t limit = 32);

 private:
  /// Re-integrates a node whose breakdown was repaired (the injector's
  /// rejoin path): every member re-adds it to their ring and migration
  /// brings its data back up to date.
  void RejoinNode(const std::string& address);

  ClusterConfig config_;
  sim::EventLoop loop_;
  net::SimTransport transport_;
  sim::FailureInjector injector_;
  std::map<std::string, std::unique_ptr<StorageNode>> nodes_;
  std::vector<std::string> node_order_;
  std::size_t rr_next_ = 0;
  std::uint64_t seed_;
  bool started_ = false;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_CLUSTER_H_
