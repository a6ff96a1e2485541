#ifndef HOTMAN_CLUSTER_CONFIG_H_
#define HOTMAN_CLUSTER_CONFIG_H_

#include <string>
#include <vector>

#include "cluster/heat_tracker.h"
#include "common/status.h"
#include "gossip/failure_detector.h"
#include "gossip/gossiper.h"
#include "rebalance/rebalancer.h"

namespace hotman::cluster {

/// Declaration of one physical storage node.
struct NodeSpec {
  std::string address;  ///< e.g. "db1:19870"
  int vnodes = 128;     ///< virtual nodes ∝ node capability (§5.2.1)
  bool is_seed = false;
  /// Capacity weight (DynoStore-style heterogeneous placement): the node
  /// takes `vnodes * capacity` ring points, so a half-size box owns half
  /// the keyspace share. 1.0 keeps the homogeneous default.
  double capacity = 1.0;
};

/// Ring points `spec` contributes: its vnode base scaled by its capacity
/// weight (at least 1 so every node owns something).
int EffectiveVnodes(const NodeSpec& spec);

/// How long a key stays dirty (no fast read) after a write that did not
/// settle on all N holders: some holder may still be catching up via read
/// repair or anti-entropy, and quorum reads keep repair pressure on it
/// meanwhile.
inline constexpr Micros kFastReadQuiescence = 3 * kMicrosPerSecond;

/// Whole-cluster configuration. Defaults mirror the paper's evaluation
/// setup: (N, W, R) = (3, 2, 1) on five DB nodes (§6.2), Netty-port-style
/// addresses, and Table 1's software parameters where they are meaningful
/// to the model.
struct ClusterConfig {
  // --- NWR replication (§5.2.2) ---
  int replication_factor = 3;  ///< N
  int write_quorum = 2;        ///< W
  int read_quorum = 1;         ///< R

  // --- membership ---
  std::vector<NodeSpec> nodes;

  // --- shard-per-core runtime ---
  /// Internal shards per node (net::ShardedExecutor). Each shard owns a
  /// contiguous arc of the hash-point space and all coordinator/replica
  /// state for its keys; 1 keeps the classic single-reactor node. Capped
  /// at 64 by the request-id shard tag (StorageNode::kShardBits).
  int shards = 1;

  // --- timeouts ---
  Micros put_timeout = 800 * kMicrosPerMilli;
  Micros get_timeout = 800 * kMicrosPerMilli;

  // --- failure handling ---
  bool hinted_handoff = true;       ///< short-failure handling (Fig. 8)
  bool read_repair = true;          ///< replica supplementation on Get

  // --- fast consistent reads (Harmonia-style dirty-set read path) ---
  /// Serve reads of *clean* keys (no write in flight or recently unsettled
  /// at this coordinator) with a single replica read at the key's primary
  /// holder instead of the full R-quorum fan-out. To keep the quorum
  /// intersection, writes are then primary-anchored: in strict mode
  /// (hinted_handoff off) a write only succeeds once the primary acked, so
  /// every completed write set contains the primary and the one-replica
  /// read set {primary} intersects it. Dirty keys, a suspected/missing
  /// primary, and single-replica misses/errors/timeouts all fall back to
  /// the R-quorum path.
  bool fast_reads = false;

  // --- hot-spot taming under skew (AutoShard-style heat tracking) ---
  /// Every coordinated op records its key in a shard-local space-saving
  /// sketch (cluster/heat_tracker.h), merged across shards into /stats
  /// `heat.*`; cheap (bounded counters, no allocation on the steady path).
  /// Sketch shape and hot thresholds (capacity, decay half-life, qps bar).
  HeatConfig heat;
  /// Act on heat in the read path: reads of *hot, clean* keys rotate their
  /// payload read across the key's non-primary replicas (round-robin)
  /// instead of anchoring the primary, verified by a version digest probe
  /// to the primary — the coordinator serves the replica's value only when
  /// its (_ts, _origin) exactly matches the primary's current version, and
  /// demotes to the R-quorum path otherwise. The served version is
  /// therefore always the primary's version, so the PR 6 intersection
  /// argument is untouched; the payload service load spreads across N
  /// nodes while the primary only answers tiny metadata probes. Requires
  /// fast_reads (the hot path is a refinement of the clean-key fast path).
  bool hot_reads = false;

  // --- chaos negative controls (test-only; see src/chaos/) ---
  /// Address of a replica that acknowledges every replica write (each
  /// record StorageNode::ApplyReplica takes) *without applying it* — a
  /// deliberately broken node that makes write quorums lie. Used by the
  /// negative-control chaos tests to prove the offline consistency checker
  /// detects lost updates and stale reads; must stay empty everywhere else.
  std::string chaos_lying_replica;
  /// Disables the ownership sweep's purge of migrated-away records (the
  /// push-before-purge half still runs). Negative control proving the
  /// chaos orphan-replica check has teeth; must stay false everywhere else.
  bool chaos_skip_ownership_purge = false;

  // --- anti-entropy (future-work extension: background consistency) ---
  /// When enabled, every node periodically exchanges record digests with a
  /// random ring peer and pushes/pulls whatever last-write-wins says the
  /// other side is missing — repairing divergence without waiting for reads.
  bool anti_entropy = false;
  Micros anti_entropy_interval = 10 * kMicrosPerSecond;

  // --- elastic membership (src/rebalance/) ---
  /// Live data movement on join/decommission/reweight: the throttle
  /// shared by every node.
  rebalance::RebalanceConfig rebalance;

  // --- substrates ---
  gossip::GossipConfig gossip;
  gossip::FailureDetector::Config detector;

  /// Validates quorum arithmetic and membership (W <= N, R <= N, at least
  /// one node, N >= 1, at least one seed when >1 node).
  Status Validate() const;

  /// Convenience: `count` uniform nodes "db1".."dbN", first `seeds` of them
  /// seeds, with the paper's default parameters.
  static ClusterConfig Uniform(int count, int seeds = 1, int vnodes = 128);

  /// The paper's five-node evaluation topology: one seed DB node plus four
  /// normal DB nodes, (N,W,R)=(3,2,1).
  static ClusterConfig PaperSetup() { return Uniform(5, /*seeds=*/1); }
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_CONFIG_H_
