#ifndef HOTMAN_CLUSTER_STORAGE_NODE_H_
#define HOTMAN_CLUSTER_STORAGE_NODE_H_

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/hinted_handoff.h"
#include "cluster/messages.h"
#include "cluster/read_plan.h"
#include "cluster/replica_store.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "core/record.h"
#include "docstore/server.h"
#include "gossip/failure_detector.h"
#include "gossip/gossiper.h"
#include "hashring/ketama.h"
#include "hashring/ring.h"
#include "net/sharded_executor.h"
#include "net/transport.h"
#include "rebalance/rebalancer.h"
#include "sim/failure_injector.h"
#include "sim/service_station.h"

namespace hotman::cluster {

/// Completion callback of a coordinated write (Put or logical Delete).
using PutCallback = std::function<void(const Status&)>;
/// Completion callback of a coordinated read; on success carries the full
/// record document (callers check the isDel tombstone flag).
using GetCallback = std::function<void(const Result<bson::Document>&)>;

/// Operation counters exposed for experiments and /stats. Each is a plain
/// shard-local integer (`++ss.stats.x`), named once in kNodeCounters.
struct NodeStats {
  std::size_t puts_coordinated = 0;
  std::size_t puts_succeeded = 0;
  std::size_t puts_failed = 0;
  std::size_t gets_coordinated = 0;
  std::size_t gets_succeeded = 0;
  std::size_t gets_failed = 0;
  std::size_t replica_puts_applied = 0;  ///< puts, write-backs, hint stores, range pushes
  std::size_t replica_gets_served = 0;
  std::size_t handoff_writes = 0;       ///< writes redirected to a temp node
  std::size_t hints_delivered = 0;      ///< write-backs acknowledged
  std::size_t read_repairs = 0;         ///< replicas supplemented after Get
  std::size_t read_repairs_skipped_dead = 0;  ///< repairs withheld from dead nodes
  std::size_t read_probes = 0;          ///< version probes after in-place reads
  std::size_t fast_read_hits = 0;       ///< reads served by a single replica
  std::size_t fast_read_fallbacks = 0;  ///< fast path refused at issue time
  std::size_t fast_read_demotions = 0;  ///< fast attempt failed, re-ran as quorum
  std::size_t hot_gets_fanned = 0;      ///< hot-key reads sent to a rotated replica
  std::size_t hot_read_hits = 0;        ///< fanned reads served digest-verified
  std::size_t hot_read_demotions = 0;   ///< fanned reads demoted to the quorum path
  std::size_t replica_digests_served = 0;  ///< digest_only probes answered
  std::size_t get_acks_corrupt = 0;     ///< undecodable get acks from known targets
  std::size_t rereplications = 0;       ///< records re-pushed on ring change
  std::size_t rebalance_purges = 0;     ///< unowned records dropped by the sweep
  std::size_t ae_rounds = 0;            ///< anti-entropy exchanges initiated
  std::size_t ae_pushed = 0;            ///< records pushed by anti-entropy
  std::size_t ae_requested = 0;         ///< records pulled by anti-entropy

  /// Field-wise sum (merging per-shard counters), over kNodeCounters.
  void MergeFrom(const NodeStats& other);
};

/// The /stats name of one NodeStats field.
struct NodeCounter {
  const char* name;
  std::size_t NodeStats::*field;
};

/// Every NodeStats field with its /stats name: MergeFrom and
/// StorageNode::ExportStats loop over this, so a new counter is one field
/// plus one row (the static_assert rejects a field without a row).
inline constexpr NodeCounter kNodeCounters[] = {
    {"puts_coordinated", &NodeStats::puts_coordinated},
    {"puts_succeeded", &NodeStats::puts_succeeded},
    {"puts_failed", &NodeStats::puts_failed},
    {"gets_coordinated", &NodeStats::gets_coordinated},
    {"gets_succeeded", &NodeStats::gets_succeeded},
    {"gets_failed", &NodeStats::gets_failed},
    {"replica_puts_applied", &NodeStats::replica_puts_applied},
    {"replica_gets_served", &NodeStats::replica_gets_served},
    {"handoff_writes", &NodeStats::handoff_writes},
    {"hints_delivered", &NodeStats::hints_delivered},
    {"read_repairs", &NodeStats::read_repairs},
    {"read_repairs_skipped_dead", &NodeStats::read_repairs_skipped_dead},
    {"read_probes", &NodeStats::read_probes},
    {"fast_read_hits", &NodeStats::fast_read_hits},
    {"fast_read_fallbacks", &NodeStats::fast_read_fallbacks},
    {"fast_read_demotions", &NodeStats::fast_read_demotions},
    {"hot_gets_fanned", &NodeStats::hot_gets_fanned},
    {"hot_read_hits", &NodeStats::hot_read_hits},
    {"hot_read_demotions", &NodeStats::hot_read_demotions},
    {"replica_digests_served", &NodeStats::replica_digests_served},
    {"get_acks_corrupt", &NodeStats::get_acks_corrupt},
    {"rereplications", &NodeStats::rereplications},
    {"rebalance_purges", &NodeStats::rebalance_purges},
    {"ae_rounds", &NodeStats::ae_rounds},
    {"ae_pushed", &NodeStats::ae_pushed},
    {"ae_requested", &NodeStats::ae_requested},
};
static_assert(sizeof(NodeStats) == std::size(kNodeCounters) * sizeof(std::size_t),
              "every NodeStats field needs a kNodeCounters row");

/// One storage node of the MyStore data storage module (§5.1):
///  - the *lower layer* is the embedded MongoDB-like engine
///    (docstore::DocStoreServer + ReplicaStore with the record schema);
///  - the *middle layer* is this class: the normal message handling process
///    (put/get replica traffic), the abnormal event handling process
///    (nacks, timeouts, hinted handoff, long-failure repair) and the
///    synchronization message process (gossip + membership notices);
///  - the *upper layer* is any net::Transport: the deterministic simulator
///    in experiments, real TCP in the `hotmand` daemon (the paper's Netty
///    role).
///
/// Every node can coordinate client requests ("clients can connect to any
/// node in the system to get/put data").
///
/// ### Shard-per-core runtime
///
/// The node is internally partitioned into `config.shards` shards, each
/// owning a contiguous arc of the consistent-hash point space
/// (net::ShardedExecutor::ShardForPoint). All *keyed* coordinator and
/// replica state — the pending put/get tables, the dirty set, the hint
/// ledger, the replica store partition, per-op timers, stats, histograms
/// and traces — is shard-local and only ever touched in that shard's
/// execution context (net::ShardContext). Requests hop between shards via
/// RunOnShard (SPSC mailboxes when threaded, deterministic zero-delay
/// events in simulation); request ids carry their home shard in the low
/// kShardBits so acks route back without any shared lookup. Shard 0 is the
/// system shard: gossip, the failure detector, membership and anti-entropy
/// stay there, and it broadcasts ring/liveness snapshots to the other
/// shards on every change.
class StorageNode {
 public:
  /// Bits of a request id reserved for the originating shard (so acks
  /// route home without shared state). Caps shards at 64 per node.
  static constexpr int kShardBits = 6;
  static constexpr std::uint64_t kShardMask = (1u << kShardBits) - 1;

  /// `transport` carries messages and timers; `injector` may be null
  /// (no fault injection — the real daemon). `sharded` may be null: the
  /// node then builds its own non-threaded (deterministic) shard runtime
  /// over `transport` with `config.shards` shards. The real daemon passes
  /// a started threaded ShardedExecutor instead.
  StorageNode(const NodeSpec& spec, const ClusterConfig& config,
              net::Transport* transport, sim::FailureInjector* injector,
              std::uint64_t rng_seed, net::ShardedExecutor* sharded = nullptr);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Registers with the transport, builds the initial ring from the static
  /// configuration, boots gossip + the failure detector + the hint
  /// write-back timer.
  void Start();

  /// Graceful stop: unregisters from the network and stops timers.
  void Stop();

  // --- client (coordinator) API -------------------------------------------

  /// Coordinates a write of (key, value): builds the record, replicates to
  /// the N preference nodes, succeeds at W acks (§5.2.2). Runs on the
  /// key's shard; `cb` fires in that shard's context.
  void CoordinatePut(const std::string& key, Bytes value, PutCallback cb);

  /// Logical delete: a tombstone write (isDel=1) through the same quorum.
  void CoordinateDelete(const std::string& key, PutCallback cb);

  /// Coordinates a read: queries the N preference nodes, succeeds at R
  /// responses, reconciles last-write-wins, then supplements stale or
  /// missing replicas (read repair). An R=1 read that this node's own
  /// replica answers in place asks the other replicas only to compare
  /// versions (see IssueRead).
  void CoordinateGet(const std::string& key, GetCallback cb);

  // --- membership ----------------------------------------------------------

  /// Applies a node-removed notice: drops the node from the ring and
  /// re-replicates local data so every record regains N replicas (Fig. 9).
  void OnNodeRemoved(const std::string& node);

  /// Applies a node-added notice: adds the node to the ring and migrates
  /// the keys that now belong to it.
  void OnNodeAdded(const std::string& node, int vnodes);

  /// Seed-side: broadcasts a node_removed notice to every known endpoint
  /// and applies it locally.
  void AnnounceRemoval(const std::string& node);

  /// Admin-side (hotman_ctl join): broadcasts a node_added notice to every
  /// ring member and applies it locally, so an operator can introduce a
  /// node through any coordinator instead of waiting for gossip.
  void AnnounceAddition(const std::string& node, int vnodes);

  // --- elastic membership (src/rebalance/) --------------------------------

  /// Graceful leave: marks this node LEAVING in gossip, streams every arc
  /// it holds to the nodes that inherit it (throttled, resumable), then
  /// announces its own removal and stops. `done` fires once the node has
  /// left the ring (Status::OK) or the decommission could not start.
  /// Abrupt departure — just Stop()/crash — remains available as explicit
  /// crash semantics: survivors then re-replicate from their own copies.
  void StartDecommission(std::function<void(const Status&)> done);

  /// Drops every local record this node no longer owns under the current
  /// ring (keys inside arcs still being streamed out are deferred to the
  /// transfer's completion). With `push_before_purge` each dropped record
  /// is first re-pushed to its preference holders — the rejoin path uses
  /// that to hand back writes it alone may hold.
  void RunOwnershipSweep(bool push_before_purge);

  /// Schedules RunOwnershipSweep after `delay` (coalesced: at most one
  /// pending sweep; a push-before-purge request wins over a purge-only one).
  void ScheduleOwnershipSweep(bool push_before_purge, Micros delay);

  bool running() const { return running_; }
  /// True from StartDecommission until the node leaves the ring.
  bool decommissioning() const { return decommissioning_; }
  /// True once a graceful decommission completed and the node stopped.
  bool decommissioned() const { return decommissioned_; }

  /// The cluster configuration this node was booted with (defaults for
  /// operator-driven joins: vnode count, rebalance throttle, ...).
  const ClusterConfig& config() const { return config_; }

  rebalance::Rebalancer* rebalancer() { return rebalancer_.get(); }
  /// Counters of the node's rebalancer (merged into /stats as rebalance.*).
  rebalance::RebalanceStats rebalance_stats() const {
    return rebalancer_->stats();
  }

  // --- anti-entropy (background consistency, future-work extension) ------

  /// One synchronization round with `peer`: sends a digest of every local
  /// record the peer should also hold; the peer pushes back newer versions
  /// and requests the ones it is missing. Normally driven by the periodic
  /// timer (config.anti_entropy); exposed for tests and ablations.
  void RunAntiEntropyRound(const std::string& peer);

  // --- introspection --------------------------------------------------------

  const std::string& id() const { return id_; }
  bool is_seed() const { return spec_.is_seed; }
  const hashring::Ring& ring() const { return ring_; }
  /// Shard partitioning of this node's key space.
  int num_shards() const { return sharded_->num_shards(); }
  /// Shard owning `key`: its ketama ring position, mapped onto the shard
  /// arcs (net/ stays hash-agnostic, so the hash happens here). A
  /// one-shard node owns every key without hashing it.
  int ShardOfKey(const std::string& key) const {
    const int shards = sharded_->num_shards();
    if (shards == 1) return 0;
    return net::ShardedExecutor::ShardForPoint(hashring::KetamaHash(key), shards);
  }
  /// Shard 0's replica store (the only one at shards = 1; multi-shard
  /// callers scan every shard via StoreOfShard).
  ReplicaStore* store() { return shards_[0]->store.get(); }
  /// The replica store partition of shard `shard`. Affine: the partition
  /// belongs to that shard's context; off-shard callers need a mailbox
  /// hop or a docstore-locked snapshot justification.
  ReplicaStore* StoreOfShard(int shard) HOTMAN_SHARD_AFFINE {
    return shards_[shard]->store.get();
  }
  /// The replica store partition owning `key` (affine, as above).
  ReplicaStore* StoreForKey(const std::string& key) HOTMAN_SHARD_AFFINE {
    return shards_[ShardOfKey(key)]->store.get();
  }
  /// Shard 0's hint ledger (the only one at shards = 1).
  HintStore* hints() { return &shards_[0]->hints; }
  HintStore* HintsOfShard(int shard) HOTMAN_SHARD_AFFINE {
    return &shards_[shard]->hints;
  }
  gossip::Gossiper* gossiper() { return gossiper_.get(); }
  gossip::FailureDetector* detector() { return detector_.get(); }
  docstore::DocStoreServer* server() { return server_.get(); }
  /// The node's message dispatcher. NodeServer attaches the client-facing
  /// handlers (client_put/get/...) here so one endpoint serves both cluster
  /// and client traffic.
  net::Dispatcher* dispatcher() { return &dispatcher_; }
  /// Merged per-shard operation counters (safe from any thread: shard
  /// counters are gathered in each shard's own context).
  NodeStats stats() const;

  /// Merged per-shard heat snapshot (top-k keys, qps, skew coefficient) at
  /// the transport's current time. Same cross-shard gather discipline as
  /// stats().
  HeatSnapshot heat_snapshot() const;

  /// Adds this node's metrics to `registry`: the kNodeCounters counters,
  /// the put/get, fast-get and quorum-get latency histograms (enqueue ->
  /// outcome callback), rebalance.* and, with a service station, its
  /// replica queue-wait and service histograms. One gather per shard, in
  /// that shard's own context. Counters add and histograms merge, so
  /// exporting every node into one registry gives cluster totals.
  void ExportStats(metrics::Registry* registry) const;

  /// Dirty-set introspection (tests + /stats): true when a read of `key`
  /// issued now would be eligible for the single-replica fast path as far
  /// as the dirty set is concerned. Lazily retires aged-out entries.
  /// Synchronizes with the key's shard.
  bool KeyIsClean(const std::string& key);
  std::size_t DirtyKeyCount() const;

  /// Recent per-request trace records coordinated by this node, merged
  /// across shards.
  std::vector<metrics::TraceRecord> TraceSnapshot() const;

  /// Chaos hook: offsets the timestamps this coordinator stamps into new
  /// records by `skew` (positive = clock runs fast). Models a node whose
  /// wall clock drifted — under last-write-wins that can reorder writes,
  /// which is exactly what the chaos convergence runs exercise. Zero
  /// restores an honest clock.
  void SetClockSkew(Micros skew) { clock_skew_ = skew; }
  Micros clock_skew() const { return clock_skew_; }

  /// The shard runtime in use (owned or injected).
  net::ShardedExecutor* sharded() { return sharded_; }

 private:
  /// What a pending coordinated put and a pending coordinated get both keep.
  struct PendingOp {
    std::string key;
    bool done = false;  ///< the caller has its answer
    net::TimerId timeout_event = 0;
    Micros started_at = 0;
    // Breakdown carried by the most recent successful reply (the decisive
    // one when the operation completes), for the trace record.
    Micros last_queue = 0;
    Micros last_service = 0;
    std::string last_replica;
  };

  /// One target of a put: a preference holder or a substitute.
  struct PutSlot {
    std::string node;
    bool answered = false;  ///< acked, nacked, or given up on
    bool ok = false;        ///< acked the write
  };

  struct PendingPut : PendingOp {
    bson::Document record;
    PutCallback cb;
    int needed = 0;
    int timeout_wave = 0;
    /// The first `preference` slots are the preference list in order, so
    /// slot 0 is the primary (it stores the original). TryHandoff appends
    /// each substitute it contacts: hold no slot reference across it.
    std::vector<PutSlot> slots;
    std::size_t preference = 0;
    net::TimerId cleanup_event = 0;

    /// Index of `node`'s slot; slots.size() when `node` is not a target.
    std::size_t SlotOf(const std::string& node) const {
      std::size_t index = 0;
      while (index < slots.size() && slots[index].node != node) ++index;
      return index;
    }
  };

  struct PendingGet : PendingOp {
    GetCallback cb;
    ReadPlan plan;
    ReadReplies replies;
  };

  /// Per-key write-activity entry backing the fast-read decision. A key is
  /// *clean* (single-replica readable) when it has no entry, and an entry
  /// is retired when its last write settled on every preference holder or
  /// the quiescence window elapsed with no further write.
  struct DirtyEntry {
    int inflight = 0;       ///< coordinated writes not yet fully decided
    Micros last_write = 0;  ///< most recent write activity on this key
    bool unsettled = false; ///< a decided write missed >= 1 preference holder
  };

  /// One shard's slice of the node: everything keyed work touches. Only
  /// ever accessed in the shard's execution context (its reactor thread in
  /// the real daemon; its ShardContext scope in simulation) — no locks.
  struct ShardState {
    int index = 0;
    /// The executor this shard's timers run on (the shard's reactor when
    /// threaded; the node's base transport otherwise).
    net::Executor* executor = nullptr;
    std::unique_ptr<ReplicaStore> store;
    HintStore hints;
    /// Shard-local membership view. Threaded shards > 0 work from ring /
    /// liveness snapshots broadcast by shard 0 on every change; shard 0
    /// (and every shard of the single-threaded runtime) reads the masters
    /// directly. An endpoint absent from `liveness` is kAlive, matching
    /// the failure detector's default for never-heard-of peers.
    hashring::Ring ring;
    std::map<std::string, gossip::Liveness> liveness;
    std::uint64_t next_seq = 1;
    /// The next request id: (next_seq << kShardBits) | index. Puts, gets
    /// and hints draw from it, so an ack for any of them routes home.
    std::uint64_t NextReq() {
      return (next_seq++ << kShardBits) | static_cast<std::uint64_t>(index);
    }
    std::map<std::uint64_t, PendingPut> pending_puts;
    std::map<std::uint64_t, PendingGet> pending_gets;
    std::map<std::string, DirtyEntry> dirty_keys;
    std::uint64_t dirty_sweep_countdown = 0;  ///< periodic expired-entry sweep
    /// Per-key operation heat of this shard's arc (space-saving sketch with
    /// exponential decay); feeds the hot-read rotation and /stats heat.*.
    HeatTracker heat;
    net::TimerId hint_timer = 0;
    NodeStats stats;
    /// Coordinated-op latency (enqueue -> outcome callback); reads also by
    /// the plan that answered them: a primary fast or hot read, or the
    /// R-quorum fan-out (demoted reads included).
    metrics::Histogram put_latency_hist;
    metrics::Histogram get_latency_hist;
    metrics::Histogram fast_get_latency_hist;
    metrics::Histogram quorum_get_latency_hist;
    metrics::TraceBuffer traces{256};
  };

  // Message plumbing. Handlers are registered per type on dispatcher_;
  // the transport invokes them on its event thread (= shard 0), and keyed
  // handlers immediately hop to the owning shard.
  void RegisterHandlers();
  void SendToNode(const std::string& to, const std::string& type,
                  bson::Document body);
  /// Runs `fn` in shard `shard`'s context (inline when already there).
  void RunOnShard(int shard, std::function<void()> fn);
  /// Shard that owns request id `req` (its low kShardBits).
  int ShardOfReq(std::uint64_t req) const {
    return static_cast<int>(req & kShardMask) % sharded_->num_shards();
  }
  /// Runs replica-side work through the ServiceStation when service-time
  /// modeling is on, or inline (zero modeled delay) when off. Returns
  /// false when the station shed the request.
  bool SubmitWork(std::size_t payload_bytes, sim::ServiceStation::Done done);

  /// Shard-local membership accessors (the snapshot story above).
  const hashring::Ring& RingOf(const ShardState& ss) const;
  gossip::Liveness LivenessOf(const ShardState& ss,
                              const std::string& node) const;
  /// Broadcasts the master ring / a liveness transition to threaded
  /// shards > 0. Shard-0 context only.
  void SyncShardRings();
  void SyncShardLiveness(const std::string& endpoint, gossip::Liveness to);

  // Replica-side handlers (the normal message handling process). Run on
  // the key's shard.
  void HandlePutReplica(ShardState& ss, const std::string& from,
                        PutReplicaMsg msg) HOTMAN_SHARD_AFFINE;
  void HandleGetReplica(ShardState& ss, const std::string& from,
                        GetReplicaMsg msg) HOTMAN_SHARD_AFFINE;
  /// The one apply of a record a peer sent: a put_replica, a hint_store or
  /// a rebalance push. Applies `record` to `ss`'s store partition (LWW) and
  /// returns the ack (the caller fills in the request id and the
  /// queue/service breakdown).
  PutAckMsg ApplyReplica(ShardState& ss,
                         const bson::Document& record) HOTMAN_SHARD_AFFINE;
  /// The replica work of a get_replica: the record of `key`, or with
  /// `digest_only` its (_ts, _origin) version alone, as an ack.
  GetAckMsg ReadReplica(ShardState& ss, const std::string& key,
                        bool digest_only) HOTMAN_SHARD_AFFINE;

  /// Whether a put_replica or get_replica to `target` is served in place:
  /// `target` is this node and the runtime is threaded. The coordinator
  /// then runs ApplyReplica / ReadReplica itself and hands the ack straight
  /// to HandlePutAck / HandleGetAck, which may conclude, retire or (a
  /// read) demote the op. The deterministic runtime keeps the loopback
  /// frame: its network model charges that hop, and the chaos history
  /// hashes depend on it.
  bool ServesInPlace(const std::string& target) const {
    return sharded_->threaded() && target == id_;
  }
  void HandleHintStore(ShardState& ss, const std::string& from,
                       HintStoreMsg msg) HOTMAN_SHARD_AFFINE;
  /// Sends `to` a replica copy of `record` as a put_replica with req 0:
  /// fire-and-forget, no ack; LWW makes a repeat harmless. Read repair,
  /// anti-entropy and the ownership sweep push through it.
  void PushCopy(const std::string& to, const bson::Document& record);

  // Coordinator-side handlers. Run on the request id's home shard.
  /// Counts the ack on its pending put; an ack that names no pending put
  /// may settle a hint instead (SettleHint).
  void HandlePutAck(ShardState& ss, const std::string& from,
                    PutAckMsg ack) HOTMAN_SHARD_AFFINE;
  void HandleGetAck(ShardState& ss, const std::string& from,
                    GetAckMsg ack) HOTMAN_SHARD_AFFINE;
  /// An undecodable get ack carries no request id, so every shard checks
  /// its own pending reads against the sender.
  void HandleCorruptGetAck(ShardState& ss,
                           const std::string& from) HOTMAN_SHARD_AFFINE;

  // Put state machine (all on the key's shard): StartPut fills the slots,
  // and every ack and timer firing updates them and calls AdvancePut.
  void StartPut(ShardState& ss, bson::Document record,
                PutCallback cb) HOTMAN_SHARD_AFFINE;
  /// Sends `put`'s put_replica to `target`: the original record to the
  /// primary, the replica copy to anyone else. `copy_body` caches the
  /// encoded copy across one fan-out.
  void SendPutReplica(std::uint64_t req, const PendingPut& put,
                      const std::string& target,
                      std::optional<bson::Document>* copy_body);
  /// Sends a hint for slot `failed` to the next ring node the put has not
  /// written to yet, and appends that node's slot.
  void TryHandoff(ShardState& ss, std::uint64_t req, PendingPut& put,
                  std::size_t failed) HOTMAN_SHARD_AFFINE;
  void OnPutTimeout(ShardState& ss, std::uint64_t req) HOTMAN_SHARD_AFFINE;
  /// Answers the caller once the slots decide the put, and retires it once
  /// every slot answered or the cleanup timer fired (`expired`).
  void AdvancePut(ShardState& ss, std::uint64_t req, PendingPut& put,
                  bool expired) HOTMAN_SHARD_AFFINE;

  // Get state machine. CoordinateGet picks a ReadPlan, IssueRead sends it,
  // and AdvanceRead applies DecideRead after every reply and the timeout.
  void IssueRead(ShardState& ss, const std::string& key, GetCallback cb,
                 Micros started_at, ReadPlan plan) HOTMAN_SHARD_AFFINE;
  /// Sends every other target of `get`, a read this node's own record
  /// answered, a partial ae_digest of that record's version.
  void ProbeReplicas(ShardState& ss, const PendingGet& get) HOTMAN_SHARD_AFFINE;
  /// Answers the caller, demotes, repairs and retires the read as its
  /// replies (and `timed_out`) allow.
  void AdvanceRead(ShardState& ss, std::uint64_t req, PendingGet& get,
                   bool timed_out) HOTMAN_SHARD_AFFINE;

  // Dirty-set bookkeeping for the fast read path (on the key's shard).
  void MarkKeyDirty(ShardState& ss, const std::string& key) HOTMAN_SHARD_AFFINE;
  /// Called exactly once per decided put, when its pending entry retires.
  void RetireDirtyKey(ShardState& ss, const std::string& key,
                      bool settled_all_n) HOTMAN_SHARD_AFFINE;
  bool KeyIsCleanOnShard(ShardState& ss,
                         const std::string& key) HOTMAN_SHARD_AFFINE;
  /// Whether writes must be primary-anchored for fast reads to stay
  /// consistent (strict mode; sloppy handoff already trades staleness).
  bool RequirePrimaryAck() const {
    return config_.fast_reads && !config_.hinted_handoff;
  }

  // The only places a coordinated operation's caller is answered: each
  // sets `done`, counts the outcome, records its latency and trace, then
  // calls back.
  void ConcludePut(ShardState& ss, std::uint64_t req, PendingPut& put,
                   const Status& status) HOTMAN_SHARD_AFFINE;
  void ConcludeGet(ShardState& ss, std::uint64_t req, PendingGet& get,
                   const Result<bson::Document>& result) HOTMAN_SHARD_AFFINE;
  /// Adds `op`'s trace record and returns its latency (enqueue -> now).
  Micros RecordOutcome(ShardState& ss, const PendingOp& op, metrics::TraceOp kind,
                       std::uint64_t req, bool ok) HOTMAN_SHARD_AFFINE;

  // Anti-entropy plumbing (shard 0; scans every shard's store partition).
  void StartAntiEntropyTimer();
  void HandleAeDigest(const net::Message& msg);
  void HandleAeRequest(const net::Message& msg);
  /// Records for which both `self` and `peer` are preference members,
  /// across all shard partitions.
  std::vector<bson::Document> SharedRecords(const std::string& peer);
  /// Every record on this node (all shard partitions).
  std::vector<bson::Document> AllShardRecords();

  // Failure handling.
  void StartHintTimer(ShardState& ss) HOTMAN_SHARD_AFFINE;
  /// Writes each hint whose target is alive back to it, as a put_replica
  /// whose req is the hint's id.
  void DeliverHints(ShardState& ss) HOTMAN_SHARD_AFFINE;
  /// Drops hint `id` once its target `from` acked the write-back, and the
  /// local stand-in copy with it when nothing else keeps it.
  void SettleHint(ShardState& ss, const std::string& from,
                  std::uint64_t id) HOTMAN_SHARD_AFFINE;
  void OnDetectorTransition(const std::string& endpoint, gossip::Liveness from,
                            gossip::Liveness to);

  // Elastic-membership plumbing (shard 0).
  /// Builds the Rebalancer and registers its wire handlers.
  void SetupRebalancer();
  /// Streams the replica-aware diff `before` -> current ring: this node
  /// executes the plan steps it is the designated source for, then sweeps
  /// the arcs it streamed out.
  void StartPlannedTransfers(const hashring::Ring& before);
  /// Applies a gossiped vnode-weight change for `node` and streams the
  /// released arcs.
  void ApplyReweight(const std::string& node, int vnodes);

  /// The N distinct physical preference nodes for `key`, from `ss`'s
  /// membership view.
  std::vector<std::string> PreferenceNodes(const ShardState& ss,
                                           const std::string& key) const;

  NodeSpec spec_;
  ClusterConfig config_;
  std::string id_;
  net::Transport* transport_;
  sim::FailureInjector* injector_;
  net::Dispatcher dispatcher_;

  /// The shard runtime: injected (real daemon) or owned (simulation, where
  /// a non-threaded runtime over the node's transport is built here).
  std::unique_ptr<net::ShardedExecutor> owned_sharded_;
  net::ShardedExecutor* sharded_ = nullptr;

  hashring::Ring ring_;
  std::set<std::string> removed_nodes_;
  std::unique_ptr<docstore::DocStoreServer> server_;
  std::unique_ptr<sim::ServiceStation> station_;
  std::unique_ptr<gossip::Gossiper> gossiper_;
  std::unique_ptr<gossip::FailureDetector> detector_;

  std::vector<std::unique_ptr<ShardState>> shards_;

  bool running_ = false;
  Micros clock_skew_ = 0;
  net::TimerId ae_timer_ = 0;
  Rng ae_rng_{0x5eedae};

  std::unique_ptr<rebalance::Rebalancer> rebalancer_;
  bool decommissioning_ = false;
  bool decommissioned_ = false;
  net::TimerId sweep_timer_ = 0;
  bool sweep_push_pending_ = false;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_STORAGE_NODE_H_
