#include "cluster/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "core/record.h"
#include "hashring/ketama.h"

namespace hotman::cluster {

namespace {

/// Virtual time granted for a blocking operation before giving up.
constexpr Micros kSyncOpBudget = 30 * kMicrosPerSecond;

/// Virtual time granted for a graceful decommission's throttled stream-out
/// before RemoveNode gives up waiting (the streams keep going regardless).
constexpr Micros kDecommissionBudget = 120 * kMicrosPerSecond;

}  // namespace

Cluster::Cluster(ClusterConfig config, std::uint64_t seed,
                 sim::FailureConfig failure_config)
    : config_(std::move(config)),
      loop_(),
      transport_(&loop_, sim::NetworkConfig{}, seed ^ 0x9e3779b97f4a7c15ull),
      injector_(&loop_, transport_.sim_network(), failure_config,
                seed ^ 0x5851f42d4c957f2dull),
      seed_(seed) {}

Cluster::~Cluster() = default;

Status Cluster::Start() {
  if (started_) return Status::OK();
  HOTMAN_RETURN_IF_ERROR(config_.Validate());
  injector_.SetRejoinHandler([this](docstore::DocStoreServer* server) {
    RejoinNode(server->address());
  });
  std::uint64_t node_seed = seed_;
  for (const NodeSpec& spec : config_.nodes) {
    auto node = std::make_unique<StorageNode>(spec, config_, &transport_,
                                              &injector_, ++node_seed);
    node->Start();
    injector_.RegisterServer(node->server());
    node_order_.push_back(spec.address);
    nodes_.emplace(spec.address, std::move(node));
  }
  started_ = true;
  // Let gossip converge before traffic arrives.
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

StorageNode* Cluster::AnyCoordinator() {
  // Skip nodes that are currently faulted or stopped (e.g. decommissioned):
  // a real client's connection attempt to a dead front door fails fast and
  // it redials elsewhere.
  for (std::size_t attempts = 0; attempts < node_order_.size(); ++attempts) {
    StorageNode* candidate = nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
    if (candidate->running() && candidate->server()->IsHealthy()) {
      return candidate;
    }
  }
  for (std::size_t attempts = 0; attempts < node_order_.size(); ++attempts) {
    StorageNode* candidate = nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
    if (candidate->running()) return candidate;
  }
  return nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
}

StorageNode* Cluster::CoordinatorFor(const std::string& key) {
  StorageNode* any = AnyCoordinator();
  auto primary = any->ring().PrimaryFor(key);
  if (!primary.ok()) return any;
  auto it = nodes_.find(*primary);
  if (it == nodes_.end() || !it->second->server()->IsHealthy()) return any;
  return it->second.get();
}

namespace {

/// Client-side retry budget: "the system cannot tolerate writing failure
/// ... try to write several times to guarantee the success of writing."
constexpr int kClientAttempts = 3;
constexpr Micros kClientRetryBackoff = 150 * kMicrosPerMilli;

bool WriteRetryable(const Status& s) { return !s.ok(); }

/// A coordinator that went silent mid-request (Timeout) or stopped
/// (Unavailable) should not surface to the client while another front door
/// could still serve the read. NotFound and other authoritative answers
/// return immediately.
bool ReadRetryable(const Result<bson::Document>& r) {
  return !r.ok() && (r.status().IsTimeout() || r.status().IsUnavailable());
}

/// Runs one client op through `cluster`'s round-robin coordinator: `op`
/// starts an attempt on the coordinator it is handed, and a result that
/// `retryable` accepts is retried after a backoff until the attempts run
/// out. `cb` gets the last result.
template <typename R, typename Op>
void WithRetries(Cluster* cluster, sim::EventLoop* loop, Op op,
                 bool (*retryable)(const R&), std::function<void(const R&)> cb) {
  // Each attempt re-picks a coordinator, so an attempt doomed by its own
  // coordinator's outage is retried through a healthy front door. The
  // stored closure holds itself only weakly — strong references travel
  // with the in-flight callbacks — so the final completion releases the
  // closure instead of leaking a shared_ptr cycle.
  auto attempt = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = attempt;
  *attempt = [cluster, loop, op = std::move(op), retryable, cb = std::move(cb),
              weak](int tries) {
    auto self = weak.lock();  // pins the closure across the async op
    op(cluster->AnyCoordinator(), [loop, retryable, cb, self, tries](const R& r) {
      if (!retryable(r) || tries + 1 >= kClientAttempts) {
        cb(r);
        return;
      }
      loop->Schedule(kClientRetryBackoff, [self, tries]() { (*self)(tries + 1); });
    });
  };
  (*attempt)(0);
}

/// Runs `loop` in `step`s until `done`, until `budget` of virtual time has
/// passed, or until nothing is left to run.
void PumpUntil(sim::EventLoop* loop, const bool& done, Micros budget, Micros step) {
  const Micros deadline = loop->Now() + budget;
  while (!done && loop->Now() < deadline && loop->PendingEvents() > 0) {
    loop->RunUntil(loop->Now() + step);
  }
}

/// Starts an op through `start` and pumps `loop` until it answers: the
/// answer, or `pending` when none came within the sync budget.
template <typename R, typename Start>
R Await(sim::EventLoop* loop, R pending, Start start) {
  bool done = false;
  start([&pending, &done](const R& r) {
    pending = r;
    done = true;
  });
  PumpUntil(loop, done, kSyncOpBudget, kMicrosPerMilli);
  return pending;
}

}  // namespace

void Cluster::Put(const std::string& key, Bytes value, PutCallback cb) {
  auto shared_value = std::make_shared<Bytes>(std::move(value));
  WithRetries<Status>(
      this, &loop_,
      [key, shared_value](StorageNode* node, PutCallback done) {
        node->CoordinatePut(key, *shared_value, std::move(done));
      },
      WriteRetryable, std::move(cb));
}

void Cluster::Get(const std::string& key, GetCallback cb) {
  WithRetries<Result<bson::Document>>(
      this, &loop_,
      [key](StorageNode* node, GetCallback done) {
        node->CoordinateGet(key, std::move(done));
      },
      ReadRetryable, std::move(cb));
}

void Cluster::Delete(const std::string& key, PutCallback cb) {
  WithRetries<Status>(
      this, &loop_,
      [key](StorageNode* node, PutCallback done) {
        node->CoordinateDelete(key, std::move(done));
      },
      WriteRetryable, std::move(cb));
}

Status Cluster::PutSync(const std::string& key, Bytes value) {
  return Await<Status>(&loop_, Status::Timeout("put never completed"),
                       [&](PutCallback cb) { Put(key, std::move(value), std::move(cb)); });
}

Result<Bytes> Cluster::GetSync(const std::string& key) {
  const Result<bson::Document> record =
      Await<Result<bson::Document>>(&loop_, Status::Timeout("get never completed"),
                                    [&](GetCallback cb) { Get(key, std::move(cb)); });
  if (!record.ok()) return record.status();
  if (core::RecordIsDeleted(*record)) return Status::NotFound("key deleted");
  return core::RecordValue(*record);
}

Status Cluster::DeleteSync(const std::string& key) {
  return Await<Status>(&loop_, Status::Timeout("delete never completed"),
                       [&](PutCallback cb) { Delete(key, std::move(cb)); });
}

Status Cluster::AddNode(const NodeSpec& spec) {
  HOTMAN_RETURN_IF_ERROR(AddNodeAsync(spec));
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

Status Cluster::AddNodeAsync(const NodeSpec& spec) {
  if (nodes_.count(spec.address) > 0) {
    return Status::AlreadyExists("node exists: " + spec.address);
  }
  if (!(spec.capacity > 0.0)) {
    return Status::InvalidArgument("node capacity must be > 0");
  }
  // The new node bootstraps from the *current* static config plus itself.
  ClusterConfig node_config = config_;
  node_config.nodes.push_back(spec);
  auto node = std::make_unique<StorageNode>(spec, node_config, &transport_,
                                            &injector_, seed_ ^ (nodes_.size() + 17));
  StorageNode* raw = node.get();
  node_order_.push_back(spec.address);
  nodes_.emplace(spec.address, std::move(node));
  config_.nodes.push_back(spec);
  raw->Start();
  injector_.RegisterServer(raw->server());
  // Announce the arrival explicitly so migration starts promptly (gossip
  // would also spread it, but the admin notice mirrors the paper's
  // synchronization messages). The announced weight is capacity-scaled.
  for (auto& [address, other] : nodes_) {
    if (address != spec.address) {
      other->OnNodeAdded(spec.address, EffectiveVnodes(spec));
    }
  }
  return Status::OK();
}

Status Cluster::CrashNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  injector_.Inject(it->second->server(), docstore::FaultMode::kDown, 0);
  return Status::OK();
}

Status Cluster::RestartNode(const std::string& address, bool lose_state) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  StorageNode* node = it->second.get();
  if (lose_state) {
    // The replacement machine boots with an empty disk: every replica it
    // held and every hint it owed other nodes are gone — across every
    // shard partition.
    for (int shard = 0; shard < node->num_shards(); ++shard) {
      ReplicaStore* store = node->StoreOfShard(shard);  // NOLINT(hotman-shard-affinity) docstore-locked wipe of a stopped node's partitions
      auto records = store->AllRecords();
      if (records.ok()) {
        for (const bson::Document& record : *records) {
          Status purged = store->Purge(core::RecordSelfKey(record));
          (void)purged;
        }
      }
      node->HintsOfShard(shard)->Clear();  // NOLINT(hotman-shard-affinity) same stopped-node wipe as the store above
    }
    // A wiped node also lost its rebalance cursors: sources must re-stream
    // from zero rather than resume past records the disk no longer holds.
    node->rebalancer()->OnStateLoss();  // NOLINT(hotman-shard-affinity) same stopped-node wipe as the stores above
  }
  injector_.Revive(node->server());
  RejoinNode(address);
  // No RunFor here: the chaos nemesis restarts nodes from inside loop
  // events, where re-entrant pumping is illegal. Callers keep driving the
  // loop; gossip and migration settle as virtual time advances.
  return Status::OK();
}

Status Cluster::RemoveNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  StorageNode* leaving = it->second.get();
  if (!leaving->running()) {
    // Nothing left to stream: the only departure on offer is the abrupt one.
    return RemoveNodeAbrupt(address);
  }
  // Graceful decommission: the node streams out everything it holds, then
  // announces its own removal and stops — it never leaves the ring while
  // it still has data nobody else holds.
  auto result = std::make_shared<Status>(
      Status::Timeout("decommission never completed: " + address));
  auto done = std::make_shared<bool>(false);
  leaving->StartDecommission([result, done](const Status& s) {
    *result = s;
    *done = true;
  });
  PumpUntil(&loop_, *done, kDecommissionBudget, 10 * kMicrosPerMilli);
  if (*done && result->ok()) loop_.RunFor(3 * config_.gossip.interval);
  return *result;
}

Status Cluster::RemoveNodeAbrupt(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  // Stop first, then announce: explicitly crash-shaped. Survivors recreate
  // the lost replicas from their own copies (Fig. 9), so any write that
  // only ever reached the departed node is gone — that is the semantics
  // this path models. Use RemoveNode for the lossless exit.
  StorageNode* announcer = nullptr;
  for (auto& [addr, node] : nodes_) {
    if (addr != address && node->is_seed() && node->running()) {
      announcer = node.get();
      break;
    }
  }
  it->second->Stop();
  if (announcer != nullptr) {
    announcer->AnnounceRemoval(address);
  } else {
    for (auto& [addr, node] : nodes_) {
      if (addr != address) node->OnNodeRemoved(address);
    }
  }
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

Status Cluster::DecommissionNodeAsync(const std::string& address,
                                      std::function<void(const Status&)> done) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  if (done == nullptr) done = [](const Status&) {};
  it->second->StartDecommission(std::move(done));
  return Status::OK();
}

void Cluster::RejoinNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return;
  // The rejoiner's own ring view is authoritative for its weight — it
  // carries the capacity-scaled vnode count through the crash. Fall back to
  // the config entry only when the node somehow lost itself; a node in
  // neither is an error, not a silent default weight.
  int vnodes = it->second->ring().VnodeCount(address);
  if (vnodes < 1) {
    const NodeSpec* spec = nullptr;
    for (const NodeSpec& candidate : config_.nodes) {
      if (candidate.address == address) spec = &candidate;
    }
    if (spec == nullptr) {
      HOTMAN_LOG(kError) << "rejoin of " << address  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                         << ": absent from its own ring and from the cluster "
                            "config; cannot infer ring weight, skipping rejoin";
      return;
    }
    vnodes = EffectiveVnodes(*spec);
  }
  // The repaired node rejoins every member's ring; holders stream the arcs
  // it owns back to it, and LWW reconciles whatever stale data it kept.
  for (auto& [addr, node] : nodes_) {
    if (addr != address) node->OnNodeAdded(address, vnodes);
  }
  // The rejoiner may be the only holder of a write accepted just before the
  // crash: push those records to their current preference holders before
  // purging what it no longer owns.
  it->second->ScheduleOwnershipSweep(/*push_before_purge=*/true,
                                     3 * config_.gossip.interval);
}

StorageNode* Cluster::node(const std::string& address) {
  auto it = nodes_.find(address);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<StorageNode*> Cluster::nodes() {
  std::vector<StorageNode*> out;
  out.reserve(node_order_.size());
  for (const std::string& address : node_order_) {
    out.push_back(nodes_[address].get());
  }
  return out;
}

std::size_t Cluster::TotalReplicas() {
  std::size_t total = 0;
  for (auto& [address, node] : nodes_) {
    for (int shard = 0; shard < node->num_shards(); ++shard) {
      total += node->StoreOfShard(shard)->NumRecords();  // NOLINT(hotman-shard-affinity) docstore-locked count; test/verification observer
    }
  }
  return total;
}

NodeStats Cluster::AggregateStats() {
  NodeStats total;
  for (auto& [address, node] : nodes_) total.MergeFrom(node->stats());
  return total;
}

rebalance::RebalanceStats Cluster::AggregateRebalanceStats() {
  rebalance::RebalanceStats total;
  for (auto& [address, node] : nodes_) total.MergeFrom(node->rebalance_stats());
  return total;
}

std::string Cluster::StatsJson() {
  metrics::Registry registry;
  HeatSnapshot heat;  // heat.* gauges do not add: merge, then export once
  for (auto& [address, node] : nodes_) {
    node->ExportStats(&registry);
    heat.MergeFrom(node->heat_snapshot(), node->config().heat.capacity);
  }
  heat.ExportTo(&registry);
  transport_.ExportStats(&registry);
  registry.gauge("nodes")->Set(static_cast<std::int64_t>(nodes_.size()));
  registry.gauge("virtual_now_us")->Set(loop_.Now());
  return registry.ToJson();
}

std::vector<metrics::TraceRecord> Cluster::RecentTraces(std::size_t limit) {
  std::vector<metrics::TraceRecord> all;
  for (auto& [address, node] : nodes_) {
    for (metrics::TraceRecord& trace : node->TraceSnapshot()) {
      all.push_back(std::move(trace));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const metrics::TraceRecord& a, const metrics::TraceRecord& b) {
              return a.finished_at < b.finished_at;
            });
  if (all.size() > limit) all.erase(all.begin(), all.end() - limit);
  return all;
}

}  // namespace hotman::cluster
