#include "cluster/storage_node.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <system_error>

#include "bson/codec.h"
#include "common/logging.h"
#include "hashring/ketama.h"

namespace hotman::cluster {

namespace {

/// Extra ring successors examined when picking hinted-handoff substitutes.
constexpr std::size_t kHandoffCandidateSlack = 4;

/// How often each shard retries delivering its hinted-handoff writes.
constexpr Micros kHintRetryInterval = 2 * kMicrosPerSecond;

/// Collection name of shard `index`'s replica-store partition. Shard 0
/// keeps the plain name so a single-shard node is byte-identical to the
/// pre-sharding layout (and existing tools keep finding "records").
std::string ShardCollection(int index) {
  std::string name = "records";
  if (index > 0) name += "_s" + std::to_string(index);
  return name;
}

/// Aborts unless the caller runs on shard 0 or outside any shard (the
/// simulator's delivery context): a system message's handler touches shard
/// 0's state without a hop, which anywhere else is a data race.
void CheckOnSystemShard(const std::string& node, const std::string& type) {
  const int shard = net::ShardContext::Current();
  if (shard <= 0) return;
  HOTMAN_LOG(kError) << node << ": system message " << type << " delivered on shard "  // NOLINT(hotman-transitive-blocking) leaf log sink right before abort
                     << shard;
  std::abort();
}

}  // namespace

void NodeStats::MergeFrom(const NodeStats& other) {
  for (const NodeCounter& c : kNodeCounters) this->*c.field += other.*c.field;
}

StorageNode::StorageNode(const NodeSpec& spec, const ClusterConfig& config,
                         net::Transport* transport,
                         sim::FailureInjector* injector, std::uint64_t rng_seed,
                         net::ShardedExecutor* sharded)
    : spec_(spec),
      config_(config),
      id_(spec.address),
      transport_(transport),
      injector_(injector) {
  if (sharded != nullptr) {
    sharded_ = sharded;
  } else {
    // Deterministic runtime: every shard multiplexes onto the node's
    // transport, cross-shard hops are zero-delay events in schedule order.
    net::ShardedExecutorConfig shard_config;
    shard_config.shards = config_.shards;
    shard_config.threaded = false;
    owned_sharded_ =
        std::make_unique<net::ShardedExecutor>(transport_, shard_config);
    sharded_ = owned_sharded_.get();
  }
  server_ = std::make_unique<docstore::DocStoreServer>(
      id_, hashring::KetamaHash(id_), transport_->clock());
  if (!sharded_->threaded()) {
    // The ServiceStation is a node-level queueing model of the simulator;
    // a threaded (real) runtime measures genuine service time instead.
    station_ = std::make_unique<sim::ServiceStation>(transport_,
                                                     sim::ServiceConfig{});
  }

  const int num_shards = sharded_->num_shards();
  shards_.reserve(num_shards);
  for (int index = 0; index < num_shards; ++index) {
    auto ss = std::make_unique<ShardState>();
    ss->index = index;
    ss->executor = sharded_->executor(index);
    ss->heat = HeatTracker(config_.heat);
    ss->store = std::make_unique<ReplicaStore>(
        server_->db(), ShardCollection(index));
    Status init = ss->store->Init();
    if (!init.ok()) {
      HOTMAN_LOG(kError) << id_ << ": replica store init failed (shard " << index << "): " << init.ToString();  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
    }
    shards_.push_back(std::move(ss));
  }

  std::vector<std::string> seeds;
  for (const NodeSpec& node : config_.nodes) {
    if (node.is_seed) seeds.push_back(node.address);
  }
  gossiper_ = std::make_unique<gossip::Gossiper>(
      id_, seeds, spec_.is_seed, transport_, config_.gossip, rng_seed,
      [this](const std::string& to, const std::string& type, bson::Document body) {
        SendToNode(to, type, std::move(body));
      });
  detector_ = std::make_unique<gossip::FailureDetector>(
      id_, transport_, &gossiper_->states(), config_.detector);
  SetupRebalancer();
  RegisterHandlers();
}

StorageNode::~StorageNode() { Stop(); }

void StorageNode::Start() {
  if (running_) return;
  running_ = true;
  transport_->RegisterEndpoint(id_, dispatcher_.AsTransportHandler());  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
  // Static bootstrap: the configured membership seeds the local ring view.
  // Ring weight is the capacity-scaled vnode count, so a half-size box owns
  // a proportionally smaller keyspace share.
  for (const NodeSpec& node : config_.nodes) {
    Status s = ring_.AddNode(node.address, EffectiveVnodes(node));
    (void)s;  // AlreadyExists is fine on restart
    if (node.address != id_) gossiper_->AddPeer(node.address);
  }
  SyncShardRings();
  gossiper_->Boot(transport_->NowMicros() / kMicrosPerSecond + 1);
  gossiper_->SetLocalState(gossip::kStateVnodes,
                           std::to_string(EffectiveVnodes(spec_)));
  gossiper_->SetStateChangeListener(
      [this](const std::string& endpoint, const std::string& key,
             const std::string& value) {
        if (key != gossip::kStateVnodes || removed_nodes_.count(endpoint) != 0) {
          return;
        }
        int vnodes = 0;
        const char* end = value.data() + value.size();
        const auto parsed = std::from_chars(value.data(), end, vnodes);
        if (parsed.ec != std::errc() || parsed.ptr != end || vnodes < 1 ||
            vnodes > hashring::kMaxVnodes) {
          return;  // not a ring weight this node would accept
        }
        if (!ring_.HasNode(endpoint)) {
          // Learned of a new member through gossip.
          OnNodeAdded(endpoint, vnodes);
        } else if (endpoint != id_ && ring_.VnodeCount(endpoint) != vnodes) {
          // A member gossips a weight other than its ring weight (say,
          // `hotman_ctl join NODE VNODES` put VNODES on the ring, while the
          // daemon gossips its own count): rebuild its points and stream
          // the released arcs.
          ApplyReweight(endpoint, vnodes);
        }
      });
  gossiper_->Start();
  detector_->Start([this](const std::string& endpoint, gossip::Liveness from,
                          gossip::Liveness to) {
    OnDetectorTransition(endpoint, from, to);
  });
  for (const auto& shard : shards_) {
    ShardState* ss = shard.get();
    RunOnShard(ss->index, [this, ss] { StartHintTimer(*ss); });
  }
  if (config_.anti_entropy) StartAntiEntropyTimer();
  rebalancer_->Start();
}

void StorageNode::Stop() {
  if (!running_) return;
  running_ = false;
  gossiper_->Stop();
  detector_->Stop();
  rebalancer_->Stop();
  transport_->CancelTimer(ae_timer_);
  transport_->CancelTimer(sweep_timer_);
  sweep_timer_ = 0;
  sweep_push_pending_ = false;
  // Per-request events must not outlive the node: a timeout firing after
  // Stop would touch freed state, and an undone operation would otherwise
  // strand its caller forever. Each shard fails its own pending work in its
  // own context (PostSync: synchronous, so Stop() returning means no shard
  // touches this node again). Move the maps out first so callbacks that
  // re-enter this node see empty pending state.
  for (const auto& shard : shards_) {
    ShardState* ss = shard.get();
    sharded_->PostSync(ss->index, [this, ss] {
      ss->executor->CancelTimer(ss->hint_timer);
      const Status stopped = Status::Unavailable("coordinator stopped: " + id_);
      auto puts = std::move(ss->pending_puts);
      ss->pending_puts.clear();
      for (auto& [req, put] : puts) {
        ss->executor->CancelTimer(put.timeout_event);
        ss->executor->CancelTimer(put.cleanup_event);
        if (!put.done) ConcludePut(*ss, req, put, stopped);
      }
      auto gets = std::move(ss->pending_gets);
      ss->pending_gets.clear();
      for (auto& [req, get] : gets) {
        ss->executor->CancelTimer(get.timeout_event);
        if (!get.done) ConcludeGet(*ss, req, get, stopped);
      }
      ss->dirty_keys.clear();
    });
  }
  transport_->UnregisterEndpoint(id_);
}

// --- plumbing ---------------------------------------------------------------

void StorageNode::SendToNode(const std::string& to, const std::string& type,
                             bson::Document body) {
  net::Message msg;
  msg.from = id_;
  msg.to = to;
  msg.type = type;
  msg.body = std::move(body);
  transport_->Send(std::move(msg));
}

void StorageNode::RunOnShard(int shard, std::function<void()> fn) {
  sharded_->Post(shard, std::move(fn));
}

void StorageNode::RegisterHandlers() {
  // System traffic (gossip, membership, anti-entropy, rebalance) is pinned
  // to shard 0 and its handlers call straight through. That holds because
  // only shard 0 sends it: a peer's frame reaches the dispatcher on the
  // transport's event thread (shard 0), and so does a frame this node sends
  // itself from shard 0 or from outside any shard, but one it sends itself
  // from shard k > 0 is delivered on shard k (net::TcpTransport::Send).
  // on_system checks the rule on every system message. Keyed traffic
  // decodes on the delivering shard and hops to the owning shard (inline
  // when already there): put/get replicas and hint stores by the record's
  // key, acks by the home shard carried in the request id's low kShardBits.
  const auto on_system = [this](const std::string& type,
                                net::Transport::Handler handler) {
    dispatcher_.On(type, [this, handler = std::move(handler)](const net::Message& msg) {
      CheckOnSystemShard(id_, msg.type);
      handler(msg);
    });
  };
  on_system(gossip::kMsgGossipSyn, [this](const net::Message& msg) {
    gossiper_->HandleSyn(msg.from, msg.body);
  });
  on_system(gossip::kMsgGossipAck1, [this](const net::Message& msg) {
    gossiper_->HandleAck1(msg.from, msg.body);
  });
  on_system(gossip::kMsgGossipAck2, [this](const net::Message& msg) {
    gossiper_->HandleAck2(msg.from, msg.body);
  });
  dispatcher_.On(kMsgPutReplica, [this](const net::Message& msg) {
    auto decoded = DecodePutReplica(msg.body);
    if (!decoded.ok()) return;
    const int shard = ShardOfKey(core::RecordSelfKey(decoded->record));
    RunOnShard(shard, [this, shard, from = msg.from,
                       d = std::move(*decoded)]() mutable {
      HandlePutReplica(*shards_[shard], from, std::move(d));
    });
  });
  dispatcher_.On(kMsgGetReplica, [this](const net::Message& msg) {
    auto decoded = DecodeGetReplica(msg.body);
    if (!decoded.ok()) return;
    const int shard = ShardOfKey(decoded->key);
    RunOnShard(shard, [this, shard, from = msg.from,
                       d = std::move(*decoded)]() mutable {
      HandleGetReplica(*shards_[shard], from, std::move(d));
    });
  });
  dispatcher_.On(kMsgPutAck, [this](const net::Message& msg) {
    auto ack = DecodePutAck(msg.body);
    if (!ack.ok()) return;
    const int shard = ShardOfReq(ack->req);
    RunOnShard(shard, [this, shard, from = msg.from,
                       a = std::move(*ack)]() mutable {
      HandlePutAck(*shards_[shard], from, std::move(a));
    });
  });
  dispatcher_.On(kMsgGetAck, [this](const net::Message& msg) {
    auto ack = DecodeGetAck(msg.body);
    if (!ack.ok()) {
      // No request id to route by: every shard checks its own pending
      // reads against the sender (see HandleCorruptGetAck). Counted once
      // per message, on the system shard: a corrupt ack comes off a
      // socket, never from this node itself, so this runs there.
      CheckOnSystemShard(id_, msg.type);
      ++shards_[0]->stats.get_acks_corrupt;
      for (const auto& shard : shards_) {
        ShardState* ss = shard.get();
        RunOnShard(ss->index, [this, ss, from = msg.from] {
          HandleCorruptGetAck(*ss, from);
        });
      }
      return;
    }
    const int shard = ShardOfReq(ack->req);
    RunOnShard(shard, [this, shard, from = msg.from,
                       a = std::move(*ack)]() mutable {
      HandleGetAck(*shards_[shard], from, std::move(a));
    });
  });
  dispatcher_.On(kMsgHintStore, [this](const net::Message& msg) {
    auto decoded = DecodeHintStore(msg.body);
    if (!decoded.ok()) return;
    const int shard = ShardOfKey(core::RecordSelfKey(decoded->record));
    RunOnShard(shard, [this, shard, from = msg.from,
                       d = std::move(*decoded)]() mutable {
      HandleHintStore(*shards_[shard], from, std::move(d));
    });
  });
  on_system(kMsgAeDigest, [this](const net::Message& msg) { HandleAeDigest(msg); });
  on_system(kMsgAeRequest, [this](const net::Message& msg) { HandleAeRequest(msg); });
  // Elastic membership (src/rebalance/): system-shard traffic like
  // anti-entropy; the rebalancer hops keyed applies to the owning shard
  // itself (through the env.apply hook).
  on_system(rebalance::kMsgRangeDigest, [this](const net::Message& msg) {
    rebalancer_->HandleRangeDigest(msg.from, msg.body);  // NOLINT(hotman-shard-affinity) on_system runs it on shard 0, the rebalancer's home shard
  });
  on_system(rebalance::kMsgRangeAck, [this](const net::Message& msg) {
    rebalancer_->HandleRangeAck(msg.from, msg.body);  // NOLINT(hotman-shard-affinity) on_system runs it on shard 0, the rebalancer's home shard
  });
  on_system(rebalance::kMsgRangePush, [this](const net::Message& msg) {
    rebalancer_->HandleRangePush(msg.from, msg.body);  // NOLINT(hotman-shard-affinity) on_system runs it on shard 0, the rebalancer's home shard
  });
  on_system(rebalance::kMsgTransferDone, [this](const net::Message& msg) {
    rebalancer_->HandleTransferDone(msg.from, msg.body);  // NOLINT(hotman-shard-affinity) on_system runs it on shard 0, the rebalancer's home shard
  });
  on_system(kMsgNodeRemoved, [this](const net::Message& msg) {
    auto notice = DecodeMembership(msg.body);
    if (notice.ok()) OnNodeRemoved(notice->node);
  });
  on_system(kMsgNodeAdded, [this](const net::Message& msg) {
    auto notice = DecodeMembership(msg.body);
    if (notice.ok()) OnNodeAdded(notice->node, std::max(1, notice->vnodes));
  });
}

bool StorageNode::SubmitWork(std::size_t payload_bytes,
                             sim::ServiceStation::Done done) {
  if (station_ != nullptr) return station_->Submit(payload_bytes, std::move(done));
  done(0, 0);  // real deployment: the actual work *is* the service time
  return true;
}

// --- shard-local membership views -------------------------------------------

const hashring::Ring& StorageNode::RingOf(const ShardState& ss) const {
  if (ss.index == 0 || !sharded_->threaded()) return ring_;
  return ss.ring;
}

gossip::Liveness StorageNode::LivenessOf(const ShardState& ss,
                                         const std::string& node) const {
  if (ss.index == 0 || !sharded_->threaded()) return detector_->StatusOf(node);
  auto it = ss.liveness.find(node);
  // Absent means never heard a transition — kAlive, like the detector.
  return it == ss.liveness.end() ? gossip::Liveness::kAlive : it->second;
}

void StorageNode::SyncShardRings() {
  if (!sharded_->threaded()) return;  // every shard reads the master directly
  for (const auto& shard : shards_) {
    ShardState* ss = shard.get();
    if (ss->index == 0) continue;
    RunOnShard(ss->index, [ss, ring = ring_] { ss->ring = ring; });
  }
}

void StorageNode::SyncShardLiveness(const std::string& endpoint,
                                    gossip::Liveness to) {
  if (!sharded_->threaded()) return;
  for (const auto& shard : shards_) {
    ShardState* ss = shard.get();
    if (ss->index == 0) continue;
    RunOnShard(ss->index, [ss, endpoint, to] { ss->liveness[endpoint] = to; });
  }
}

std::vector<std::string> StorageNode::PreferenceNodes(
    const ShardState& ss, const std::string& key) const {
  return RingOf(ss).PreferenceList(key, config_.replication_factor);
}

// --- replica side -----------------------------------------------------------

void StorageNode::HandlePutReplica(ShardState& ss, const std::string& from,
                                   PutReplicaMsg msg) {
  const std::size_t bytes = bson::EncodedSize(msg.record);
  const std::uint64_t req = msg.req;
  bson::Document record = std::move(msg.record);
  const bool admitted = SubmitWork(
      bytes, [this, &ss, req, from, record = std::move(record)](
                 Micros queued, Micros serviced) mutable {
        RunOnShard(ss.index, [this, &ss, req, from, record = std::move(record),
                              queued, serviced] {
          PutAckMsg ack = ApplyReplica(ss, record);
          ack.req = req;
          ack.queue_micros = queued;
          ack.service_micros = serviced;
          if (req != 0) SendToNode(from, kMsgPutAck, EncodePutAck(ack));
        });
      });
  if (!admitted && req != 0) {
    PutAckMsg ack;
    ack.req = req;
    ack.ok = false;
    ack.error = "Busy: request shed";
    SendToNode(from, kMsgPutAck, EncodePutAck(ack));
  }
}

void StorageNode::HandleGetReplica(ShardState& ss, const std::string& from,
                                   GetReplicaMsg msg) {
  if (msg.digest_only) {
    // Version probes bypass the ServiceStation: they serve a bounded
    // (_ts, _origin) pair read in place through ReplicaStore::VersionOf
    // (one hash probe of the self-key index, no record copy), not a
    // record payload — that asymmetry is the point of the hot fan-out (the
    // primary answers cheap metadata probes while payload service rotates
    // across the other holders).
    GetAckMsg ack = ReadReplica(ss, msg.key, /*digest_only=*/true);
    ack.req = msg.req;
    SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
    return;
  }
  const std::uint64_t req = msg.req;
  const std::string key = msg.key;
  const bool admitted = SubmitWork(
      256, [this, &ss, req, from, key](Micros queued, Micros serviced) {
        RunOnShard(ss.index, [this, &ss, req, from, key, queued, serviced] {
          GetAckMsg ack = ReadReplica(ss, key, /*digest_only=*/false);
          ack.req = req;
          ack.queue_micros = queued;
          ack.service_micros = serviced;
          SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
        });
      });
  if (!admitted) {
    GetAckMsg ack;
    ack.req = req;
    ack.ok = false;
    ack.error = "Busy: request shed";
    SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
  }
}

PutAckMsg StorageNode::ApplyReplica(ShardState& ss, const bson::Document& record) {
  PutAckMsg ack;
  Status available = server_->CheckAvailable();
  if (!available.ok()) {
    ack.ok = false;
    ack.error = available.ToString();
  } else if (config_.chaos_lying_replica == id_) {
    // Negative-control harness: acknowledge without applying, so the
    // coordinator's quorum count overstates durability. The offline
    // checker must catch the resulting lost updates / stale reads.
    ack.ok = true;
  } else {
    auto applied = ss.store->Apply(record);
    if (applied.ok()) {
      ack.ok = true;
      ++ss.stats.replica_puts_applied;
    } else {
      ack.ok = false;
      ack.error = applied.status().ToString();
    }
  }
  return ack;
}

GetAckMsg StorageNode::ReadReplica(ShardState& ss, const std::string& key,
                                   bool digest_only) {
  GetAckMsg ack;
  ack.digest = digest_only;
  Status available = server_->CheckAvailable();
  if (!available.ok()) {
    ack.ok = false;
    ack.error = available.ToString();
    return ack;
  }
  Status read;
  if (digest_only) {
    auto version = ss.store->VersionOf(key);
    read = version.status();
    if (version.ok()) {
      ack.digest_ts = version->ts;
      ack.digest_origin = std::move(version->origin);
    }
  } else {
    auto record = ss.store->GetByKey(key);
    read = record.status();
    if (record.ok()) ack.record = std::move(*record);
  }
  ack.ok = read.ok() || read.IsNotFound();
  ack.found = read.ok();
  if (!ack.ok) ack.error = read.ToString();
  if (ack.ok) ++(digest_only ? ss.stats.replica_digests_served
                             : ss.stats.replica_gets_served);
  return ack;
}

void StorageNode::HandleHintStore(ShardState& ss, const std::string& from,
                                  HintStoreMsg msg) {
  // Keep a local copy so reads during the outage can be repaired, and store
  // the hint (Fig. 8: "creates an index for the replication").
  PutAckMsg ack = ApplyReplica(ss, msg.record);
  ack.req = msg.req;
  if (ack.ok) {
    ss.hints.Add(ss.NextReq(), msg.target, std::move(msg.record),
                 transport_->NowMicros());
    ++ss.stats.handoff_writes;
  }
  SendToNode(from, kMsgPutAck, EncodePutAck(ack));
}

void StorageNode::PushCopy(const std::string& to, const bson::Document& record) {
  SendToNode(to, kMsgPutReplica,
             EncodePutReplica(PutReplicaMsg{/*req=*/0, core::AsReplicaCopy(record)}));
}

// --- coordinator: Put -------------------------------------------------------

void StorageNode::CoordinatePut(const std::string& key, Bytes value,
                                PutCallback cb) {
  const int shard = ShardOfKey(key);
  RunOnShard(shard, [this, shard, key, value = std::move(value),
                     cb = std::move(cb)]() mutable {
    bson::Document record = core::MakeRecord(
        server_->db()->id_generator()->Next(), key, std::move(value),
        /*is_copy=*/false, /*deleted=*/false,
        transport_->NowMicros() + clock_skew_, id_);
    StartPut(*shards_[shard], std::move(record), std::move(cb));
  });
}

void StorageNode::CoordinateDelete(const std::string& key, PutCallback cb) {
  const int shard = ShardOfKey(key);
  RunOnShard(shard, [this, shard, key, cb = std::move(cb)]() mutable {
    bson::Document tombstone = core::MakeTombstone(
        server_->db()->id_generator()->Next(), key,
        transport_->NowMicros() + clock_skew_, id_);
    StartPut(*shards_[shard], std::move(tombstone), std::move(cb));
  });
}

void StorageNode::StartPut(ShardState& ss, bson::Document record,
                           PutCallback cb) {
  ++ss.stats.puts_coordinated;
  // Table 2's probabilities are per operation on the test system: each
  // client operation may trip one failure at a random node.
  if (injector_ != nullptr) injector_->MaybeInjectAnywhere();
  const std::string key = core::RecordSelfKey(record);
  if (key.empty()) {
    // No replica would take it: ValidateRecord refuses an empty key, and a
    // peer's decoder drops the frame rather than nack it.
    ++ss.stats.puts_failed;
    cb(Status::InvalidArgument("empty key"));
    return;
  }
  ss.heat.Record(key, transport_->NowMicros());
  std::vector<std::string> targets = PreferenceNodes(ss, key);
  if (targets.empty()) {
    ++ss.stats.puts_failed;
    cb(Status::Unavailable("ring is empty"));
    return;
  }
  const std::uint64_t req = ss.NextReq();
  PendingPut put;
  put.key = key;
  put.record = std::move(record);
  put.cb = std::move(cb);
  put.started_at = transport_->NowMicros();
  put.needed = std::min<int>(config_.write_quorum, static_cast<int>(targets.size()));
  put.preference = targets.size();
  for (const std::string& target : targets) put.slots.push_back({target});
  put.timeout_event = ss.executor->ScheduleTimer(
      config_.put_timeout, [this, &ss, req]() { OnPutTimeout(ss, req); });
  put.cleanup_event = ss.executor->ScheduleTimer(
      4 * config_.put_timeout, [this, &ss, req]() {
        auto it = ss.pending_puts.find(req);
        if (it != ss.pending_puts.end()) {
          AdvancePut(ss, req, it->second, /*expired=*/true);
        }
      });
  PendingPut& pending = ss.pending_puts.emplace(req, std::move(put)).first->second;
  MarkKeyDirty(ss, key);

  // The primary stores the original record (isData=1) and the other N-1
  // preference nodes store copies; all replications run concurrently.
  // Targets the heartbeat detector already classified as dead skip the
  // doomed attempt: the write goes straight to a temporary node with a
  // hint ("another temporary node C that is detected and found by
  // heartbeat mechanism" — Fig. 8).
  std::vector<std::size_t> known_dead;
  std::size_t own = targets.size();  // this node's slot, when served in place
  std::optional<bson::Document> copy_body;
  for (std::size_t slot = 0; slot < targets.size(); ++slot) {
    if (LivenessOf(ss, targets[slot]) == gossip::Liveness::kDead) {
      known_dead.push_back(slot);
      continue;
    }
    if (ServesInPlace(targets[slot])) {
      own = slot;
      continue;
    }
    SendPutReplica(req, pending, targets[slot], &copy_body);
  }
  if (!known_dead.empty()) {
    for (std::size_t slot : known_dead) {
      pending.slots[slot].answered = true;
      TryHandoff(ss, req, pending, slot);
    }
    // With handoff disabled every known-dead target counts as answered, so
    // an unreachable quorum can already be decided here (fast fail).
    AdvancePut(ss, req, pending, /*expired=*/false);
  }
  // This node's own copy goes last, once every frame is out: its ack can
  // conclude and retire the put (the unanswered own slot kept it pending
  // until here), and at W >= 2 the put waits for a remote ack anyway. The
  // primary stores the original, anyone else a replica copy.
  if (own < targets.size()) {
    PutAckMsg ack = own == 0
                        ? ApplyReplica(ss, pending.record)
                        : ApplyReplica(ss, core::AsReplicaCopy(pending.record));
    ack.req = req;
    HandlePutAck(ss, id_, std::move(ack));
  }
}

void StorageNode::SendPutReplica(std::uint64_t req, const PendingPut& put,
                                 const std::string& target,
                                 std::optional<bson::Document>* copy_body) {
  PutReplicaMsg msg;
  msg.req = req;
  if (target == put.slots.front().node) {
    // The primary stores the original (isData=1); a copy there would
    // silently demote the record.
    msg.record = put.record;
    SendToNode(target, kMsgPutReplica, EncodePutReplica(msg));
    return;
  }
  // Every other target receives the identical replica-copy message, so it
  // is encoded at most once per fan-out (lazily: all-dead fan-outs skip
  // it) and each send shares the encoded Binary payload.
  if (!copy_body->has_value()) {
    msg.record = core::AsReplicaCopy(put.record);
    *copy_body = EncodePutReplica(msg);
  }
  SendToNode(target, kMsgPutReplica, **copy_body);
}

void StorageNode::HandlePutAck(ShardState& ss, const std::string& from,
                               PutAckMsg ack) {
  auto it = ss.pending_puts.find(ack.req);
  if (it == ss.pending_puts.end()) {
    // A hint's write-back, or a late ack of a retired put.
    if (ack.ok) SettleHint(ss, from, ack.req);
    return;
  }
  PendingPut& put = it->second;
  // One answer per slot. A duplicate is dropped, and so is an ack from a
  // node the put never wrote to: the sender names itself on the wire, so
  // only the put's own slots may count toward W or start a handoff.
  const std::size_t slot = put.SlotOf(from);
  if (slot == put.slots.size() || put.slots[slot].answered) return;
  put.slots[slot].answered = true;
  if (ack.ok) {
    // Latency attribution only from successful replies: a nack's
    // queue/service numbers describe a replica that did *not* serve the
    // write, and tracing them would blame the wrong node.
    put.slots[slot].ok = true;
    put.last_queue = ack.queue_micros;
    put.last_service = ack.service_micros;
    put.last_replica = from;
  } else {
    // Abnormal event: "the system must find other storage node, and try to
    // write several times to guarantee the success of writing."
    TryHandoff(ss, ack.req, put, slot);
  }
  AdvancePut(ss, ack.req, put, /*expired=*/false);
}

void StorageNode::TryHandoff(ShardState& ss, std::uint64_t req, PendingPut& put,
                             std::size_t failed) {
  if (!config_.hinted_handoff) return;
  const std::size_t want =
      config_.replication_factor + kHandoffCandidateSlack + put.slots.size();
  for (const std::string& candidate : RingOf(ss).PreferenceList(put.key, want)) {
    if (put.SlotOf(candidate) != put.slots.size()) continue;
    HintStoreMsg msg;
    msg.req = req;
    msg.target = put.slots[failed].node;
    msg.record = core::AsReplicaCopy(put.record);
    put.slots.push_back({candidate});
    SendToNode(candidate, kMsgHintStore, EncodeHintStore(msg));
    return;
  }
}

void StorageNode::AdvancePut(ShardState& ss, std::uint64_t req, PendingPut& put,
                             bool expired) {
  int acks = 0;
  bool all_answered = true;
  bool settled_all_n = true;  // every preference holder acked
  for (std::size_t slot = 0; slot < put.slots.size(); ++slot) {
    acks += put.slots[slot].ok ? 1 : 0;
    all_answered = all_answered && put.slots[slot].answered;
    if (slot < put.preference) settled_all_n = settled_all_n && put.slots[slot].ok;
  }
  // With fast reads in strict mode the write is primary-anchored: W acks
  // alone are not enough, slot 0 (the primary) must be among them. That
  // keeps the single-replica read set {primary} inside every completed
  // write set.
  if (!put.done && acks >= put.needed &&
      (!RequirePrimaryAck() || put.slots.front().ok)) {
    ConcludePut(ss, req, put, Status::OK());
  }
  if (!all_answered && !expired) return;
  // Everyone answered (handoff substitutes included), or the cleanup timer
  // fired. If the quorum is still short, no outstanding ack can close the
  // gap: fail now instead of parking the client.
  if (!put.done) {
    ConcludePut(ss, req, put,
                Status::QuorumFailed("write quorum not reached for key " + put.key));
  }
  ss.executor->CancelTimer(put.timeout_event);
  ss.executor->CancelTimer(put.cleanup_event);
  RetireDirtyKey(ss, put.key, settled_all_n);
  ss.pending_puts.erase(req);
}

void StorageNode::OnPutTimeout(ShardState& ss, std::uint64_t req) {
  auto it = ss.pending_puts.find(req);
  if (it == ss.pending_puts.end()) return;
  PendingPut& put = it->second;
  // The silent slots in name order: resends and handoffs go out in that
  // order, and the history hashes pinned by tests/chaos_golden_test.cc
  // depend on it.
  std::vector<std::size_t> silent;
  for (std::size_t slot = 0; slot < put.slots.size(); ++slot) {
    if (!put.slots[slot].answered) silent.push_back(slot);
  }
  std::sort(silent.begin(), silent.end(), [&put](std::size_t a, std::size_t b) {
    return put.slots[a].node < put.slots[b].node;
  });
  ++put.timeout_wave;
  if (put.timeout_wave == 1) {
    // First wave: "try to write several times to guarantee the success of
    // writing" — resend to the silent replicas (the outage may have been a
    // dropped message or a short failure that already healed)...
    std::optional<bson::Document> copy_body;
    for (std::size_t slot : silent) {
      SendPutReplica(req, put, put.slots[slot].node, &copy_body);
    }
    put.timeout_event = ss.executor->ScheduleTimer(
        config_.put_timeout / 2, [this, &ss, req]() { OnPutTimeout(ss, req); });
    return;
  }
  // ...then give up on still-silent replicas and redirect each write to a
  // temporary node — even when the quorum already succeeded, so the
  // intended replica's data survives the outage (Fig. 8). A further wave
  // covers substitutes that were themselves unreachable.
  for (std::size_t slot : silent) {
    put.slots[slot].answered = true;
    TryHandoff(ss, req, put, slot);
  }
  // Giving up on the silent replicas may have settled the outcome (all
  // answered, quorum unreachable): decide now rather than waiting for the
  // cleanup timer. AdvancePut can erase the entry, so re-find it.
  AdvancePut(ss, req, put, /*expired=*/false);
  auto still = ss.pending_puts.find(req);
  if (still != ss.pending_puts.end() && still->second.timeout_wave < 4 &&
      !still->second.done) {
    still->second.timeout_event = ss.executor->ScheduleTimer(
        config_.put_timeout / 2, [this, &ss, req]() { OnPutTimeout(ss, req); });
  }
}

// --- coordinator: Get -------------------------------------------------------

void StorageNode::CoordinateGet(const std::string& key, GetCallback cb) {
  const int shard = ShardOfKey(key);
  RunOnShard(shard, [this, shard, key, cb = std::move(cb)]() mutable {
    ShardState& ss = *shards_[shard];
    ++ss.stats.gets_coordinated;
    if (injector_ != nullptr) injector_->MaybeInjectAnywhere();
    const Micros started_at = transport_->NowMicros();
    ss.heat.Record(key, started_at);
    std::vector<std::string> targets = PreferenceNodes(ss, key);
    if (config_.fast_reads) {
      // Harmonia-style fast path: a key with no write in flight (and nothing
      // recently unsettled) can be answered by the primary holder alone —
      // primary-anchored writes guarantee the primary saw every completed
      // write, so the one-replica read still intersects every write quorum.
      // Anchoring only holds in strict mode (hinted handoff off): with
      // substitutes taking writes for absent holders, a completed write may
      // bypass the primary entirely, so the fast path must stand down.
      // Fast attempts get half the budget so a demoted read can still
      // finish a full quorum round inside the caller's patience window.
      if (RequirePrimaryAck() && KeyIsCleanOnShard(ss, key) &&
          !targets.empty() &&
          LivenessOf(ss, targets.front()) == gossip::Liveness::kAlive) {
        // Hot refinement: a clean key the heat sketch flags hot rotates
        // its payload read across the preference holders instead of
        // always charging the primary. Ticket 0 (and any turn landing on
        // the primary or a suspect replica) is a plain primary fast
        // read, so the rotation degrades gracefully to the fast path.
        if (config_.hot_reads && targets.size() >= 2 &&
            ss.heat.IsHot(key, started_at)) {
          const std::uint64_t ticket = ss.heat.NextRotation(key);
          const std::size_t pick = ticket % targets.size();
          if (pick != 0 &&
              LivenessOf(ss, targets[pick]) == gossip::Liveness::kAlive) {
            ++ss.stats.hot_gets_fanned;
            IssueRead(ss, key, std::move(cb), started_at,
                      HotReadPlan(targets[pick], targets.front(),
                                  config_.get_timeout / 2));
            return;
          }
        }
        IssueRead(ss, key, std::move(cb), started_at,
                  PrimaryReadPlan(std::move(targets), config_.get_timeout / 2));
        return;
      }
      ++ss.stats.fast_read_fallbacks;
    }
    IssueRead(ss, key, std::move(cb), started_at,
              QuorumReadPlan(std::move(targets), config_.read_quorum,
                             config_.get_timeout,
                             [this, &ss](const std::string& target) {
                               return LivenessOf(ss, target) ==
                                      gossip::Liveness::kDead;
                             }));
  });
}

void StorageNode::IssueRead(ShardState& ss, const std::string& key,
                            GetCallback cb, Micros started_at, ReadPlan plan) {
  if (plan.targets.empty()) {
    ++ss.stats.gets_failed;
    cb(Status::Unavailable("ring is empty"));
    return;
  }
  const std::uint64_t req = ss.NextReq();
  PendingGet get;
  get.key = key;
  get.cb = std::move(cb);
  get.started_at = started_at;
  get.plan = std::move(plan);
  auto it = ss.pending_gets.emplace(req, std::move(get)).first;

  // This node's own replica answers in place before any frame leaves. The
  // answer can retire the read or demote it into a new request id; then
  // nothing more goes out under this one.
  const ReadPlan* issued = &it->second.plan;
  const auto own_it = std::find_if(
      issued->targets.begin(), issued->targets.end(),
      [this](const std::string& target) { return ServesInPlace(target); });
  const auto own = static_cast<std::size_t>(own_it - issued->targets.begin());
  if (own < issued->targets.size()) {
    GetAckMsg ack = ReadReplica(ss, key, static_cast<int>(own) == issued->verifier);
    ack.req = req;
    HandleGetAck(ss, id_, std::move(ack));
    it = ss.pending_gets.find(req);
    if (it == ss.pending_gets.end()) return;
    if (it->second.done && !it->second.plan.demotes()) {
      // An R=1 read the own replica's record concluded. The other replicas
      // would send their records only to be compared, so the read retires
      // here and read repair sends each a one-way version probe instead
      // (a partial anti-entropy digest): a peer holding an older version or
      // none pulls the record, one holding a newer version pushes it here.
      if (config_.read_repair) ProbeReplicas(ss, it->second);
      ss.pending_gets.erase(it);
      return;
    }
    issued = &it->second.plan;
  }
  it->second.timeout_event =
      ss.executor->ScheduleTimer(issued->budget, [this, &ss, req]() {
        auto pending = ss.pending_gets.find(req);
        if (pending != ss.pending_gets.end()) {
          AdvanceRead(ss, req, pending->second, /*timed_out=*/true);
        }
      });

  GetReplicaMsg msg;
  msg.req = req;
  msg.key = key;
  const bson::Document body = EncodeGetReplica(msg);
  for (std::size_t i = 0; i < issued->targets.size(); ++i) {
    if (i == own) continue;
    if (static_cast<int>(i) != issued->verifier) {
      SendToNode(issued->targets[i], kMsgGetReplica, body);
      continue;
    }
    msg.digest_only = true;
    SendToNode(issued->targets[i], kMsgGetReplica, EncodeGetReplica(msg));
  }
}

void StorageNode::ProbeReplicas(ShardState& ss, const PendingGet& get) {
  const bson::Document& served = get.replies.at(id_).record;
  AeDigestMsg probe;
  probe.entries.push_back(AeDigestEntry{get.key, core::RecordTimestamp(served),
                                        core::RecordOrigin(served)});
  probe.partial = true;
  const bson::Document body = EncodeAeDigest(probe);
  for (const std::string& target : get.plan.targets) {
    if (target == id_) continue;
    SendToNode(target, kMsgAeDigest, body);
    ++ss.stats.read_probes;
  }
}

void StorageNode::HandleCorruptGetAck(ShardState& ss, const std::string& from) {
  // An undecodable ack carries no request id, but it still came from a
  // node some read is waiting on. Treat it as a failed reply for every
  // pending read that is missing an answer from the sender, so the
  // all-responded miss path can conclude early instead of stalling until
  // get_timeout. A spurious match (two reads waiting on the same node)
  // only costs a fallback, never a wrong answer: failed replies can't
  // satisfy R.
  std::vector<std::uint64_t> affected;
  for (const auto& [req, get] : ss.pending_gets) {
    if (get.replies.count(from) > 0) continue;
    if (std::find(get.plan.targets.begin(), get.plan.targets.end(), from) !=
        get.plan.targets.end()) {
      affected.push_back(req);
    }
  }
  for (std::uint64_t req : affected) {
    auto it = ss.pending_gets.find(req);
    if (it == ss.pending_gets.end()) continue;  // concluded by a prior turn
    it->second.replies.emplace(from, ReadReply{});
    AdvanceRead(ss, req, it->second, /*timed_out=*/false);
  }
}

void StorageNode::HandleGetAck(ShardState& ss, const std::string& from,
                               GetAckMsg ack) {
  auto it = ss.pending_gets.find(ack.req);
  if (it == ss.pending_gets.end()) return;
  PendingGet& get = it->second;
  if (get.replies.count(from) > 0) return;  // duplicate
  if (ack.ok && !ack.digest) {
    // Attribution must come from a reply that can actually explain the
    // outcome's latency: recording queue/service numbers from failed
    // replies too would let the trace blame a replica that only ever
    // returned an error. Digest probes carry no payload service either.
    get.last_queue = ack.queue_micros;
    get.last_service = ack.service_micros;
    get.last_replica = from;
  }
  ReadReply reply;
  reply.ok = ack.ok;
  reply.found = ack.found;
  reply.record = std::move(ack.record);
  reply.digest_ts = ack.digest_ts;
  reply.digest_origin = std::move(ack.digest_origin);
  get.replies.emplace(from, std::move(reply));
  AdvanceRead(ss, ack.req, get, /*timed_out=*/false);
}

void StorageNode::AdvanceRead(ShardState& ss, std::uint64_t req,
                              PendingGet& get, bool timed_out) {
  const ReadPlan& plan = get.plan;
  if (!get.done) {
    const ReadDecision decision = DecideRead(plan, get.replies, timed_out);
    switch (decision.verdict) {
      case ReadVerdict::kWait:
        return;
      case ReadVerdict::kDemote: {
        // A fast or hot attempt could not vouch for a value: re-run as a
        // quorum read from the current ring, under the original start.
        ++ss.stats.fast_read_demotions;
        if (plan.verified()) ++ss.stats.hot_read_demotions;
        ss.executor->CancelTimer(get.timeout_event);
        const std::string key = std::move(get.key);
        GetCallback cb = std::move(get.cb);
        const Micros started_at = get.started_at;
        ss.pending_gets.erase(req);
        IssueRead(ss, key, std::move(cb), started_at,
                  QuorumReadPlan(PreferenceNodes(ss, key), config_.read_quorum,
                                 config_.get_timeout,
                                 [this, &ss](const std::string& target) {
                                   return LivenessOf(ss, target) ==
                                          gossip::Liveness::kDead;
                                 }));
        return;
      }
      case ReadVerdict::kServe:
        if (plan.demotes()) ++ss.stats.fast_read_hits;
        if (plan.verified()) ++ss.stats.hot_read_hits;
        ConcludeGet(ss, req, get, *decision.winner);
        break;
      case ReadVerdict::kMiss:
      case ReadVerdict::kUnavailable:
      case ReadVerdict::kTimeout:
        ConcludeGet(ss, req, get,
                    decision.verdict == ReadVerdict::kMiss
                        ? Status::NotFound("no replica has key " + get.key)
                    : decision.verdict == ReadVerdict::kUnavailable
                        ? Status::Unavailable("read quorum unreachable for " + get.key)
                        : Status::Timeout("read quorum not reached for key " + get.key));
        break;
    }
  }
  // The read stays pending after its answer until every target replied or
  // the budget lapsed, so read repair sees every version there is.
  if (!timed_out && get.replies.size() != plan.targets.size()) return;
  if (config_.read_repair) {
    const ReadRepair repair = PlanReadRepair(plan, get.replies);
    for (std::size_t index : repair.targets) {
      const std::string& target = plan.targets[index];
      if (LivenessOf(ss, target) == gossip::Liveness::kDead) {
        // A dead node cannot take the repair; the message would sit in
        // the transport's bounded outbound queue until dropped. Park it
        // as a hint instead (when handoff is on) so the write-back timer
        // delivers it once the node returns.
        ++ss.stats.read_repairs_skipped_dead;
        if (config_.hinted_handoff) {
          ss.hints.Add(ss.NextReq(), target, core::AsReplicaCopy(*repair.winner),
                       transport_->NowMicros());
        }
        continue;
      }
      ++ss.stats.read_repairs;
      if (ServesInPlace(target)) {
        // Fire-and-forget, like the frame: the ack goes nowhere.
        ApplyReplica(ss, core::AsReplicaCopy(*repair.winner));
        continue;
      }
      PushCopy(target, *repair.winner);
    }
  }
  ss.executor->CancelTimer(get.timeout_event);
  ss.pending_gets.erase(req);
}

// --- dirty-set bookkeeping (fast consistent reads) --------------------------

void StorageNode::MarkKeyDirty(ShardState& ss, const std::string& key) {
  if (!config_.fast_reads) return;
  DirtyEntry& entry = ss.dirty_keys[key];
  ++entry.inflight;
  entry.last_write = transport_->NowMicros();
  // Amortized sweep: retire entries whose quiescence window lapsed so the
  // map tracks the recently-written working set, not every key ever
  // written through this coordinator.
  if (ss.dirty_sweep_countdown == 0) {
    ss.dirty_sweep_countdown = 256;
    const Micros now = transport_->NowMicros();
    for (auto it = ss.dirty_keys.begin(); it != ss.dirty_keys.end();) {
      const DirtyEntry& aged = it->second;
      if (aged.inflight == 0 &&
          now - aged.last_write >= kFastReadQuiescence) {
        it = ss.dirty_keys.erase(it);
      } else {
        ++it;
      }
    }
  }
  --ss.dirty_sweep_countdown;
}

void StorageNode::RetireDirtyKey(ShardState& ss, const std::string& key,
                                 bool settled_all_n) {
  auto it = ss.dirty_keys.find(key);
  if (it == ss.dirty_keys.end()) return;
  DirtyEntry& entry = it->second;
  entry.inflight = std::max(0, entry.inflight - 1);
  entry.last_write = transport_->NowMicros();
  // Last decided write wins the verdict: a write that settled on all N
  // holders left every replica with its (newer by LWW) value, so whatever
  // an earlier write missed no longer matters for freshness.
  entry.unsettled = !settled_all_n;
  if (entry.inflight == 0 && !entry.unsettled) ss.dirty_keys.erase(it);
}

bool StorageNode::KeyIsCleanOnShard(ShardState& ss, const std::string& key) {
  auto it = ss.dirty_keys.find(key);
  if (it == ss.dirty_keys.end()) return true;
  const DirtyEntry& entry = it->second;
  if (entry.inflight > 0) return false;
  if (transport_->NowMicros() - entry.last_write < kFastReadQuiescence) {
    return false;
  }
  // Aged out: the quiescence window lapsed with nothing in flight, giving
  // read repair and anti-entropy time to settle whatever the write missed.
  ss.dirty_keys.erase(it);
  return true;
}

bool StorageNode::KeyIsClean(const std::string& key) {
  const int shard = ShardOfKey(key);
  bool clean = false;
  sharded_->PostSync(shard, [this, shard, &key, &clean] {
    clean = KeyIsCleanOnShard(*shards_[shard], key);
  });
  return clean;
}

std::size_t StorageNode::DirtyKeyCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const ShardState* ss = shard.get();
    sharded_->PostSync(ss->index,
                       [ss, &total] { total += ss->dirty_keys.size(); });
  }
  return total;
}

// --- observability ----------------------------------------------------------

void StorageNode::ConcludePut(ShardState& ss, std::uint64_t req, PendingPut& put,
                              const Status& status) {
  put.done = true;
  ++(status.ok() ? ss.stats.puts_succeeded : ss.stats.puts_failed);
  ss.put_latency_hist.Record(
      RecordOutcome(ss, put, metrics::TraceOp::kPut, req, status.ok()));
  put.cb(status);
}

void StorageNode::ConcludeGet(ShardState& ss, std::uint64_t req, PendingGet& get,
                              const Result<bson::Document>& result) {
  get.done = true;
  ++(result.ok() ? ss.stats.gets_succeeded : ss.stats.gets_failed);
  const Micros total = RecordOutcome(ss, get, metrics::TraceOp::kGet, req, result.ok());
  ss.get_latency_hist.Record(total);
  // Demoted reads record on the quorum histogram under their *original*
  // start time: the fast detour they took is part of the latency the
  // caller observed, not a separate measurement.
  (get.plan.demotes() ? ss.fast_get_latency_hist : ss.quorum_get_latency_hist)
      .Record(total);
  get.cb(result);
}

Micros StorageNode::RecordOutcome(ShardState& ss, const PendingOp& op,
                                  metrics::TraceOp kind, std::uint64_t req, bool ok) {
  const Micros now = transport_->NowMicros();
  const Micros total = now - op.started_at;
  metrics::TraceRecord trace;
  trace.req = req;
  trace.op = kind;
  trace.key = op.key;
  trace.coordinator = id_;
  trace.replica = op.last_replica;
  trace.started_at = op.started_at;
  trace.finished_at = now;
  trace.queue_micros = op.last_queue;
  trace.service_micros = op.last_service;
  trace.network_micros = std::max<Micros>(0, total - op.last_queue - op.last_service);
  trace.ok = ok;
  ss.traces.Add(std::move(trace));
  return total;
}

NodeStats StorageNode::stats() const {
  NodeStats merged;
  for (const auto& shard : shards_) {
    const ShardState* ss = shard.get();
    sharded_->PostSync(ss->index,
                       [ss, &merged] { merged.MergeFrom(ss->stats); });
  }
  return merged;
}

HeatSnapshot StorageNode::heat_snapshot() const {
  HeatSnapshot merged;
  const Micros now = transport_->NowMicros();
  const std::size_t capacity = config_.heat.capacity;
  for (const auto& shard : shards_) {
    const ShardState* ss = shard.get();
    sharded_->PostSync(ss->index, [ss, &merged, now, capacity] {
      merged.MergeFrom(ss->heat.Snapshot(now), capacity);
    });
  }
  return merged;
}

void StorageNode::ExportStats(metrics::Registry* registry) const {
  for (const auto& shard : shards_) {
    const ShardState* ss = shard.get();
    sharded_->PostSync(ss->index, [ss, registry] {
      for (const NodeCounter& c : kNodeCounters) {
        registry->counter(c.name)->Increment(ss->stats.*c.field);
      }
      registry->histogram("put_latency_us")->MergeFrom(ss->put_latency_hist);
      registry->histogram("get_latency_us")->MergeFrom(ss->get_latency_hist);
      registry->histogram("fast_get_latency_us")->MergeFrom(ss->fast_get_latency_hist);
      registry->histogram("quorum_get_latency_us")
          ->MergeFrom(ss->quorum_get_latency_hist);
    });
  }
  const rebalance::RebalanceStats rb = rebalancer_->stats();
  for (const rebalance::RebalanceCounter& c : rebalance::kRebalanceCounters) {
    registry->counter(c.name)->Increment(rb.*c.field);
  }
  if (station_ != nullptr) {
    registry->histogram("replica_queue_wait_us")
        ->MergeFrom(station_->queue_wait_histogram());
    registry->histogram("replica_service_us")
        ->MergeFrom(station_->service_histogram());
  }
}

std::vector<metrics::TraceRecord> StorageNode::TraceSnapshot() const {
  std::vector<metrics::TraceRecord> merged;
  for (const auto& shard : shards_) {
    const ShardState* ss = shard.get();
    sharded_->PostSync(ss->index, [ss, &merged] {
      std::vector<metrics::TraceRecord> snap = ss->traces.Snapshot();
      merged.insert(merged.end(), std::make_move_iterator(snap.begin()),
                    std::make_move_iterator(snap.end()));
    });
  }
  return merged;
}

// --- hinted handoff write-back ----------------------------------------------

void StorageNode::StartHintTimer(ShardState& ss) {
  ss.hint_timer = ss.executor->ScheduleTimer(
      kHintRetryInterval, [this, &ss]() {
        if (!running_) return;
        DeliverHints(ss);
        StartHintTimer(ss);
      });
}

void StorageNode::DeliverHints(ShardState& ss) {
  for (const std::string& target : ss.hints.Targets()) {
    // "It detects the node B periodically by heartbeat service. When it
    // finds that the B node is on-line again, ... write the data back."
    if (LivenessOf(ss, target) != gossip::Liveness::kAlive) continue;
    if (!RingOf(ss).HasNode(target)) {
      // The target was permanently removed; drop its hints (the data was
      // re-replicated by long-failure repair).
      for (const Hint& hint : ss.hints.ForTarget(target)) {
        ss.hints.Remove(hint.id);
      }
      continue;
    }
    // The write-back is an ordinary replica write: the target applies it
    // like any put_replica and answers with a put_ack naming the hint.
    for (Hint& hint : ss.hints.ForTarget(target)) {
      SendToNode(target, kMsgPutReplica,
                 EncodePutReplica(PutReplicaMsg{hint.id, std::move(hint.record)}));
    }
  }
}

void StorageNode::SettleHint(ShardState& ss, const std::string& from,
                             std::uint64_t id) {
  const Hint* hint = ss.hints.Find(id);
  // Gone already (an earlier retry's ack), or not this sender's to settle:
  // the sender names itself on the wire, and only the target's own ack
  // says the target holds the write.
  if (hint == nullptr || hint->target != from) return;
  const std::string key = core::RecordSelfKey(hint->record);
  ss.hints.Remove(id);
  ++ss.stats.hints_delivered;
  // The write-back is done: drop the temporary local copy unless this node
  // is a preference member for the key (then the copy is a real replica)
  // or other hints still reference it. Without this purge the substitute
  // keeps an unowned replica forever — anti-entropy only reconciles
  // preference members, so that orphan goes stale on the next write and
  // the replica set never converges back to byte-identical.
  if (ss.hints.HasHintForKey(key)) return;
  std::vector<std::string> prefs = PreferenceNodes(ss, key);
  if (std::find(prefs.begin(), prefs.end(), id_) == prefs.end()) {
    Status purged = ss.store->Purge(key);
    (void)purged;
  }
}

// --- membership and long-failure repair --------------------------------------

void StorageNode::OnDetectorTransition(const std::string& endpoint,
                                       gossip::Liveness /*from*/,
                                       gossip::Liveness to) {
  SyncShardLiveness(endpoint, to);
  if (to == gossip::Liveness::kDead && spec_.is_seed) {
    // "The seed nodes are responsible for detecting 'long failure' nodes."
    HOTMAN_LOG(kInfo) << id_ << ": seed detected long failure of " << endpoint;  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
    AnnounceRemoval(endpoint);
  }
}

void StorageNode::AnnounceRemoval(const std::string& node) {
  MembershipMsg notice;
  notice.node = node;
  const bson::Document body = EncodeMembership(notice);
  for (const std::string& member : ring_.Nodes()) {
    if (member == id_ || member == node) continue;
    SendToNode(member, kMsgNodeRemoved, body);
  }
  OnNodeRemoved(node);
}

void StorageNode::OnNodeRemoved(const std::string& node) {
  if (!ring_.HasNode(node)) return;  // already applied
  if (node == id_) {
    // Our own graceful departure coming back around: the decommission path
    // already streamed everything out, so just drop ourselves from the
    // local view — no repair against our own removal.
    Status s = ring_.RemoveNode(node);
    (void)s;
    SyncShardRings();
    return;
  }
  const hashring::Ring before = ring_;
  Status s = ring_.RemoveNode(node);
  (void)s;
  removed_nodes_.insert(node);
  SyncShardRings();
  // Fig. 9: "node removing will cause the number of the replications of
  // data decreasing. So some new replicas should be created and distributed
  // to other nodes." With the rebalancer on, only the designated source per
  // arc streams (throttled, resumable) instead of every holder re-pushing.
  StartPlannedTransfers(before);
}

void StorageNode::OnNodeAdded(const std::string& node, int vnodes) {
  if (node == id_ || ring_.HasNode(node)) return;
  removed_nodes_.erase(node);
  const hashring::Ring before = ring_;
  Status s = ring_.AddNode(node, vnodes);
  if (!s.ok()) return;
  gossiper_->AddPeer(node);
  SyncShardRings();
  // "The mapping and migrating operation are executed by the next physical
  // node on the ring": stream the arcs the newcomer now owns to it and drop
  // what this node no longer holds a preference slot for.
  StartPlannedTransfers(before);
}

void StorageNode::AnnounceAddition(const std::string& node, int vnodes) {
  MembershipMsg notice;
  notice.node = node;
  notice.vnodes = vnodes;
  const bson::Document body = EncodeMembership(notice);
  for (const std::string& member : ring_.Nodes()) {
    if (member == id_ || member == node) continue;
    SendToNode(member, kMsgNodeAdded, body);
  }
  OnNodeAdded(node, vnodes);
}

std::vector<bson::Document> StorageNode::AllShardRecords() {
  // Shard-0 / rebalance path: reads every shard's store partition directly.
  // Safe without a mailbox hop because the docstore serializes access
  // internally (SharedMutex per collection) and rebalancing only needs a
  // point-in-time snapshot, not the owning shard's view.
  std::vector<bson::Document> all;
  for (const auto& shard : shards_) {
    auto records = StoreOfShard(shard->index)->AllRecords();  // NOLINT(hotman-shard-affinity) docstore-locked snapshot read from the rebalance path
    if (!records.ok()) continue;
    all.insert(all.end(), std::make_move_iterator(records->begin()),
               std::make_move_iterator(records->end()));
  }
  return all;
}

// --- elastic membership (src/rebalance/) -------------------------------------

void StorageNode::SetupRebalancer() {
  rebalance::RebalancerEnv env;
  env.self = id_;
  env.send_msg = [this](const hashring::NodeId& to, const std::string& type,
                    bson::Document body) {
    SendToNode(to, type, std::move(body));
  };
  env.snapshot = [this] { return AllShardRecords(); };
  env.lookup = [this](const std::string& key) {
    return StoreForKey(key)->GetByKey(key);  // NOLINT(hotman-shard-affinity) docstore-locked point read from the rebalance path
  };
  // Target-side apply: route the pushed record through the service station
  // and the key's shard exactly like foreground replica traffic (that
  // contention is what the throttle bounds), then hop home to shard 0 so
  // the rebalancer's watermark bookkeeping stays system-shard-affine.
  env.apply = [this](const bson::Document& record,
                     std::function<void(bool ok)> done) {
    const std::size_t bytes = bson::EncodedSize(record);
    const int shard = ShardOfKey(core::RecordSelfKey(record));
    auto settle = [this, done = std::move(done)](bool ok) {
      RunOnShard(0, [done, ok] { done(ok); });
    };
    const bool admitted = SubmitWork(
        bytes, [this, shard, record, settle](Micros, Micros) {
          RunOnShard(shard, [this, shard, record, settle] {
            settle(running_ && ApplyReplica(*shards_[shard], record).ok);
          });
        });
    if (!admitted) settle(false);
  };
  env.available = [this] { return running_ && server_->CheckAvailable().ok(); };
  env.peer_known = [this](const hashring::NodeId& peer) {
    return ring_.HasNode(peer);
  };
  env.executor = transport_;
  rebalancer_ =
      std::make_unique<rebalance::Rebalancer>(config_.rebalance, std::move(env));
}

void StorageNode::StartPlannedTransfers(const hashring::Ring& before) {
  std::vector<hashring::ReplicaMigrationStep> steps =
      hashring::PlanReplicaMigration(
          before, ring_, static_cast<std::size_t>(config_.replication_factor));
  bool self_sources = false;
  for (const hashring::ReplicaMigrationStep& step : steps) {
    if (step.source == id_) {
      self_sources = true;
      break;
    }
  }
  if (self_sources) {
    // Sweep again once our own streams land: keys deferred by SourcingKey
    // (arcs this node both loses and sources, e.g. N=1 or a self-reweight)
    // become purgeable exactly then.
    rebalancer_->StartTransfers(steps, [this] {  // NOLINT(hotman-shard-affinity) membership handlers run on shard 0, the rebalancer's home shard
      if (running_) RunOwnershipSweep(/*push_before_purge=*/false);
    });
  }
  // Ownership can shift away even when this node streams nothing (another
  // holder sources the displaced arc); sweep after the transfers have had a
  // chance to land. Purge-only is safe: on any membership change at N >= 2
  // the other N-1 before-holders keep their preference slots.
  ScheduleOwnershipSweep(/*push_before_purge=*/false,
                         2 * rebalance::kTransferRetryInterval);
}

void StorageNode::StartDecommission(std::function<void(const Status&)> done) {
  if (!running_) {
    done(Status::Unavailable("node not running: " + id_));
    return;
  }
  if (decommissioning_) {
    done(Status::InvalidArgument("decommission already in progress: " + id_));
    return;
  }
  if (ring_.NumPhysicalNodes() < 2) {
    done(Status::InvalidArgument(
        "cannot decommission the last ring member: " + id_));
    return;
  }
  decommissioning_ = true;
  // Peers that gossip with us meanwhile see LEAVING; the authoritative exit
  // is the node_removed broadcast below.
  gossiper_->SetLocalState(gossip::kStateStatus, "LEAVING");
  HOTMAN_LOG(kInfo) << id_ << ": decommission started, streaming data out";  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
  std::vector<hashring::ReplicaMigrationStep> steps = hashring::PlanDecommission(
      ring_, id_, static_cast<std::size_t>(config_.replication_factor));
  auto finish = [this, done = std::move(done)] {
    if (!running_) {
      // Crashed (or was stopped) mid-decommission: departure becomes abrupt
      // crash semantics; survivors repair via long-failure handling.
      decommissioning_ = false;
      done(Status::Unavailable("node stopped mid-decommission: " + id_));
      return;
    }
    HOTMAN_LOG(kInfo) << id_ << ": decommission streams complete, leaving ring";  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
    decommissioned_ = true;
    AnnounceRemoval(id_);
    Stop();
    done(Status::OK());
  };
  // PlanDecommission sources every lost arc here (survivors re-plan the
  // same diff on the announce; the overlap is idempotent under LWW).
  rebalancer_->StartTransfers(steps, std::move(finish));  // NOLINT(hotman-shard-affinity) decommission starts on shard 0, the rebalancer's home shard
}

void StorageNode::RunOwnershipSweep(bool push_before_purge) {
  if (!running_) return;
  ShardState& system = *shards_[0];
  for (const bson::Document& record : AllShardRecords()) {
    const std::string key = core::RecordSelfKey(record);
    std::vector<std::string> prefs =
        ring_.PreferenceList(key, config_.replication_factor);
    if (std::find(prefs.begin(), prefs.end(), id_) != prefs.end()) continue;
    if (rebalancer_->SourcingKey(key)) continue;  // purge at stream completion  // NOLINT(hotman-shard-affinity) the ownership sweep runs on shard 0, the rebalancer's home shard
    if (push_before_purge) {
      // Rejoin path: this node may be the sole holder of a pre-crash write,
      // so hand the record to its preference holders before dropping it.
      for (const std::string& target : prefs) {
        PushCopy(target, record);
        ++system.stats.rereplications;
      }
    }
    if (config_.chaos_skip_ownership_purge) continue;
    Status s = StoreForKey(key)->Purge(key);  // NOLINT(hotman-shard-affinity) docstore-locked purge from the rebalance path
    (void)s;
    ++system.stats.rebalance_purges;
  }
}

void StorageNode::ScheduleOwnershipSweep(bool push_before_purge, Micros delay) {
  sweep_push_pending_ = sweep_push_pending_ || push_before_purge;
  if (sweep_timer_ != 0) return;  // coalesced; the pending sweep reads the flag
  sweep_timer_ = transport_->ScheduleTimer(delay, [this] {
    sweep_timer_ = 0;
    const bool push = sweep_push_pending_;
    sweep_push_pending_ = false;
    if (running_) RunOwnershipSweep(push);
  });
}

void StorageNode::ApplyReweight(const std::string& node, int vnodes) {
  // Checked before the member leaves the ring: AddNode would refuse it.
  if (vnodes < 1 || vnodes > hashring::kMaxVnodes || !ring_.HasNode(node)) return;
  if (ring_.VnodeCount(node) == vnodes) return;
  const hashring::Ring before = ring_;
  Status removed = ring_.RemoveNode(node);
  (void)removed;
  Status added = ring_.AddNode(node, vnodes);
  (void)added;
  SyncShardRings();
  StartPlannedTransfers(before);
}

}  // namespace hotman::cluster
