// Anti-entropy replica synchronization (StorageNode methods).
//
// The paper's future work includes "solving problems on data's
// consistency": read repair only fixes replicas of keys that are read, so
// divergence on cold keys persists indefinitely. This background protocol
// closes that gap — every node periodically picks a random ring peer,
// sends a digest of the records both should hold, pushes versions it has
// that the peer lacks (or holds stale), and requests the ones the peer is
// ahead on. Last-write-wins at the replica store keeps the exchange
// idempotent and convergent (a flat digest here; Merkle trees would be the
// production-scale summary). The same digest handler answers the version
// probe of a read the coordinator served from its own replica
// (StorageNode::IssueRead): a partial digest of that one record.
//
// The whole protocol is shard-0 (system shard) work: it reads the master
// ring and failure detector directly, and it scans the per-shard store
// partitions without a mailbox hop — safe because the docstore serializes
// collection access internally and anti-entropy only needs point-in-time
// snapshots, never the owning shard's coordinator state.

#include "cluster/storage_node.h"

namespace hotman::cluster {

void StorageNode::StartAntiEntropyTimer() {
  ae_timer_ = transport_->ScheduleTimer(config_.anti_entropy_interval, [this]() {
    if (!running_) return;
    std::vector<std::string> peers;
    for (const std::string& member : ring_.Nodes()) {
      if (member != id_ &&
          detector_->StatusOf(member) == gossip::Liveness::kAlive) {
        peers.push_back(member);
      }
    }
    if (!peers.empty()) {
      RunAntiEntropyRound(peers[ae_rng_.Uniform(peers.size())]);
    }
    StartAntiEntropyTimer();
  });
}

std::vector<bson::Document> StorageNode::SharedRecords(const std::string& peer) {
  std::vector<bson::Document> shared;
  for (bson::Document& record : AllShardRecords()) {
    const std::string key = core::RecordSelfKey(record);
    bool self_in = false, peer_in = false;
    for (const std::string& member :
         ring_.PreferenceList(key, config_.replication_factor)) {
      self_in = self_in || member == id_;
      peer_in = peer_in || member == peer;
    }
    if (self_in && peer_in) shared.push_back(std::move(record));
  }
  return shared;
}

void StorageNode::RunAntiEntropyRound(const std::string& peer) {
  ++shards_[0]->stats.ae_rounds;
  AeDigestMsg digest;
  for (const bson::Document& record : SharedRecords(peer)) {
    digest.entries.push_back(AeDigestEntry{core::RecordSelfKey(record),
                                           core::RecordTimestamp(record),
                                           core::RecordOrigin(record)});
  }
  SendToNode(peer, kMsgAeDigest, EncodeAeDigest(digest));
}

void StorageNode::HandleAeDigest(const net::Message& msg) {
  auto digest = DecodeAeDigest(msg.body);
  if (!digest.ok()) return;
  if (!server_->CheckAvailable().ok()) return;

  AeRequestMsg request;
  for (const AeDigestEntry& entry : digest->entries) {
    ReplicaStore* store = StoreForKey(entry.key);  // NOLINT(hotman-shard-affinity) docstore-locked snapshot read from the system shard
    auto held = store->VersionOf(entry.key);
    if (!held.ok()) {
      // We are missing the record entirely: pull it.
      request.keys.push_back(entry.key);
      continue;
    }
    const core::Version remote{entry.timestamp, entry.origin};
    if (remote > held->view()) {
      request.keys.push_back(entry.key);
    } else if (held->view() > remote) {
      // Only a push needs the record itself.
      auto local = store->GetByKey(entry.key);
      if (!local.ok()) continue;
      PushCopy(msg.from, *local);
      ++shards_[0]->stats.ae_pushed;
    }
  }
  // Records we hold that the digest never mentioned (the sender lost or
  // never received them): push proactively. A partial digest, such as a
  // read's version probe, asks about its own entries alone.
  if (!digest->partial) {
    std::set<std::string> mentioned;
    for (const AeDigestEntry& entry : digest->entries) mentioned.insert(entry.key);
    for (const bson::Document& record : SharedRecords(msg.from)) {
      if (mentioned.count(core::RecordSelfKey(record)) > 0) continue;
      PushCopy(msg.from, record);
      ++shards_[0]->stats.ae_pushed;
    }
  }
  if (!request.keys.empty()) {
    SendToNode(msg.from, kMsgAeRequest, EncodeAeRequest(request));
  }
}

void StorageNode::HandleAeRequest(const net::Message& msg) {
  auto request = DecodeAeRequest(msg.body);
  if (!request.ok()) return;
  if (!server_->CheckAvailable().ok()) return;
  for (const std::string& key : request->keys) {
    auto record = StoreForKey(key)->GetByKey(key);  // NOLINT(hotman-shard-affinity) docstore-locked snapshot read from the system shard
    if (!record.ok()) continue;
    PushCopy(msg.from, *record);
    ++shards_[0]->stats.ae_requested;
  }
}

}  // namespace hotman::cluster
