#include "rebalance/rebalancer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "bson/codec.h"
#include "common/logging.h"
#include "core/record.h"
#include "hashring/md5.h"

namespace hotman::rebalance {

namespace {

/// Byte budget across all in-flight batches of one node's outgoing
/// transfers; a transfer stalls (counted) rather than exceed it.
constexpr std::size_t kMaxInflightBytes = 256 * 1024;

}  // namespace

void RebalanceStats::MergeFrom(const RebalanceStats& other) {
  for (const RebalanceCounter& c : kRebalanceCounters) {
    this->*c.field += other.*c.field;
  }
}

Rebalancer::Rebalancer(const RebalanceConfig& config, RebalancerEnv env)
    : config_(config), env_(std::move(env)) {}

void Rebalancer::Stop() {
  running_ = false;
  if (retry_ticker_ != 0) {
    env_.executor->CancelTimer(retry_ticker_);
    retry_ticker_ = 0;
  }
  for (auto& [id, t] : transfers_) {
    if (t->send_timer != 0) env_.executor->CancelTimer(t->send_timer);
  }
  transfers_.clear();
  global_inflight_bytes_ = 0;
}

void Rebalancer::ForgetSourceState() {
  for (auto& [id, t] : transfers_) {
    if (t->send_timer != 0) env_.executor->CancelTimer(t->send_timer);
  }
  transfers_.clear();
  global_inflight_bytes_ = 0;
}

void Rebalancer::OnStateLoss() {
  ForgetSourceState();
  watermarks_.clear();
}

std::string Rebalancer::TransferId(const hashring::NodeId& source,
                                   const hashring::NodeId& target,
                                   const std::vector<hashring::Range>& arcs) {
  std::string material = source + "|" + target;
  for (const hashring::Range& arc : arcs) {
    material += "|" + std::to_string(arc.start) + ":" + std::to_string(arc.end);
  }
  return hashring::Md5::HexDigest(material);
}

void Rebalancer::StartTransfers(
    const std::vector<hashring::ReplicaMigrationStep>& steps,
    std::function<void()> on_all_complete) {
  // Group this node's steps by target; each group is one transfer.
  std::map<hashring::NodeId, std::vector<hashring::Range>> groups;
  for (const hashring::ReplicaMigrationStep& step : steps) {
    if (step.source != env_.self) continue;
    groups[step.target].push_back(step.range);
    ++stats_.arcs_planned;
  }
  if (groups.empty()) {
    if (on_all_complete) on_all_complete();
    return;
  }

  // Completion fan-in across the group (the decommission path waits for
  // every outgoing transfer before announcing its departure).
  auto remaining = std::make_shared<std::size_t>(groups.size());
  auto one_done = [remaining, on_all_complete]() {
    if (--*remaining == 0 && on_all_complete) on_all_complete();
  };

  std::vector<bson::Document> records = env_.snapshot();
  for (auto& [target, arcs] : groups) {
    std::sort(arcs.begin(), arcs.end(),
              [](const hashring::Range& a, const hashring::Range& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    const std::string id = TransferId(env_.self, target, arcs);
    auto existing = transfers_.find(id);
    if (existing != transfers_.end() && !existing->second->done) {
      existing->second->completions.push_back(one_done);
      continue;
    }

    auto t = std::make_unique<Transfer>();
    t->id = id;
    t->target = target;
    t->arcs = arcs;
    for (const bson::Document& record : records) {
      const std::string key = core::RecordSelfKey(record);
      const std::uint32_t point = hashring::Ring::HashKey(key);
      for (const hashring::Range& arc : t->arcs) {
        if (arc.Contains(point)) {
          t->keys.emplace_back(point, key);
          break;
        }
      }
    }
    std::sort(t->keys.begin(), t->keys.end());
    t->keys.erase(std::unique(t->keys.begin(), t->keys.end()), t->keys.end());
    t->completions.push_back(one_done);
    t->last_progress = env_.executor->NowMicros();
    t->next_send_at = t->last_progress;

    if (t->keys.empty()) {
      // Nothing to move: tell the target to drop any stale cursor from an
      // earlier partial attempt and finish immediately.
      env_.send_msg(target, kMsgTransferDone,
                EncodeTransferDone(TransferDoneMsg{id}));
      stats_.arcs_completed += t->arcs.size();
      one_done();
      continue;
    }

    ++stats_.transfers_started;
    Transfer& ref = *t;
    transfers_[id] = std::move(t);
    SendDigest(ref);
  }
  EnsureRetryTicker();
}

void Rebalancer::SendDigest(Transfer& t) {
  RangeDigestMsg digest;
  digest.transfer_id = t.id;
  digest.arcs = t.arcs;
  digest.total_records = t.keys.size();
  env_.send_msg(t.target, kMsgRangeDigest, EncodeRangeDigest(digest));
}

bool Rebalancer::SourcingKey(std::string_view key) const {
  if (transfers_.empty()) return false;
  const std::uint32_t point = hashring::Ring::HashKey(key);
  for (const auto& [id, t] : transfers_) {
    if (t->done) continue;
    for (const hashring::Range& arc : t->arcs) {
      if (arc.Contains(point)) return true;
    }
  }
  return false;
}

void Rebalancer::HandleRangeAck(const std::string& from,
                                const bson::Document& body) {
  if (!running_ || !env_.available()) return;
  Result<RangeAckMsg> ack = DecodeRangeAck(body);
  if (!ack.ok()) return;
  auto it = transfers_.find(ack->transfer_id);
  if (it == transfers_.end() || it->second->done) return;
  Transfer& t = *it->second;
  if (from != t.target) return;

  if (t.batch_in_flight) {
    t.batch_in_flight = false;
    global_inflight_bytes_ -= t.inflight_bytes;
    t.inflight_bytes = 0;
  }
  if (!ack->ok) return;  // target refused; the retry ticker re-probes

  // The target's watermark is authoritative: rewind when pushes were lost
  // (its cursor is behind ours), fast-forward when it already holds a
  // prefix from an earlier attempt (resume).
  const std::pair<std::uint32_t, std::string> wm{ack->watermark.point,
                                                 ack->watermark.key};
  const std::size_t position =
      ack->watermark.IsZero()
          ? 0
          : static_cast<std::size_t>(
                std::upper_bound(t.keys.begin(), t.keys.end(), wm) -
                t.keys.begin());
  if (position > t.cursor) ++stats_.resumes;
  t.cursor = position;
  t.last_progress = env_.executor->NowMicros();

  const std::string id = t.id;
  MaybeSendNext(id);

  // A freed byte budget may unblock transfers stalled on it.
  if (global_inflight_bytes_ < kMaxInflightBytes) {
    std::vector<std::string> ids;
    for (const auto& [other_id, other] : transfers_) {
      if (!other->done && !other->batch_in_flight && other_id != id) {
        ids.push_back(other_id);
      }
    }
    for (const std::string& other_id : ids) MaybeSendNext(other_id);
  }
}

void Rebalancer::MaybeSendNext(const std::string& id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second->done) return;
  Transfer& t = *it->second;
  if (!running_ || t.batch_in_flight) return;
  if (t.cursor >= t.keys.size()) {
    FinishTransfer(id, /*completed=*/true);
    return;
  }
  if (!env_.available()) return;  // crashed; the retry ticker resumes us

  const Micros now = env_.executor->NowMicros();
  if (config_.records_per_sec > 0 && now < t.next_send_at) {
    ++stats_.throttle_stalls;
    if (t.send_timer == 0) {
      t.send_timer =
          env_.executor->ScheduleTimer(t.next_send_at - now, [this, id]() {
            auto timer_it = transfers_.find(id);
            if (timer_it != transfers_.end()) timer_it->second->send_timer = 0;
            MaybeSendNext(id);
          });
    }
    return;
  }
  if (global_inflight_bytes_ >= kMaxInflightBytes) {
    ++stats_.throttle_stalls;  // retried when an ack frees the budget
    return;
  }

  const std::size_t batch =
      config_.batch_records > 0 ? static_cast<std::size_t>(config_.batch_records)
                                : 32;
  const std::size_t end_index = std::min(t.cursor + batch, t.keys.size());
  RangePushMsg push;
  push.transfer_id = id;
  std::size_t bytes = 0;
  for (std::size_t i = t.cursor; i < end_index; ++i) {
    Result<bson::Document> record = env_.lookup(t.keys[i].second);
    if (!record.ok()) continue;  // purged since the snapshot; cursor still advances
    bytes += bson::EncodedSize(*record);
    push.records.push_back(std::move(*record));
  }
  push.watermark =
      Watermark{t.keys[end_index - 1].first, t.keys[end_index - 1].second};

  if (config_.records_per_sec > 0) {
    const Micros pace = static_cast<Micros>(end_index - t.cursor) *
                        kMicrosPerSecond / config_.records_per_sec;
    t.next_send_at = std::max(now, t.next_send_at) + pace;
  }
  t.cursor = end_index;
  t.batch_in_flight = true;
  t.inflight_bytes = bytes;
  global_inflight_bytes_ += bytes;
  stats_.records_streamed += push.records.size();
  stats_.bytes_streamed += bytes;
  t.last_progress = now;
  env_.send_msg(t.target, kMsgRangePush, EncodeRangePush(push));
}

void Rebalancer::FinishTransfer(const std::string& id, bool completed) {
  auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  Transfer& t = *it->second;
  t.done = true;
  if (t.send_timer != 0) {
    env_.executor->CancelTimer(t.send_timer);
    t.send_timer = 0;
  }
  if (t.batch_in_flight) {
    global_inflight_bytes_ -= t.inflight_bytes;
    t.inflight_bytes = 0;
    t.batch_in_flight = false;
  }
  if (completed) {
    env_.send_msg(t.target, kMsgTransferDone,
              EncodeTransferDone(TransferDoneMsg{id}));
    ++stats_.transfers_completed;
    stats_.arcs_completed += t.arcs.size();
  } else {
    ++stats_.transfers_aborted;
  }
  std::vector<std::function<void()>> completions = std::move(t.completions);
  transfers_.erase(it);
  for (auto& completion : completions) completion();
}

void Rebalancer::EnsureRetryTicker() {
  if (retry_ticker_ != 0 || transfers_.empty() || !running_) return;
  retry_ticker_ = env_.executor->ScheduleTimer(kTransferRetryInterval,
                                               [this]() { OnRetryTick(); });
}

void Rebalancer::OnRetryTick() {
  retry_ticker_ = 0;
  if (!running_) return;
  const Micros now = env_.executor->NowMicros();
  std::vector<std::string> ids;
  ids.reserve(transfers_.size());
  for (const auto& [id, t] : transfers_) ids.push_back(id);
  for (const std::string& id : ids) {
    auto it = transfers_.find(id);
    if (it == transfers_.end() || it->second->done) continue;
    Transfer& t = *it->second;
    if (!env_.peer_known(t.target)) {
      HOTMAN_LOG(kWarn) << env_.self << ": aborting transfer " << id  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                        << " — target " << t.target << " left the ring";
      FinishTransfer(id, /*completed=*/false);
      continue;
    }
    if (!env_.available()) continue;
    if (now - t.last_progress >= kTransferRetryInterval) {
      // No progress for a full interval: the push or its ack was lost, or
      // the target was down. Drop the in-flight claim and re-probe; the
      // digest ack rewinds or fast-forwards the cursor as needed.
      if (t.batch_in_flight) {
        t.batch_in_flight = false;
        global_inflight_bytes_ -= t.inflight_bytes;
        t.inflight_bytes = 0;
      }
      ++stats_.retries;
      SendDigest(t);
    } else if (!t.batch_in_flight) {
      MaybeSendNext(id);
    }
  }
  EnsureRetryTicker();
}

// --- target side -----------------------------------------------------------

void Rebalancer::HandleRangeDigest(const std::string& from,
                                   const bson::Document& body) {
  if (!running_ || !env_.available()) return;
  Result<RangeDigestMsg> digest = DecodeRangeDigest(body);
  if (!digest.ok()) return;
  const Watermark& wm = watermarks_[digest->transfer_id];  // default: zero
  RangeAckMsg ack;
  ack.transfer_id = digest->transfer_id;
  ack.ok = true;
  ack.watermark = wm;
  env_.send_msg(from, kMsgRangeAck, EncodeRangeAck(ack));
}

void Rebalancer::HandleRangePush(const std::string& from,
                                 const bson::Document& body) {
  if (!running_ || !env_.available()) return;
  Result<RangePushMsg> push = DecodeRangePush(body);
  if (!push.ok()) return;
  const std::string id = push->transfer_id;
  Watermark& wm = watermarks_[id];

  std::vector<bson::Document> fresh;
  fresh.reserve(push->records.size());
  for (bson::Document& record : push->records) {
    const std::string key = core::RecordSelfKey(record);
    Watermark at{hashring::Ring::HashKey(key), key};
    if (!wm.IsZero() && at <= wm) {
      ++stats_.records_skipped;  // resume overlap; already applied
      continue;
    }
    fresh.push_back(std::move(record));
  }

  const Watermark batch_mark =
      wm < push->watermark ? push->watermark : wm;
  auto finish = [this, id, from, batch_mark](bool all_ok) {
    if (!running_ || !env_.available()) return;
    RangeAckMsg ack;
    ack.transfer_id = id;
    Watermark& cursor = watermarks_[id];
    if (all_ok) {
      // Only a fully-applied batch advances the cursor; a partial batch is
      // re-streamed by the source after its retry probe.
      if (cursor < batch_mark) cursor = batch_mark;
      ack.ok = true;
    } else {
      ack.ok = false;
    }
    ack.watermark = cursor;
    env_.send_msg(from, kMsgRangeAck, EncodeRangeAck(ack));
  };

  if (fresh.empty()) {
    finish(true);
    return;
  }
  // Apply through the host's service station so an inbound stream competes
  // for the same capacity as foreground work (that contention is exactly
  // what the throttle bounds); ack once the whole batch has been absorbed.
  auto pending = std::make_shared<std::size_t>(fresh.size());
  auto all_ok = std::make_shared<bool>(true);
  stats_.records_received += fresh.size();
  for (bson::Document& record : fresh) {
    env_.apply(record, [pending, all_ok, finish](bool ok) {
      if (!ok) *all_ok = false;
      if (--*pending == 0) finish(*all_ok);
    });
  }
}

void Rebalancer::HandleTransferDone(const std::string& from,
                                    const bson::Document& body) {
  (void)from;
  if (!running_) return;
  Result<TransferDoneMsg> done = DecodeTransferDone(body);
  if (!done.ok()) return;
  watermarks_.erase(done->transfer_id);
}

// --- introspection ---------------------------------------------------------

std::size_t Rebalancer::active_transfers() const {
  std::size_t active = 0;
  for (const auto& [id, t] : transfers_) {
    if (!t->done) ++active;
  }
  return active;
}

std::string Rebalancer::StatusJson() const {
  std::string json = "{\"active\":" + std::to_string(active_transfers()) +
                     ",\"inflight_bytes\":" +
                     std::to_string(global_inflight_bytes_) +
                     ",\"transfers\":[";
  bool first = true;
  for (const auto& [id, t] : transfers_) {
    if (t->done) continue;
    if (!first) json += ",";
    first = false;
    json += "{\"id\":\"" + id + "\",\"target\":\"" + t->target +
            "\",\"streamed\":" + std::to_string(t->cursor) +
            ",\"total\":" + std::to_string(t->keys.size()) + "}";
  }
  json += "]}";
  return json;
}

}  // namespace hotman::rebalance
