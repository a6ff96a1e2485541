#include "cluster/node_server.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/record.h"
#include "hashring/ring.h"

namespace hotman::cluster {

NodeServer::NodeServer(StorageNode* node, net::Transport* transport)
    : node_(node), transport_(transport) {}

void NodeServer::Start() {
  net::Dispatcher* d = node_->dispatcher();
  d->On(net::kMsgClientPut,
        [this](const net::Message& msg) { HandleClientPut(msg); });
  d->On(net::kMsgClientGet,
        [this](const net::Message& msg) { HandleClientGet(msg); });
  d->On(net::kMsgClientDelete,
        [this](const net::Message& msg) { HandleClientDelete(msg); });
  d->On(net::kMsgClientStats,
        [this](const net::Message& msg) { HandleClientStats(msg); });
  d->On(net::kMsgClientJoin,
        [this](const net::Message& msg) { HandleClientJoin(msg); });
  d->On(net::kMsgClientDecommission,
        [this](const net::Message& msg) { HandleClientDecommission(msg); });
  d->On(net::kMsgClientRebalanceStatus,
        [this](const net::Message& msg) { HandleClientRebalanceStatus(msg); });
}

void NodeServer::Reply(const std::string& to, const char* type,
                       bson::Document body) {
  net::Message reply;
  reply.from = node_->id();
  reply.to = to;
  reply.type = type;
  reply.body = std::move(body);
  transport_->Send(std::move(reply));
}

void NodeServer::HandleClientPut(const net::Message& msg) {
  auto put = net::DecodeClientPut(msg.body);
  if (!put.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_put from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << put.status().ToString();
    return;
  }
  ++client_puts_;
  const std::uint64_t req = put->req;
  const std::string client = msg.from;
  node_->CoordinatePut(put->key, std::move(put->value),
                       [this, req, client](const Status& s) {
                         net::ClientAckMsg ack;
                         ack.req = req;
                         ack.ok = s.ok();
                         if (!s.ok()) ack.error = s.ToString();
                         Reply(client, net::kMsgClientPutAck,
                               net::EncodeClientAck(ack));
                       });
}

void NodeServer::HandleClientGet(const net::Message& msg) {
  auto get = net::DecodeClientGet(msg.body);
  if (!get.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_get from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << get.status().ToString();
    return;
  }
  ++client_gets_;
  const std::uint64_t req = get->req;
  const std::string client = msg.from;
  node_->CoordinateGet(
      get->key, [this, req, client](const Result<bson::Document>& r) {
        net::ClientGetAckMsg ack;
        ack.req = req;
        if (!r.ok()) {
          // NotFound is an authoritative quorum answer, not a failure.
          ack.ok = r.status().IsNotFound();
          if (!ack.ok) ack.error = r.status().ToString();
        } else if (core::RecordIsDeleted(*r)) {
          ack.ok = true;  // tombstone: a successful read of "gone"
        } else {
          ack.ok = true;
          ack.found = true;
          ack.value = core::RecordValue(*r);
        }
        Reply(client, net::kMsgClientGetAck, net::EncodeClientGetAck(ack));
      });
}

void NodeServer::HandleClientDelete(const net::Message& msg) {
  auto del = net::DecodeClientGet(msg.body);
  if (!del.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_delete from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << del.status().ToString();
    return;
  }
  ++client_deletes_;
  const std::uint64_t req = del->req;
  const std::string client = msg.from;
  node_->CoordinateDelete(del->key, [this, req, client](const Status& s) {
    net::ClientAckMsg ack;
    ack.req = req;
    ack.ok = s.ok();
    if (!s.ok()) ack.error = s.ToString();
    Reply(client, net::kMsgClientDeleteAck, net::EncodeClientAck(ack));
  });
}

void NodeServer::HandleClientStats(const net::Message& msg) {
  auto stats = net::DecodeClientGet(msg.body);
  if (!stats.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_stats from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << stats.status().ToString();
    return;
  }
  net::ClientStatsAckMsg ack;
  ack.req = stats->req;
  ack.json = StatsJson();
  Reply(msg.from, net::kMsgClientStatsAck, net::EncodeClientStatsAck(ack));
}

void NodeServer::HandleClientJoin(const net::Message& msg) {
  auto join = net::DecodeClientJoin(msg.body);
  if (!join.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_join from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << join.status().ToString();
    return;
  }
  net::ClientAckMsg ack;
  ack.req = join->req;
  NodeSpec spec;
  spec.address = join->node;
  spec.capacity = join->capacity;
  const std::int64_t base = join->vnodes > 0 ? join->vnodes : spec.vnodes;
  // EffectiveVnodes' count, computed before it is narrowed to int.
  const double weight = std::round(static_cast<double>(base) * join->capacity);
  if (spec.address.empty() ||
      !(join->capacity > 0.0 && std::isfinite(join->capacity))) {
    ack.error = "join needs a node endpoint and a finite capacity > 0";
  } else if (base > hashring::kMaxVnodes || weight > hashring::kMaxVnodes) {
    ack.error = "join weight is above " + std::to_string(hashring::kMaxVnodes) +
                " vnodes";
  } else {
    // The joining hotmand must already be up and listening on `node`;
    // announcing it here pulls it into every member's ring and the
    // rebalancer streams it its share of the data.
    spec.vnodes = static_cast<int>(base);
    node_->AnnounceAddition(spec.address, EffectiveVnodes(spec));
    ack.ok = true;
  }
  Reply(msg.from, net::kMsgClientJoinAck, net::EncodeClientAck(ack));
}

void NodeServer::HandleClientDecommission(const net::Message& msg) {
  auto dec = net::DecodeClientGet(msg.body);
  if (!dec.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_decommission from "  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << msg.from << ": " << dec.status().ToString();
    return;
  }
  const std::uint64_t req = dec->req;
  const std::string client = msg.from;
  // The ack races the shutdown: once the decommission completes this node
  // has left the ring and stopped, so a completion-time reply could never
  // be delivered. Reply "started" as soon as the guards pass and let the
  // operator watch progress through rebalance-status on the survivors;
  // only a synchronous rejection (already decommissioning, last node, ...)
  // reports an error.
  auto replied = std::make_shared<bool>(false);
  node_->StartDecommission([this, req, client, replied](const Status& s) {
    if (*replied || s.ok()) return;
    *replied = true;
    net::ClientAckMsg ack;
    ack.req = req;
    ack.error = s.ToString();
    Reply(client, net::kMsgClientDecommissionAck, net::EncodeClientAck(ack));
  });
  if (!*replied) {
    *replied = true;
    net::ClientAckMsg ack;
    ack.req = req;
    ack.ok = true;
    Reply(client, net::kMsgClientDecommissionAck, net::EncodeClientAck(ack));
  }
}

void NodeServer::HandleClientRebalanceStatus(const net::Message& msg) {
  auto status = net::DecodeClientGet(msg.body);
  if (!status.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_rebalance_status from "  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << msg.from << ": " << status.status().ToString();
    return;
  }
  net::ClientStatsAckMsg ack;
  ack.req = status->req;
  ack.json = node_->rebalancer()->StatusJson();
  Reply(msg.from, net::kMsgClientRebalanceStatusAck,
        net::EncodeClientStatsAck(ack));
}

std::string NodeServer::StatsJson() const {
  metrics::Registry registry;
  node_->ExportStats(&registry);
  node_->heat_snapshot().ExportTo(&registry);
  registry.counter("client_puts")->Increment(client_puts_);
  registry.counter("client_gets")->Increment(client_gets_);
  registry.counter("client_deletes")->Increment(client_deletes_);
  transport_->ExportStats(&registry);
  node_->sharded()->ExportStats(&registry);  // sharded.* (shards, hops, drops)
  return registry.ToJson();
}

}  // namespace hotman::cluster
