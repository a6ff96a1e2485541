#ifndef HOTMAN_NET_TRANSPORT_H_
#define HOTMAN_NET_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>

#include "common/metrics.h"
#include "net/executor.h"
#include "net/message.h"

namespace hotman::net {

/// Message transport between named endpoints, plus the timer surface those
/// endpoints schedule against (Executor). This is the seam between the
/// distributed layers and the wire: cluster/ and gossip/ are written purely
/// against Transport, so the identical StorageNode/Gossiper code runs
/// deterministically over net::SimTransport in tests and experiments, and
/// as real cooperating processes over net::TcpTransport in `hotmand`.
///
/// Delivery semantics (both implementations): best-effort, unordered across
/// peers, FIFO-ish per peer, silently lossy — a message may be dropped when
/// the destination is unknown, a connection is down or backed up, or (sim)
/// a partition/random loss strikes. Senders cannot observe delivery; the
/// replication layer's quorums, timeouts and hinted handoff own reliability.
class Transport : public Executor {
 public:
  using Handler = std::function<void(const Message&)>;

  /// Registers `name` as a local endpoint; messages addressed to it invoke
  /// `handler`. A message from a peer fires on the transport's event
  /// thread. A loopback message (sent to a local endpoint) fires on the
  /// executor that sent it: TcpTransport runs a shard reactor's frame to
  /// its own node on that reactor, so a handler reachable from several
  /// shards must route by shard itself (net::Dispatcher + RunOnShard). The
  /// simulator has one event thread, so both cases coincide there.
  /// Re-registering replaces the handler (a restarted node).
  virtual void RegisterEndpoint(const std::string& name, Handler handler) = 0;

  /// Removes the endpoint; messages addressed to it are dropped (counted).
  virtual void UnregisterEndpoint(const std::string& name) = 0;

  /// Sends `msg` (msg.from/to/type must be set). Asynchronous and
  /// fire-and-forget; the transport stamps msg.sent_at.
  virtual void Send(Message msg) = 0;

  /// Writes this transport's net.* metrics into `registry`, every NetStats
  /// row (net/net_stats.h) included, so sim benches and real `hotmand`
  /// runs feed one dashboard.
  virtual void ExportStats(metrics::Registry* registry) const = 0;
};

/// Per-type handler table: the piece every endpoint used to hand-roll as an
/// if/else chain over msg.type. Register handlers with On(), install the
/// result of AsTransportHandler() as the endpoint handler; unknown types are
/// logged and counted rather than crashing (hostile or version-skewed peers
/// may send anything). The table must be complete before the endpoint is
/// registered: from then on Dispatch may run on several threads at once
/// (see Transport::RegisterEndpoint).
class Dispatcher {
 public:
  using Handler = Transport::Handler;

  /// Registers (or replaces) the handler for `type`.
  void On(const std::string& type, Handler handler);

  /// Routes one message; returns false when no handler matched.
  bool Dispatch(const Message& msg) const;

  /// Endpoint handler that dispatches and warn-logs unmatched types.
  Transport::Handler AsTransportHandler();

  std::size_t unknown_count() const {
    return unknown_.load(std::memory_order_relaxed);
  }

 private:
  std::map<std::string, Handler> handlers_;
  std::atomic<std::size_t> unknown_{0};
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_TRANSPORT_H_
