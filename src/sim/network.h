#ifndef HOTMAN_SIM_NETWORK_H_
#define HOTMAN_SIM_NETWORK_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "net/message.h"
#include "net/net_stats.h"
#include "sim/event_loop.h"
#include "sim/network_config.h"

namespace hotman::sim {

/// The simulated LAN moves the same message type the real transport frames
/// onto sockets; everything crossing the "network" is genuinely
/// serializable. (Alias retained for the many existing sim call sites.)
using Message = ::hotman::net::Message;

/// Deterministic message-passing network over the event loop, with
/// partitions and per-endpoint disconnection for failure experiments.
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;

  SimNetwork(EventLoop* loop, NetworkConfig config, std::uint64_t seed);

  // --- chaos surface (drop/duplicate/reorder; see src/chaos/) ---------------

  /// Installs a probabilistic fault rule on the *directed* link from->to
  /// (asymmetric by construction: the reverse direction is untouched).
  /// Replaces any previous rule on that direction.
  void SetLinkChaos(const std::string& from, const std::string& to,
                    LinkChaos chaos);
  void ClearLinkChaos(const std::string& from, const std::string& to);

  /// Installs a rule applying to every message `name` sends *or* receives
  /// (a slow or flaky node rather than a flaky link).
  void SetEndpointChaos(const std::string& name, LinkChaos chaos);
  void ClearEndpointChaos(const std::string& name);

  /// Removes every chaos rule (the nemesis "heal everything" step).
  void ClearAllChaos();

  /// Registers `name` as a reachable endpoint. Re-registering replaces the
  /// handler (a restarted node).
  void RegisterEndpoint(const std::string& name, Handler handler);

  /// Removes the endpoint entirely (node breakdown).
  void UnregisterEndpoint(const std::string& name);

  /// Sends `msg` (msg.from/to must be set); `payload_bytes` drives the
  /// transmission-time component. Delivery is asynchronous; the message is
  /// dropped, unseen by the sender but counted in stats(), when the
  /// destination is missing, a partition separates the endpoints, or random
  /// loss strikes — exactly like UDP on a flaky LAN. Returns whether the
  /// message was actually enqueued (used by tests; real senders cannot
  /// observe this).
  bool Send(Message msg, std::size_t payload_bytes);

  /// Cuts both directions between `a` and `b`.
  void PartitionLink(const std::string& a, const std::string& b);

  /// Heals the link.
  void HealLink(const std::string& a, const std::string& b);

  /// Disconnects `name` from everyone (network exception at that node).
  void Disconnect(const std::string& name);
  void Reconnect(const std::string& name);
  bool IsDisconnected(const std::string& name) const;

  bool HasEndpoint(const std::string& name) const;

  /// The net.* counters TcpTransport also keeps (SimTransport exports
  /// them). Every frame sent is delivered or dropped under exactly one
  /// cause, so partition experiments can assert what was lost and why;
  /// each delivery records the delay it was scheduled with under its type.
  const net::NetStats& stats() const { return stats_; }

  EventLoop* loop() { return loop_; }

 private:
  Micros DeliveryDelay(std::size_t payload_bytes);
  /// Applies every chaos rule matching msg.from -> msg.to. Returns false
  /// when a drop rule fired; otherwise adds extra delay to `*delay` and
  /// sets `*duplicate` when a duplication rule fired.
  bool ApplyChaos(const Message& msg, Micros* delay, bool* duplicate);
  void ScheduleDelivery(Message msg, std::size_t payload_bytes, Micros delay);

  EventLoop* loop_;
  NetworkConfig config_;
  Rng rng_;
  /// Chaos rolls draw from a separate stream so installing/removing rules
  /// never perturbs the base network's jitter/drop sequence: a run with the
  /// nemesis disabled is bit-identical to one that never linked it.
  Rng chaos_rng_;
  std::map<std::string, Handler> endpoints_;
  std::set<std::pair<std::string, std::string>> cut_links_;  // normalized pairs
  std::set<std::string> disconnected_;
  std::map<std::pair<std::string, std::string>, LinkChaos> link_chaos_;
  std::map<std::string, LinkChaos> endpoint_chaos_;
  net::NetStats stats_;
};

}  // namespace hotman::sim

#endif  // HOTMAN_SIM_NETWORK_H_
