#ifndef HOTMAN_NET_SIM_TRANSPORT_H_
#define HOTMAN_NET_SIM_TRANSPORT_H_

#include <string>

#include "net/transport.h"
#include "sim/network.h"
#include "sim/network_config.h"

namespace hotman::net {

/// Transport over the deterministic simulator: adapts sim::SimNetwork +
/// sim::EventLoop to the net::Transport surface the cluster and gossip
/// layers are written against. Owns the SimNetwork; the EventLoop is shared
/// with the experiment driver (which advances virtual time).
///
/// Payload accounting uses bson::EncodedSize(msg.body) — the bytes the real
/// transport would put on the wire for the body — so simulated transmission
/// times are identical to what SimNetwork users measured before the
/// Transport split.
class SimTransport : public Transport {
 public:
  SimTransport(sim::EventLoop* loop, sim::NetworkConfig config,
               std::uint64_t seed)
      : loop_(loop), network_(loop, config, seed) {}

  // Transport surface.
  void RegisterEndpoint(const std::string& name, Handler handler) override {
    network_.RegisterEndpoint(name, std::move(handler));
  }
  void UnregisterEndpoint(const std::string& name) override {
    network_.UnregisterEndpoint(name);
  }
  void Send(Message msg) override;
  void ExportStats(metrics::Registry* registry) const override {
    network_.stats().ExportTo(registry);
  }

  // Executor surface (delegates to the sim loop).
  TimerId ScheduleTimer(Micros delay, std::function<void()> fn) override {
    return loop_->ScheduleTimer(delay, std::move(fn));
  }
  bool CancelTimer(TimerId id) override { return loop_->CancelTimer(id); }
  Micros NowMicros() const override { return loop_->NowMicros(); }
  const Clock* clock() const override { return loop_->clock(); }

  // Fault-injection passthroughs, so failure experiments keep their exact
  // API (`cluster.network()->PartitionLink(...)`) across the refactor.
  void PartitionLink(const std::string& a, const std::string& b) {
    network_.PartitionLink(a, b);
  }
  void HealLink(const std::string& a, const std::string& b) {
    network_.HealLink(a, b);
  }
  void Disconnect(const std::string& name) { network_.Disconnect(name); }
  void Reconnect(const std::string& name) { network_.Reconnect(name); }
  bool IsDisconnected(const std::string& name) const {
    return network_.IsDisconnected(name);
  }
  bool HasEndpoint(const std::string& name) const {
    return network_.HasEndpoint(name);
  }

  // Chaos passthroughs (probabilistic drop/duplicate/reorder rules the
  // nemesis scheduler in src/chaos/ composes into timed fault schedules).
  void SetLinkChaos(const std::string& from, const std::string& to,
                    sim::LinkChaos chaos) {
    network_.SetLinkChaos(from, to, chaos);
  }
  void ClearLinkChaos(const std::string& from, const std::string& to) {
    network_.ClearLinkChaos(from, to);
  }
  void SetEndpointChaos(const std::string& name, sim::LinkChaos chaos) {
    network_.SetEndpointChaos(name, chaos);
  }
  void ClearEndpointChaos(const std::string& name) {
    network_.ClearEndpointChaos(name);
  }
  void ClearAllChaos() { network_.ClearAllChaos(); }

  /// The underlying simulator, for components that are explicitly sim-aware
  /// (FailureInjector). Cluster/gossip code must not touch this.
  sim::SimNetwork* sim_network() { return &network_; }

 private:
  sim::EventLoop* loop_;
  sim::SimNetwork network_;
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_SIM_TRANSPORT_H_
