#ifndef HOTMAN_SIM_FAILURE_INJECTOR_H_
#define HOTMAN_SIM_FAILURE_INJECTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "docstore/server.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace hotman::sim {

/// Table 2 of the paper: per-operation fault probabilities.
struct FailureConfig {
  double p_network_exception = 0.1;   ///< short failure, type 1
  double p_disk_io_error = 0.002;     ///< short failure, type 2
  double p_blocking_process = 0.002;  ///< short failure, type 3
  double p_node_breakdown = 0.001;    ///< long failure, type 4

  /// Short failures self-recover after a uniform duration in this window.
  Micros short_failure_min = 50 * kMicrosPerMilli;
  Micros short_failure_max = 500 * kMicrosPerMilli;

  /// All-zero configuration (the "no-fault" arm of Figs. 16-17).
  static FailureConfig None() {
    FailureConfig c;
    c.p_network_exception = 0.0;
    c.p_disk_io_error = 0.0;
    c.p_blocking_process = 0.0;
    c.p_node_breakdown = 0.0;
    return c;
  }
};

/// Counters of injected faults (reported by the fault benches).
struct FailureStats {
  std::size_t network_exceptions = 0;
  std::size_t disk_errors = 0;
  std::size_t blocked_processes = 0;
  std::size_t breakdowns = 0;

  std::size_t total() const {
    return network_exceptions + disk_errors + blocked_processes + breakdowns;
  }
};

/// Drives servers (and their network endpoints) into the paper's failure
/// modes. Call MaybeInject(server) once per storage operation targeting
/// that server; the dice decide whether the operation sees a fault. Short
/// failures are automatically healed after a random interval via the event
/// loop ("the failure could recover itself"); a node breakdown lasts 30-90 s
/// (kBreakdownMin/kBreakdownMax in failure_injector.cc), long enough for the
/// cluster layer's long-failure repair, and then the node rejoins.
class FailureInjector {
 public:
  FailureInjector(EventLoop* loop, SimNetwork* network, FailureConfig config,
                  std::uint64_t seed);

  /// Rolls the per-operation dice for `server`. Returns true when a new
  /// fault was injected (an existing fault is left untouched).
  bool MaybeInject(docstore::DocStoreServer* server);

  /// Adds `server` to the pool MaybeInjectAnywhere() draws victims from.
  void RegisterServer(docstore::DocStoreServer* server);

  /// Per-client-operation injection (Table 2's probabilities are per
  /// operation on the whole test system): rolls the dice once and, on a
  /// hit, faults a uniformly chosen registered server.
  bool MaybeInjectAnywhere();

  /// Fired when a broken-down server has been replaced and should rejoin
  /// the cluster (wired by cluster::Cluster).
  using RejoinHandler = std::function<void(docstore::DocStoreServer*)>;
  void SetRejoinHandler(RejoinHandler handler) { rejoin_ = std::move(handler); }

  /// Forces a specific fault (used by targeted tests/examples).
  void Inject(docstore::DocStoreServer* server, docstore::FaultMode mode,
              Micros duration);

  /// Clears any fault on `server` immediately.
  void Revive(docstore::DocStoreServer* server);

  const FailureStats& stats() const { return stats_; }
  const FailureConfig& config() const { return config_; }

 private:
  void ScheduleRecovery(docstore::DocStoreServer* server, Micros duration);
  void ScheduleBreakdownRecovery(docstore::DocStoreServer* server);
  Micros ShortDuration();
  Micros BreakdownDuration();
  bool InjectRolled(docstore::DocStoreServer* server, bool net, bool disk,
                    bool block, bool down, Micros short_duration);

  EventLoop* loop_;
  SimNetwork* network_;
  FailureConfig config_;
  Rng rng_;
  FailureStats stats_;
  std::vector<docstore::DocStoreServer*> servers_;
  RejoinHandler rejoin_;
};

}  // namespace hotman::sim

#endif  // HOTMAN_SIM_FAILURE_INJECTOR_H_
