#include "sim/failure_injector.h"

#include <algorithm>

namespace hotman::sim {

using docstore::DocStoreServer;
using docstore::FaultMode;

namespace {

/// A broken-down node stays silent for a uniform duration in this window,
/// long enough for seeds to classify the failure as long and run repair;
/// then it is "replaced" and rejoins.
constexpr Micros kBreakdownMin = 30 * kMicrosPerSecond;
constexpr Micros kBreakdownMax = 90 * kMicrosPerSecond;

}  // namespace

FailureInjector::FailureInjector(EventLoop* loop, SimNetwork* network,
                                 FailureConfig config, std::uint64_t seed)
    : loop_(loop), network_(network), config_(config), rng_(seed) {}

Micros FailureInjector::ShortDuration() {
  const Micros span = config_.short_failure_max - config_.short_failure_min;
  if (span <= 0) return config_.short_failure_min;
  return config_.short_failure_min +
         static_cast<Micros>(rng_.Uniform(static_cast<std::uint64_t>(span)));
}

Micros FailureInjector::BreakdownDuration() {
  constexpr auto kSpan = static_cast<std::uint64_t>(kBreakdownMax - kBreakdownMin);
  return kBreakdownMin + static_cast<Micros>(rng_.Uniform(kSpan));
}

void FailureInjector::RegisterServer(DocStoreServer* server) {
  if (std::find(servers_.begin(), servers_.end(), server) == servers_.end()) {
    servers_.push_back(server);
  }
}

bool FailureInjector::InjectRolled(DocStoreServer* server, bool net, bool disk,
                                   bool block, bool down, Micros short_duration) {
  if (server->fault() != FaultMode::kNone) return false;  // already failed

  // Long failure dominates: it subsumes any simultaneous short failure.
  if (down) {
    ++stats_.breakdowns;
    server->SetFault(FaultMode::kDown);
    if (network_ != nullptr) network_->Disconnect(server->address());
    ScheduleBreakdownRecovery(server);
    return true;
  }
  if (net) {
    ++stats_.network_exceptions;
    server->SetFault(FaultMode::kNetworkException);
    if (network_ != nullptr) network_->Disconnect(server->address());
    ScheduleRecovery(server, short_duration);
    return true;
  }
  if (disk) {
    ++stats_.disk_errors;
    server->SetFault(FaultMode::kDiskError);
    ScheduleRecovery(server, short_duration);
    return true;
  }
  if (block) {
    ++stats_.blocked_processes;
    server->SetFault(FaultMode::kBlocked);
    ScheduleRecovery(server, short_duration);
    return true;
  }
  return false;
}

bool FailureInjector::MaybeInject(DocStoreServer* server) {
  // Draw all four dice unconditionally so the random stream is identical
  // across fault/no-fault comparisons of the same seed.
  const bool net = rng_.Chance(config_.p_network_exception);
  const bool disk = rng_.Chance(config_.p_disk_io_error);
  const bool block = rng_.Chance(config_.p_blocking_process);
  const bool down = rng_.Chance(config_.p_node_breakdown);
  const Micros duration = ShortDuration();
  return InjectRolled(server, net, disk, block, down, duration);
}

bool FailureInjector::MaybeInjectAnywhere() {
  const bool net = rng_.Chance(config_.p_network_exception);
  const bool disk = rng_.Chance(config_.p_disk_io_error);
  const bool block = rng_.Chance(config_.p_blocking_process);
  const bool down = rng_.Chance(config_.p_node_breakdown);
  const Micros duration = ShortDuration();
  if (servers_.empty() || !(net || disk || block || down)) return false;
  DocStoreServer* victim = servers_[rng_.Uniform(servers_.size())];
  return InjectRolled(victim, net, disk, block, down, duration);
}

void FailureInjector::Inject(DocStoreServer* server, FaultMode mode, Micros duration) {
  server->SetFault(mode);
  if (network_ != nullptr &&
      (mode == FaultMode::kNetworkException || mode == FaultMode::kDown)) {
    network_->Disconnect(server->address());
  }
  if (mode != FaultMode::kDown && duration > 0) {
    ScheduleRecovery(server, duration);
  }
}

void FailureInjector::Revive(DocStoreServer* server) {
  server->SetFault(FaultMode::kNone);
  if (network_ != nullptr) network_->Reconnect(server->address());
}

void FailureInjector::ScheduleRecovery(DocStoreServer* server, Micros duration) {
  loop_->Schedule(duration, [this, server]() {
    // Only short failures self-recover; a breakdown that replaced the short
    // fault in the meantime must stay.
    if (server->fault() != FaultMode::kDown) {
      server->SetFault(FaultMode::kNone);
      if (network_ != nullptr) network_->Reconnect(server->address());
    }
  });
}

void FailureInjector::ScheduleBreakdownRecovery(DocStoreServer* server) {
  loop_->Schedule(BreakdownDuration(), [this, server]() {
    if (server->fault() != FaultMode::kDown) return;  // manually handled
    Revive(server);
    if (rejoin_) rejoin_(server);
  });
}

}  // namespace hotman::sim
