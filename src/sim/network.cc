#include "sim/network.h"

#include <algorithm>

namespace hotman::sim {

namespace {

std::pair<std::string, std::string> NormalizedLink(const std::string& a,
                                                   const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

SimNetwork::SimNetwork(EventLoop* loop, NetworkConfig config, std::uint64_t seed)
    : loop_(loop), config_(config), rng_(seed), chaos_rng_(seed ^ 0xc4a05a11dead1ull) {}

void SimNetwork::SetLinkChaos(const std::string& from, const std::string& to,
                              LinkChaos chaos) {
  link_chaos_[{from, to}] = chaos;
}

void SimNetwork::ClearLinkChaos(const std::string& from, const std::string& to) {
  link_chaos_.erase({from, to});
}

void SimNetwork::SetEndpointChaos(const std::string& name, LinkChaos chaos) {
  endpoint_chaos_[name] = chaos;
}

void SimNetwork::ClearEndpointChaos(const std::string& name) {
  endpoint_chaos_.erase(name);
}

void SimNetwork::ClearAllChaos() {
  link_chaos_.clear();
  endpoint_chaos_.clear();
}

bool SimNetwork::ApplyChaos(const Message& msg, Micros* delay, bool* duplicate) {
  if (link_chaos_.empty() && endpoint_chaos_.empty()) return true;
  const LinkChaos* rules[3] = {nullptr, nullptr, nullptr};
  auto link_it = link_chaos_.find({msg.from, msg.to});
  if (link_it != link_chaos_.end()) rules[0] = &link_it->second;
  auto from_it = endpoint_chaos_.find(msg.from);
  if (from_it != endpoint_chaos_.end()) rules[1] = &from_it->second;
  if (msg.to != msg.from) {
    auto to_it = endpoint_chaos_.find(msg.to);
    if (to_it != endpoint_chaos_.end()) rules[2] = &to_it->second;
  }
  for (const LinkChaos* rule : rules) {
    if (rule == nullptr || !rule->Active()) continue;
    if (rule->drop_probability > 0.0 &&
        chaos_rng_.Chance(rule->drop_probability)) {
      return false;
    }
    if (rule->extra_delay_max > 0) {
      const Micros lo = rule->extra_delay_min;
      const Micros hi = std::max(rule->extra_delay_max, lo);
      *delay += static_cast<Micros>(chaos_rng_.UniformRange(lo, hi));
    }
    if (rule->duplicate_probability > 0.0 &&
        chaos_rng_.Chance(rule->duplicate_probability)) {
      *duplicate = true;
    }
  }
  return true;
}

void SimNetwork::RegisterEndpoint(const std::string& name, Handler handler) {
  endpoints_[name] = std::move(handler);
}

void SimNetwork::UnregisterEndpoint(const std::string& name) {
  endpoints_.erase(name);
}

Micros SimNetwork::DeliveryDelay(std::size_t payload_bytes) {
  const Micros transmission = static_cast<Micros>(
      static_cast<double>(payload_bytes) / config_.bandwidth_bytes_per_sec *
      kMicrosPerSecond);
  Micros jitter = 0;
  if (config_.jitter > 0) {
    jitter = static_cast<Micros>(rng_.Uniform(static_cast<std::uint64_t>(config_.jitter)));
  }
  return config_.base_latency + transmission + jitter;
}

bool SimNetwork::Send(Message msg, std::size_t payload_bytes) {
  ++stats_.frames_sent;
  stats_.bytes_sent += payload_bytes;
  const bool no_endpoint = endpoints_.count(msg.to) == 0;
  const bool endpoint_cut =
      disconnected_.count(msg.from) > 0 || disconnected_.count(msg.to) > 0;
  const bool link_cut = cut_links_.count(NormalizedLink(msg.from, msg.to)) > 0;
  const bool dropped = rng_.Chance(config_.drop_probability);
  // The delay must be drawn even for dropped messages so that the random
  // stream (and therefore the rest of the run) is independent of fault
  // placement.
  const Micros delay = DeliveryDelay(payload_bytes);
  if (no_endpoint || endpoint_cut || link_cut || dropped) {
    // Every fault is attributed to exactly one cause, most specific first.
    stats_.Drop(no_endpoint    ? &net::NetStats::dropped_no_endpoint
                : endpoint_cut ? &net::NetStats::dropped_disconnected
                : link_cut     ? &net::NetStats::dropped_partition
                               : &net::NetStats::dropped_random);
    return false;
  }
  Micros chaos_delay = delay;
  bool duplicate = false;
  if (!ApplyChaos(msg, &chaos_delay, &duplicate)) {
    stats_.Drop(&net::NetStats::dropped_chaos);
    return false;
  }
  msg.sent_at = loop_->Now();
  if (duplicate) {
    // The copy rolls its own extra delay so the pair lands out of order
    // more often than not — duplication doubles as a reordering stressor.
    Micros dup_delay = delay;
    bool dup_again = false;
    if (ApplyChaos(msg, &dup_delay, &dup_again)) {
      ++stats_.chaos_duplicates;
      ScheduleDelivery(msg, payload_bytes, dup_delay);
    }
  }
  ScheduleDelivery(std::move(msg), payload_bytes, chaos_delay);
  return true;
}

void SimNetwork::ScheduleDelivery(Message msg, std::size_t payload_bytes,
                                  Micros delay) {
  loop_->Schedule(delay, [this, payload_bytes, msg = std::move(msg)]() {
    // Re-check on delivery: the endpoint may have died in flight.
    auto it = endpoints_.find(msg.to);
    if (it == endpoints_.end() || disconnected_.count(msg.to) > 0) {
      stats_.Drop(&net::NetStats::dropped_in_flight);
      return;
    }
    stats_.Deliver(msg, payload_bytes, loop_->Now());
    it->second(msg);
  });
}

void SimNetwork::PartitionLink(const std::string& a, const std::string& b) {
  cut_links_.insert(NormalizedLink(a, b));
}

void SimNetwork::HealLink(const std::string& a, const std::string& b) {
  cut_links_.erase(NormalizedLink(a, b));
}

void SimNetwork::Disconnect(const std::string& name) { disconnected_.insert(name); }

void SimNetwork::Reconnect(const std::string& name) { disconnected_.erase(name); }

bool SimNetwork::IsDisconnected(const std::string& name) const {
  return disconnected_.count(name) > 0;
}

bool SimNetwork::HasEndpoint(const std::string& name) const {
  return endpoints_.count(name) > 0;
}

}  // namespace hotman::sim
