#ifndef HOTMAN_NET_NET_STATS_H_
#define HOTMAN_NET_NET_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/message.h"

namespace hotman::net {

/// The net.* counters and frame latencies of a transport. SimNetwork and
/// TcpTransport both count into one, and both export every kNetCounters
/// row: a cause one transport cannot meet reads 0 there, so sim benches
/// and hotmand's /stats share one schema. Not synchronised; the owner
/// serialises access (the sim's single thread, TcpTransport's stats_mu_).
struct NetStats {
  /// Frames handed to the network. The sim counts every Send, frames it
  /// then drops included; TCP counts frames written or queued to a socket
  /// and loopback frames, not frames dropped before that.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;  ///< handed to an endpoint's handler
  std::uint64_t frames_dropped = 0;    ///< sum of the dropped_* causes
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  // Drop causes: each drop is counted under exactly one, through Drop().
  std::uint64_t dropped_partition = 0;      ///< sim: link cut
  std::uint64_t dropped_disconnected = 0;   ///< sim: an endpoint is disconnected
  std::uint64_t dropped_no_endpoint = 0;    ///< destination unknown
  std::uint64_t dropped_random = 0;         ///< sim: uniform loss
  std::uint64_t dropped_in_flight = 0;      ///< sim: destination gone at delivery
  std::uint64_t dropped_chaos = 0;          ///< sim: a chaos drop rule fired
  std::uint64_t dropped_not_connected = 0;  ///< tcp: no connection, none dialled
  std::uint64_t dropped_backpressure = 0;   ///< tcp: outbound queue full
  /// Sim: extra deliveries made by duplication rules (each also counts in
  /// frames_delivered, which may therefore exceed frames_sent).
  std::uint64_t chaos_duplicates = 0;
  // TCP connection events.
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_failed = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t posts_dropped_stopped = 0;  ///< tcp: loop ops lost to Stop()
  /// Send-to-handler latency of each delivered frame, by message type.
  std::map<std::string, metrics::Histogram> frame_latency;

  using Field = std::uint64_t NetStats::*;

  /// Counts one dropped frame under `cause` and in frames_dropped.
  void Drop(Field cause) {
    ++frames_dropped;
    ++(this->*cause);
  }

  /// Counts one frame handed to its handler at `now`; its latency is
  /// `now - msg.sent_at`.
  void Deliver(const Message& msg, std::size_t bytes, Micros now) {
    ++frames_delivered;
    bytes_delivered += bytes;
    frame_latency[msg.type].Record(now - msg.sent_at);
  }

  /// Adds every kNetCounters row and the net.frame_latency.<type>
  /// histograms to `registry`.
  void ExportTo(metrics::Registry* registry) const;
};

/// The /stats name of one NetStats counter.
struct NetCounter {
  const char* name;
  NetStats::Field field;
};

/// Every NetStats counter with its /stats name; ExportTo loops over this,
/// so a new counter is one field plus one row.
inline constexpr NetCounter kNetCounters[] = {
    {"net.frames_sent", &NetStats::frames_sent},
    {"net.frames_delivered", &NetStats::frames_delivered},
    {"net.frames_dropped", &NetStats::frames_dropped},
    {"net.bytes_sent", &NetStats::bytes_sent},
    {"net.bytes_delivered", &NetStats::bytes_delivered},
    {"net.dropped_partition", &NetStats::dropped_partition},
    {"net.dropped_disconnected", &NetStats::dropped_disconnected},
    {"net.dropped_no_endpoint", &NetStats::dropped_no_endpoint},
    {"net.dropped_random", &NetStats::dropped_random},
    {"net.dropped_in_flight", &NetStats::dropped_in_flight},
    {"net.dropped_chaos", &NetStats::dropped_chaos},
    {"net.dropped_not_connected", &NetStats::dropped_not_connected},
    {"net.dropped_backpressure", &NetStats::dropped_backpressure},
    {"net.chaos_duplicates", &NetStats::chaos_duplicates},
    {"net.connections_opened", &NetStats::connections_opened},
    {"net.connections_accepted", &NetStats::connections_accepted},
    {"net.connections_failed", &NetStats::connections_failed},
    {"net.connections_closed", &NetStats::connections_closed},
    {"net.posts_dropped_stopped", &NetStats::posts_dropped_stopped},
};
static_assert(sizeof(NetStats) ==
                  std::size(kNetCounters) * sizeof(std::uint64_t) +
                      sizeof(NetStats::frame_latency),
              "every NetStats counter needs a kNetCounters row");

inline void NetStats::ExportTo(metrics::Registry* registry) const {
  for (const NetCounter& c : kNetCounters) {
    registry->counter(c.name)->Increment(this->*c.field);
  }
  for (const auto& [type, hist] : frame_latency) {
    registry->histogram("net.frame_latency." + type)->MergeFrom(hist);
  }
}

}  // namespace hotman::net

#endif  // HOTMAN_NET_NET_STATS_H_
