#ifndef HOTMAN_NET_REMOTE_CLIENT_H_
#define HOTMAN_NET_REMOTE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "net/client_proto.h"
#include "net/frame.h"
#include "net/message.h"

namespace hotman::net {

/// Remote client configuration. `name` is the endpoint name this client
/// identifies as in its frames' `from` field; the server learns it from the
/// first frame and routes acks back over the same connection, so it must be
/// unique among the server's peers (pid-qualified names work well).
struct RemoteClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "client";
  Micros connect_timeout = 2 * kMicrosPerSecond;
  Micros op_timeout = 10 * kMicrosPerSecond;
};

/// Blocking client for one `hotmand` node: framed request, poll()-bounded
/// wait for the matching ack. Single-threaded by design — workload drivers
/// that want concurrency open one client per worker.
///
/// A failed send or a dropped connection triggers one transparent
/// redial + resend per operation (all client ops are idempotent:
/// puts/deletes are LWW writes, gets and stats are reads). Timeouts do not
/// resend — the request may still be in flight, and a stale ack arriving
/// later is discarded by request-id matching.
class RemoteClient {
 public:
  explicit RemoteClient(RemoteClientConfig config);
  ~RemoteClient();

  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  /// Dials the node. Operations connect lazily, so calling this is optional;
  /// it exists to surface connectivity errors eagerly.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// `server` is the node's endpoint name (its cluster address).
  Status Put(const std::string& server, const std::string& key, Bytes value);
  Result<Bytes> Get(const std::string& server, const std::string& key);
  Status Delete(const std::string& server, const std::string& key);
  /// The node's metrics snapshot as JSON.
  Result<std::string> Stats(const std::string& server);

  /// Announces `node` (an already-running hotmand) to the ring through the
  /// connected member; data streams to it in the background. `vnodes` <= 0
  /// uses the cluster default; `capacity` scales it for heterogeneous
  /// hardware.
  Status Join(const std::string& server, const std::string& node,
              std::int64_t vnodes = 0, double capacity = 1.0);
  /// Gracefully decommissions the connected node: it streams its data out,
  /// leaves the ring and shuts down. OK means "started", not "finished" —
  /// watch rebalance-status on the survivors for progress.
  Status Decommission(const std::string& server);
  /// The node's rebalancer state (active transfers, cursors) as JSON.
  Result<std::string> RebalanceStatus(const std::string& server);

 private:
  Status SendFrame(const Message& msg);
  /// Reads frames until one with `ack_type` and request id `req` arrives or
  /// `deadline` passes. Frames for other (timed-out, abandoned) requests are
  /// discarded.
  Result<Message> WaitForAck(const char* ack_type, std::uint64_t req,
                             Micros deadline);
  Result<Message> Call(const std::string& server, const char* req_type,
                       const char* ack_type, std::uint64_t req,
                       const bson::Document& body);

  RemoteClientConfig config_;
  int fd_ = -1;
  FrameReader reader_;
  std::uint64_t next_req_ = 1;
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_REMOTE_CLIENT_H_
