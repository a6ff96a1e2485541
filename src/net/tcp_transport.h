#ifndef HOTMAN_NET_TCP_TRANSPORT_H_
#define HOTMAN_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/net_stats.h"
#include "net/reactor.h"
#include "net/transport.h"

namespace hotman::net {

/// Address of a named peer.
struct TcpPeer {
  std::string host;
  std::uint16_t port = 0;
};

/// Knobs of the real transport. Defaults suit a loopback cluster; the
/// timeouts exist so a wedged peer costs a bounded amount of memory and
/// time, never a hang.
struct TcpTransportConfig {
  std::string listen_host = "127.0.0.1";
  /// Port to accept on; 0 picks an ephemeral port (see listen_port()),
  /// -1 disables the listener (pure client transport).
  int listen_port = 0;
  /// Known peer addresses by endpoint name. Peers not listed can still
  /// reach us inbound (their name is learned from their first frame) and
  /// receive replies over that connection.
  std::map<std::string, TcpPeer> peers;

  Micros connect_timeout = 2 * kMicrosPerSecond;
  /// Close a connection whose outbound buffer has made no progress for
  /// this long (peer stopped reading).
  Micros write_stall_timeout = 5 * kMicrosPerSecond;
  Micros reconnect_backoff_min = 50 * kMicrosPerMilli;
  Micros reconnect_backoff_max = 2 * kMicrosPerSecond;

  /// Per-connection outbound high watermark: frames that would push the
  /// buffered bytes past this are dropped and counted (backpressure policy;
  /// the replication layer's quorums own reliability, so shedding beats
  /// unbounded buffering).
  std::size_t max_outbound_queue_bytes = 4u * 1024 * 1024;
};

/// Real asynchronous transport: its sockets run on one net::Reactor (an
/// epoll loop on a dedicated thread), length-prefixed BSON frames
/// (net/frame.h), lazy connections with
/// reconnect-backoff, bounded outbound queues, and the same best-effort
/// drop semantics as the simulator — the cluster layer cannot tell them
/// apart, which is the point.
///
/// Threading: timers, and handlers for frames that arrive over a socket,
/// fire exclusively on the loop thread, preserving the single-threaded
/// discipline StorageNode/Gossiper assume. A frame leaves on the thread that
/// sends it: Send writes a frame for an established connection straight to
/// its socket on the calling thread (the loop, a shard reactor or any other
/// thread), under that connection's write lock, and arms EPOLLOUT only when
/// the write comes up short; the loop then flushes the rest. Only a frame
/// with no connection yet goes to the loop, which dials. A loopback frame
/// (addressed to a local endpoint) is a zero-delay timer on the executor
/// that sent it, or on the loop for a thread outside any executor. The
/// public surface (Send, ScheduleTimer, Post, ExportStats, ...) is safe to
/// call from any thread; everything but a direct write is posted to the
/// loop's mailbox, whose eventfd doorbell wakes it.
///
/// Order: the frames one thread sends to one peer over one connection keep
/// their order, and bytes queued behind a connect go out first. While a
/// connection is being set up, a frame waiting in the loop's mailbox can
/// be overtaken by one written directly (best-effort, "FIFO-ish per
/// peer").
///
/// The listener is bound in Start() but accepts only once an endpoint is
/// registered: until then inbound connections wait in the kernel backlog,
/// so a frame that races the owner's RegisterEndpoint is delivered, not
/// dropped.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds the listener (unless disabled) and starts the loop thread.
  /// Fails once started, and after Stop(): a transport does not restart.
  Status Start();

  /// Graceful shutdown: halts the loop, then closes every connection on
  /// the calling thread. Idempotent. Afterwards a Send is dropped and a
  /// ScheduleTimer counted in net.posts_dropped_stopped.
  void Stop();

  /// Actual bound port (resolves listen_port = 0). Valid after Start().
  std::uint16_t listen_port() const { return listen_port_; }

  /// Adds or replaces a peer address (membership change). Thread-safe.
  void AddOrUpdatePeer(const std::string& name, TcpPeer peer);

  /// Runs `fn` on the loop thread (setup of loop-owned components, e.g. the
  /// daemon constructing its StorageNode). Runs inline when already on the
  /// loop thread, before Start(), or once Stop() has returned
  /// (single-threaded setup/teardown contract). A post that races Stop() is
  /// dropped and counted (net.posts_dropped_stopped) — never silently lost
  /// and never run concurrently with the dying loop.
  void Post(std::function<void()> fn);

  /// The loop this transport's sockets run on (ShardedExecutor adopts it
  /// as shard 0).
  Reactor* loop() { return &loop_; }

  // Transport surface.
  void RegisterEndpoint(const std::string& name, Handler handler) override;
  void UnregisterEndpoint(const std::string& name) override;
  void Send(Message msg) override;
  void ExportStats(metrics::Registry* registry) const override;

  // Executor surface. Time is the process steady clock — comparable across
  // the processes of a loopback cluster, which is what makes the per-type
  // frame latency histograms meaningful.
  TimerId ScheduleTimer(Micros delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;
  Micros NowMicros() const override { return loop_.NowMicros(); }
  const Clock* clock() const override { return loop_.clock(); }

 private:
  /// One TCP connection (inbound or outbound). The read side and connect
  /// state are loop-thread-only. The write side is shared: any thread that
  /// holds the connection writes under `write_mu`, a leaf lock.
  struct Conn {
    Conn(int socket_fd, bool armed) : fd(socket_fd), write_armed(armed) {}

    const int fd;
    std::string name;          ///< peer endpoint name; learned from the
                               ///< first frame on inbound connections
    bool connecting = false;   ///< non-blocking connect() still in flight
    bool established = false;
    FrameReader reader;
    Micros connect_started = 0;

    Mutex write_mu;
    /// Set, with the fd closed, by CloseConn/Stop: a writer that sees it
    /// takes the loop path instead of touching a recycled fd.
    bool closed HOTMAN_GUARDED_BY(write_mu) = false;
    /// EPOLLOUT is armed: bytes are queued or a connect is in flight, so a
    /// new frame queues behind them instead of being written directly.
    bool write_armed HOTMAN_GUARDED_BY(write_mu);
    std::string outbuf HOTMAN_GUARDED_BY(write_mu);  ///< pending wire bytes
    std::size_t outbuf_off HOTMAN_GUARDED_BY(write_mu) = 0;
    /// Stall clock: when queued bytes were first left waiting or last
    /// moved. Meaningful only while bytes are queued.
    Micros last_write_progress HOTMAN_GUARDED_BY(write_mu) = 0;
  };

  /// Reconnect state of a named, addressable peer. Loop-thread-only.
  struct PeerState {
    TcpPeer addr;
    Micros backoff = 0;
    Micros next_attempt_at = 0;
  };

  // --- any-thread internals ---
  /// Delivers to a local endpoint on the calling thread (counted as a drop
  /// when the endpoint is gone).
  void DeliverLocally(const Message& msg, std::size_t wire_bytes);
  /// Loopback send: stamps and counts `msg` like a socket frame and
  /// returns the closure that delivers it, for the sender to defer.
  std::function<void()> LoopbackDelivery(Message msg);
  bool HasEndpoint(const std::string& name) const;
  /// Counts one dropped frame under `cause` (NetStats::Drop).
  void CountDrop(NetStats::Field cause);
  /// Counts one connection event and moves the net.connections_open gauge
  /// by `open_delta`.
  void CountConnection(NetStats::Field event, int open_delta);
  std::shared_ptr<Conn> FindConn(const std::string& peer) const;
  /// Writes `frame` to `conn` on the calling thread: straight to the socket
  /// when nothing is queued, else (or for what a short write leaves) into
  /// the outbound buffer with EPOLLOUT armed. Counts it sent, or dropped
  /// past the watermark. False, counting nothing, when `conn` is closed.
  bool WriteFrame(Conn* conn, const std::string& frame);
  void SetWriteArmed(Conn* conn, bool armed) HOTMAN_REQUIRES(conn->write_mu);

  // --- loop-thread-only internals (no locking needed) ---
  void HandleListenReady();
  void HandleConnEvent(int fd, std::uint32_t events);
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void FinishConnect(Conn* conn);
  /// Send's dial path: a frame to a peer with no open connection.
  void SendOnLoop(Message msg);
  /// Starts accepting on the bound listener (idempotent).
  void ArmListener();
  std::shared_ptr<Conn> ConnectTo(const std::string& name, PeerState* peer);
  void CloseConn(Conn* conn, bool failed, const char* why);
  /// Marks `conn` closed and closes its fd, under its write lock.
  void ShutConn(Conn* conn);
  void Housekeeping();

  TcpTransportConfig config_;

  /// Set once Stop() has torn everything down: from then on posts run
  /// inline on the caller.
  std::atomic<bool> stopped_{false};
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  // Loop-thread state. Touched before Start()/after Stop() only by the
  // single setup/teardown thread.
  bool listener_armed_ = false;
  std::map<std::string, PeerState> peers_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // by fd

  /// Local endpoints, read by whichever thread delivers a frame. A leaf
  /// lock: no other lock is taken under it, and handlers run outside it.
  mutable Mutex endpoints_mu_;
  std::map<std::string, std::shared_ptr<const Handler>> endpoints_
      HOTMAN_GUARDED_BY(endpoints_mu_);

  /// Connections by peer name, looked up by every sending thread. A leaf
  /// lock held only to find, insert or erase; the loop alone inserts and
  /// erases.
  mutable Mutex conns_mu_;
  std::unordered_map<std::string, std::shared_ptr<Conn>> conns_by_peer_
      HOTMAN_GUARDED_BY(conns_mu_);

  // Counters and frame latencies live behind their own lock because
  // ExportStats may run off-loop (the daemon's stats endpoint) while
  // senders record. Mutable because ExportStats copies the loop's dropped()
  // into posts_dropped_stopped.
  mutable Mutex stats_mu_;
  mutable NetStats stats_ HOTMAN_GUARDED_BY(stats_mu_);
  std::int64_t connections_open_ HOTMAN_GUARDED_BY(stats_mu_) = 0;

  /// Declared last, so destroyed first: its io handler and posted closures
  /// point into the members above.
  Reactor loop_;
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_TCP_TRANSPORT_H_
