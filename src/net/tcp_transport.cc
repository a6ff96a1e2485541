#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "bson/codec.h"
#include "common/logging.h"
#include "net/shard_context.h"

namespace hotman::net {

namespace {

constexpr Micros kHousekeepingPeriod = 200 * kMicrosPerMilli;

void SetNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)) {
  for (const auto& [name, addr] : config_.peers) {
    peers_[name].addr = addr;
  }
}

TcpTransport::~TcpTransport() { Stop(); }

Status TcpTransport::Start() {
  if (!loop_.idle()) {
    return Status::AlreadyExists("transport already started or stopped");
  }
  bool has_endpoint = false;
  if (config_.listen_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      Stop();
      return Status::IOError("listen socket failed");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.listen_port));
    if (::inet_pton(AF_INET, config_.listen_host.c_str(), &addr.sin_addr) != 1) {
      Stop();
      return Status::InvalidArgument("listen_host must be a numeric IPv4 address");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      Stop();
      return Status::IOError(std::string("bind/listen failed: ") + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    listen_port_ = ntohs(bound.sin_port);
    // Not polled yet: connections wait in the backlog until an endpoint
    // exists (ArmListener).
    MutexLock lock(&endpoints_mu_);
    has_endpoint = !endpoints_.empty();
  }

  // Armed before the loop thread exists, so directly on this thread.
  ScheduleTimer(kHousekeepingPeriod, [this] { Housekeeping(); });
  HOTMAN_RETURN_IF_ERROR(loop_.Launch([this](int fd, std::uint32_t events) {
    if (fd == listen_fd_) {
      HandleListenReady();
    } else {
      HandleConnEvent(fd, events);
    }
  }));
  // An endpoint registered before Start() found no loop to arm it on.
  if (has_endpoint) Post([this] { ArmListener(); });
  return Status::OK();
}

void TcpTransport::Stop() {
  // From here on a post from another thread drops and counts; the loop
  // thread is joined.
  loop_.Halt();
  // Tear down on this thread. A sender still holding a connection sees it
  // closed and takes the loop path, where Post drops and counts until
  // stopped_ is set below.
  for (auto& [fd, conn] : conns_) {
    ShutConn(conn.get());
    if (conn->established) CountConnection(&NetStats::connections_closed, -1);
  }
  {
    MutexLock lock(&conns_mu_);
    conns_by_peer_.clear();
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  listener_armed_ = false;
  // Only now may a post run inline: every socket it could touch is closed.
  stopped_.store(true);
}

void TcpTransport::AddOrUpdatePeer(const std::string& name, TcpPeer peer) {
  Post([this, name, peer] {
    PeerState& state = peers_[name];
    state.addr = peer;
    state.backoff = 0;
    state.next_attempt_at = 0;
  });
}

void TcpTransport::Post(std::function<void()> fn) {
  if (stopped_.load()) {
    fn();
    return;
  }
  loop_.Post(std::move(fn));
}

void TcpTransport::RegisterEndpoint(const std::string& name, Handler handler) {
  {
    MutexLock lock(&endpoints_mu_);
    endpoints_[name] = std::make_shared<const Handler>(std::move(handler));
  }
  Post([this] { ArmListener(); });
}

void TcpTransport::UnregisterEndpoint(const std::string& name) {
  MutexLock lock(&endpoints_mu_);
  endpoints_.erase(name);
}

bool TcpTransport::HasEndpoint(const std::string& name) const {
  MutexLock lock(&endpoints_mu_);
  return endpoints_.count(name) > 0;
}

std::shared_ptr<TcpTransport::Conn> TcpTransport::FindConn(
    const std::string& peer) const {
  MutexLock lock(&conns_mu_);
  auto it = conns_by_peer_.find(peer);
  return it == conns_by_peer_.end() ? nullptr : it->second;
}

void TcpTransport::CountDrop(NetStats::Field cause) {
  MutexLock lock(&stats_mu_);
  stats_.Drop(cause);
}

void TcpTransport::CountConnection(NetStats::Field event, int open_delta) {
  MutexLock lock(&stats_mu_);
  ++(stats_.*event);
  connections_open_ += open_delta;
}

void TcpTransport::ArmListener() {
  if (listen_fd_ < 0 || listener_armed_) return;
  loop_.Watch(listen_fd_, EPOLLIN);
  listener_armed_ = true;
}

void TcpTransport::Send(Message msg) {
  if (HasEndpoint(msg.to)) {
    // Loopback to a local endpoint (a coordinator replicating to itself):
    // no socket, but the accounting and the deferred delivery match the
    // remote path. It is deferred on the sending executor, so a shard
    // reactor's frame to its own node reaches a keyed handler that is
    // already home instead of hopping to the loop and back; a thread
    // outside any executor defers on the loop.
    Executor* here = ShardContext::CurrentExecutor();
    (here != nullptr ? here : this)->ScheduleTimer(0, LoopbackDelivery(std::move(msg)));
    return;
  }
  if (std::shared_ptr<Conn> conn = FindConn(msg.to)) {
    msg.sent_at = NowMicros();
    std::string frame;
    EncodeFrame(msg, &frame);
    if (WriteFrame(conn.get(), frame)) return;
    // Closed under us: the loop redials or counts the drop.
  }
  Post([this, msg = std::move(msg)]() mutable { SendOnLoop(std::move(msg)); });
}

TimerId TcpTransport::ScheduleTimer(Micros delay, std::function<void()> fn) {
  return loop_.ScheduleTimer(delay, std::move(fn));
}

bool TcpTransport::CancelTimer(TimerId id) { return loop_.CancelTimer(id); }

void TcpTransport::HandleListenReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      HOTMAN_LOG(kWarn) << "accept failed: " << std::strerror(errno);
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>(fd, /*write_armed=*/false);
    conn->established = true;
    loop_.Watch(fd, EPOLLIN);
    conns_.emplace(fd, std::move(conn));
    CountConnection(&NetStats::connections_accepted, +1);
  }
}

void TcpTransport::HandleConnEvent(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn* conn = it->second.get();
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    if (conn->connecting) {
      FinishConnect(conn);  // reads SO_ERROR, fails with backoff
    } else {
      CloseConn(conn, /*failed=*/false, "peer hung up");
    }
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    HandleWritable(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed while writing
  }
  if ((events & EPOLLIN) != 0) {
    HandleReadable(conn);
  }
}

void TcpTransport::FinishConnect(Conn* conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    err = errno;
  }
  if (err != 0) {
    HOTMAN_LOG(kWarn) << "connect to " << conn->name
                      << " failed: " << std::strerror(err);
    CloseConn(conn, /*failed=*/true, "connect failed");
    return;
  }
  conn->connecting = false;
  conn->established = true;
  {
    // Bytes queued behind the connect could not move until now. EPOLLOUT
    // stays armed; HandleWritable flushes them and disarms.
    MutexLock lock(&conn->write_mu);
    conn->last_write_progress = NowMicros();
  }
  if (auto pit = peers_.find(conn->name); pit != peers_.end()) {
    pit->second.backoff = 0;
    pit->second.next_attempt_at = 0;
  }
  CountConnection(&NetStats::connections_opened, +1);
}

void TcpTransport::HandleWritable(Conn* conn) {
  const int fd = conn->fd;
  if (conn->connecting) {
    FinishConnect(conn);  // may destroy conn on failure
    if (conns_.find(fd) == conns_.end()) return;
  }
  bool failed = false;
  {
    MutexLock lock(&conn->write_mu);
    while (conn->outbuf_off < conn->outbuf.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->outbuf.data() + conn->outbuf_off,
                 conn->outbuf.size() - conn->outbuf_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbuf_off += static_cast<std::size_t>(n);
        conn->last_write_progress = NowMicros();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      failed = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    if (conn->outbuf_off >= conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->outbuf_off = 0;
      SetWriteArmed(conn, false);
    }
  }
  if (failed) CloseConn(conn, /*failed=*/false, "write error");
}

void TcpTransport::SetWriteArmed(Conn* conn, bool armed) {
  if (conn->write_armed == armed) return;
  loop_.Rewatch(conn->fd, armed ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  conn->write_armed = armed;
}

void TcpTransport::HandleReadable(Conn* conn) {
  const int fd = conn->fd;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      CloseConn(conn, /*failed=*/false, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn, /*failed=*/false, "read error");
    return;
  }
  while (true) {
    Message msg;
    bool complete = false;
    const std::size_t before = conn->reader.buffered_bytes();
    const Status st = conn->reader.Next(&msg, &complete);
    if (!st.ok()) {
      HOTMAN_LOG(kWarn) << "corrupt frame from fd " << conn->fd << ": "
                        << st.ToString();
      CloseConn(conn, /*failed=*/false, "corrupt frame");
      return;
    }
    if (!complete) break;
    const std::size_t wire_bytes = before - conn->reader.buffered_bytes();
    if (conn->name.empty() && !msg.from.empty()) {
      // Inbound connections announce their identity with their first frame;
      // replies to that peer route back over this connection.
      conn->name = msg.from;
      MutexLock lock(&conns_mu_);
      conns_by_peer_.emplace(conn->name, conns_.at(fd));
    }
    DeliverLocally(msg, wire_bytes);
    if (conns_.find(fd) == conns_.end()) return;  // handler closed us
  }
}

void TcpTransport::DeliverLocally(const Message& msg, std::size_t wire_bytes) {
  std::shared_ptr<const Handler> handler;
  {
    MutexLock lock(&endpoints_mu_);
    if (auto it = endpoints_.find(msg.to); it != endpoints_.end()) {
      handler = it->second;
    }
  }
  if (handler == nullptr) {
    CountDrop(&NetStats::dropped_no_endpoint);
    return;
  }
  {
    MutexLock lock(&stats_mu_);
    stats_.Deliver(msg, wire_bytes, NowMicros());
  }
  (*handler)(msg);
}

std::function<void()> TcpTransport::LoopbackDelivery(Message msg) {
  msg.sent_at = NowMicros();
  const std::size_t approx_bytes = kFrameHeaderBytes + bson::EncodedSize(msg.body);
  {
    MutexLock lock(&stats_mu_);
    ++stats_.frames_sent;
    stats_.bytes_sent += approx_bytes;
  }
  return [this, approx_bytes, msg = std::move(msg)] {
    DeliverLocally(msg, approx_bytes);
  };
}

void TcpTransport::SendOnLoop(Message msg) {
  msg.sent_at = NowMicros();
  if (!loop_.OnLoopThread()) {
    // Run inline before Start() or after Stop(): no loop to dial from.
    CountDrop(&NetStats::dropped_not_connected);
    return;
  }
  std::shared_ptr<Conn> conn = FindConn(msg.to);
  if (conn == nullptr) {
    auto pit = peers_.find(msg.to);
    if (pit == peers_.end()) {
      CountDrop(&NetStats::dropped_no_endpoint);
      return;
    }
    // Inside the reconnect backoff window no dial is made.
    if (NowMicros() >= pit->second.next_attempt_at) {
      conn = ConnectTo(msg.to, &pit->second);
    }
    if (conn == nullptr) {
      CountDrop(&NetStats::dropped_not_connected);
      return;
    }
  }
  std::string frame;
  EncodeFrame(msg, &frame);
  if (!WriteFrame(conn.get(), frame)) {
    CountDrop(&NetStats::dropped_not_connected);
  }
}

bool TcpTransport::WriteFrame(Conn* conn, const std::string& frame) {
  bool shed = false;
  {
    MutexLock lock(&conn->write_mu);
    if (conn->closed) return false;
    const std::size_t queued = conn->outbuf.size() - conn->outbuf_off;
    shed = queued + frame.size() > config_.max_outbound_queue_bytes;
    if (!shed) {
      std::size_t off = 0;
      // Nothing queued and no connect in flight: straight to the socket. A
      // hard error leaves the rest queued; the loop sees it and closes.
      while (!conn->write_armed && off < frame.size()) {
        const ssize_t n = ::send(conn->fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
          off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;
        }
      }
      if (off < frame.size()) {
        if (queued == 0) {
          // Bytes are first left waiting: the stall clock starts now, not
          // at whatever progress an idle connection last made.
          conn->last_write_progress = NowMicros();
        }
        // Compact the consumed prefix before growing (bounded by the
        // watermark).
        if (conn->outbuf_off > 0 && conn->outbuf_off * 2 > conn->outbuf.size()) {
          conn->outbuf.erase(0, conn->outbuf_off);
          conn->outbuf_off = 0;
        }
        conn->outbuf.append(frame, off, std::string::npos);
        SetWriteArmed(conn, true);
      }
    }
  }
  if (shed) {
    CountDrop(&NetStats::dropped_backpressure);
    return true;
  }
  MutexLock lock(&stats_mu_);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  return true;
}

std::shared_ptr<TcpTransport::Conn> TcpTransport::ConnectTo(
    const std::string& name, PeerState* peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer->addr.port);
  if (::inet_pton(AF_INET, peer->addr.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    HOTMAN_LOG(kWarn) << "peer " << name << " has non-numeric host "
                      << peer->addr.host;
    return nullptr;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    peer->backoff = std::clamp<Micros>(peer->backoff * 2,
                                       config_.reconnect_backoff_min,
                                       config_.reconnect_backoff_max);
    peer->next_attempt_at = NowMicros() + peer->backoff;
    CountConnection(&NetStats::connections_failed, 0);
    return nullptr;
  }
  // EPOLLOUT is armed from the start: it reports the connect's outcome, and
  // frames sent meanwhile queue behind it.
  auto conn = std::make_shared<Conn>(fd, /*write_armed=*/true);
  conn->name = name;
  conn->connecting = (rc != 0);
  conn->established = (rc == 0);
  conn->connect_started = NowMicros();
  loop_.Watch(fd, EPOLLIN | EPOLLOUT);
  conns_.emplace(fd, conn);
  {
    MutexLock lock(&conns_mu_);
    conns_by_peer_[name] = conn;
  }
  if (conn->established) {
    peer->backoff = 0;
    peer->next_attempt_at = 0;
    CountConnection(&NetStats::connections_opened, +1);
  }
  return conn;
}

void TcpTransport::CloseConn(Conn* conn, bool failed, const char* why) {
  HOTMAN_LOG(kDebug) << "closing connection fd " << conn->fd << " ("
                     << (conn->name.empty() ? "?" : conn->name) << "): " << why;
  if (!conn->name.empty()) {
    {
      MutexLock lock(&conns_mu_);
      if (auto it = conns_by_peer_.find(conn->name);
          it != conns_by_peer_.end() && it->second.get() == conn) {
        conns_by_peer_.erase(it);
      }
    }
    if (failed) {
      if (auto pit = peers_.find(conn->name); pit != peers_.end()) {
        pit->second.backoff = std::clamp<Micros>(
            pit->second.backoff * 2, config_.reconnect_backoff_min,
            config_.reconnect_backoff_max);
        pit->second.next_attempt_at = NowMicros() + pit->second.backoff;
      }
    }
  }
  ShutConn(conn);
  CountConnection(failed ? &NetStats::connections_failed : &NetStats::connections_closed,
                  conn->established ? -1 : 0);
  conns_.erase(conn->fd);  // destroys conn unless a sender still holds it
}

void TcpTransport::ShutConn(Conn* conn) {
  MutexLock lock(&conn->write_mu);
  conn->closed = true;
  loop_.Unwatch(conn->fd);
  ::close(conn->fd);
}

void TcpTransport::Housekeeping() {
  const Micros now = NowMicros();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    if (conn->connecting &&
        now - conn->connect_started > config_.connect_timeout) {
      CloseConn(conn, /*failed=*/true, "connect timeout");
      continue;
    }
    bool stalled = false;
    if (conn->established) {
      MutexLock lock(&conn->write_mu);
      stalled = conn->outbuf_off < conn->outbuf.size() &&
                now - conn->last_write_progress > config_.write_stall_timeout;
    }
    if (stalled) CloseConn(conn, /*failed=*/false, "write stalled");
  }
  ScheduleTimer(kHousekeepingPeriod, [this] { Housekeeping(); });
}

void TcpTransport::ExportStats(metrics::Registry* registry) const {
  MutexLock lock(&stats_mu_);
  stats_.posts_dropped_stopped = loop_.dropped();
  stats_.ExportTo(registry);
  registry->gauge("net.connections_open")->Set(connections_open_);
}

}  // namespace hotman::net
