#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "bson/codec.h"
#include "common/logging.h"
#include "net/shard_context.h"

namespace hotman::net {

namespace {

constexpr int kMaxEpollEvents = 64;
constexpr Micros kHousekeepingPeriod = 200 * kMicrosPerMilli;

void SetNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)), clock_(SystemClock::Default()) {
  for (const auto& [name, addr] : config_.peers) {
    peers_[name].addr = addr;
  }
}

TcpTransport::~TcpTransport() { Stop(); }

bool TcpTransport::OnLoopThread() const {
  return loop_thread_.get_id() == std::this_thread::get_id();
}

Status TcpTransport::Start() {
  if (running_.load()) return Status::AlreadyExists("transport already started");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError("eventfd failed");
  }
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev);

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
    // exists (ArmListener). An endpoint registered before Start() arms it
    // here, before the loop thread exists.
    bool has_endpoint = false;
    {
      MutexLock lock(&endpoints_mu_);
      has_endpoint = !endpoints_.empty();
    }
    if (has_endpoint) ArmListener();
  }

  // Arm the periodic housekeeping timer before the loop thread exists; no
  // concurrency yet, so inserting directly is safe.
  const TimerId hk = next_timer_.fetch_add(1);
  ScheduleOnLoop(hk, kHousekeepingPeriod, [this] { Housekeeping(); });

  running_.store(true);
  {
    MutexLock lock(&ops_mu_);
    loop_state_ = LoopState::kRunning;
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void TcpTransport::Stop() {
  {
    // From here on Post() drops (and counts) instead of enqueueing: the
    // loop below is about to stop draining, so an enqueue could never run.
    MutexLock lock(&ops_mu_);
    if (loop_state_ == LoopState::kRunning) loop_state_ = LoopState::kStopping;
  }
  if (loop_thread_.joinable()) {
    running_.store(false);
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    loop_thread_.join();
  }
  running_.store(false);
  // The loop thread is gone (or never existed); tear down on this thread.
  // A sender still holding a connection sees it closed and takes the loop
  // path, where Post drops and counts until the state below is kIdle.
  for (auto& [fd, conn] : conns_) {
    ShutConn(conn.get());
    if (conn->established) CountConnection(&NetStats::connections_closed, -1);
  }
  {
    MutexLock lock(&conns_mu_);
    conns_by_peer_.clear();
  }
  conns_.clear();
  timers_.clear();
  timer_deadline_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listener_armed_ = false;
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  {
    // Only now may a post run inline: the fds it could touch are gone.
    MutexLock lock(&ops_mu_);
    if (!pending_ops_.empty()) {
      // Ops the loop never got to drain: dropped, but accounted for.
      MutexLock stats_lock(&stats_mu_);
      stats_.posts_dropped_stopped += pending_ops_.size();
      pending_ops_.clear();
    }
    loop_state_ = LoopState::kIdle;
  }
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
  if (OnLoopThread()) {
    fn();
    return;
  }
  {
    MutexLock lock(&ops_mu_);
    switch (loop_state_) {
      case LoopState::kRunning:
        pending_ops_.push_back(std::move(fn));
        // Wake under the lock: Stop() cannot get past its kStopping flip,
        // join the loop and close wake_fd_ between the enqueue and this
        // write, so the write never lands on a closed or recycled fd.
        Wake();
        return;
      case LoopState::kStopping: {
        // Racing Stop(): the loop will never drain again, and running the
        // closure here would race the dying loop thread. Drop + count.
        MutexLock stats_lock(&stats_mu_);
        ++stats_.posts_dropped_stopped;
        return;
      }
      case LoopState::kIdle:
        break;  // run inline below, outside the lock
    }
  }
  // The loop does not exist (setup/teardown, single-threaded by contract).
  fn();
}

void TcpTransport::Wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void TcpTransport::SetTickHook(std::function<void()> hook) {
  MutexLock lock(&hook_mu_);
  tick_hook_ = std::move(hook);
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
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev);
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
  const TimerId id = next_timer_.fetch_add(1);
  Post([this, id, delay, fn = std::move(fn)]() mutable {
    ScheduleOnLoop(id, delay, std::move(fn));
  });
  return id;
}

TimerId TcpTransport::ScheduleOnLoop(TimerId id, Micros delay,
                                     std::function<void()> fn) {
  const Micros deadline = NowMicros() + std::max<Micros>(delay, 0);
  timers_.emplace(std::make_pair(deadline, id), std::move(fn));
  timer_deadline_.emplace(id, deadline);
  return id;
}

bool TcpTransport::CancelTimer(TimerId id) {
  if (!running_.load() || OnLoopThread()) {
    auto it = timer_deadline_.find(id);
    if (it == timer_deadline_.end()) return false;
    timers_.erase(std::make_pair(it->second, id));
    timer_deadline_.erase(it);
    return true;
  }
  // Cross-thread cancellation is best-effort: the timer may fire before the
  // op reaches the loop. Loop-resident components (the only schedulers in
  // practice) always take the exact path above.
  Post([this, id] {
    auto it = timer_deadline_.find(id);
    if (it == timer_deadline_.end()) return;
    timers_.erase(std::make_pair(it->second, id));
    timer_deadline_.erase(it);
  });
  return true;
}

void TcpTransport::LoopMain() {
  epoll_event events[kMaxEpollEvents];
  while (running_.load()) {
    const int timeout_ms = NextTimerDelayMillis();
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      HOTMAN_LOG(kError) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
      } else if (fd == listen_fd_) {
        HandleListenReady();
      } else {
        HandleConnEvent(fd, events[i].events);
      }
    }
    ProcessOps();
    {
      // Holding hook_mu_ across the call is what makes SetTickHook(nullptr)
      // a quiescence barrier for the previous hook.
      MutexLock lock(&hook_mu_);
      if (tick_hook_) tick_hook_();
    }
    RunDueTimers();
  }
}

void TcpTransport::ProcessOps() {
  std::vector<std::function<void()>> ops;
  {
    MutexLock lock(&ops_mu_);
    ops.swap(pending_ops_);
  }
  for (auto& op : ops) op();
}

void TcpTransport::RunDueTimers() {
  const Micros now = NowMicros();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto it = timers_.begin();
    const TimerId id = it->first.second;
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    timer_deadline_.erase(id);
    fn();
  }
}

int TcpTransport::NextTimerDelayMillis() const {
  if (timers_.empty()) return 1000;
  const Micros now = clock_->NowMicros();
  const Micros next = timers_.begin()->first.first;
  if (next <= now) return 0;
  const Micros diff = next - now;
  return static_cast<int>(
      std::min<Micros>((diff + kMicrosPerMilli - 1) / kMicrosPerMilli, 1000));
}

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
    auto conn = std::make_shared<Conn>(fd, config_.max_frame_bytes,
                                       /*write_armed=*/false);
    conn->established = true;
    conn->last_read_at = NowMicros();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
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
  conn->last_read_at = NowMicros();
  {
    // Bytes queued behind the connect could not move until now. EPOLLOUT
    // stays armed; HandleWritable flushes them and disarms.
    MutexLock lock(&conn->write_mu);
    conn->last_write_progress = conn->last_read_at;
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
  epoll_event ev{};
  ev.events = armed ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->write_armed = armed;
}

void TcpTransport::HandleReadable(Conn* conn) {
  const int fd = conn->fd;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      conn->last_read_at = NowMicros();
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
  if (epoll_fd_ < 0) {
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
  auto conn = std::make_shared<Conn>(fd, config_.max_frame_bytes,
                                     /*write_armed=*/true);
  conn->name = name;
  conn->connecting = (rc != 0);
  conn->established = (rc == 0);
  conn->connect_started = NowMicros();
  conn->last_read_at = conn->connect_started;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
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
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
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
    if (stalled) {
      CloseConn(conn, /*failed=*/false, "write stalled");
      continue;
    }
    if (config_.read_idle_timeout > 0 && conn->established &&
        now - conn->last_read_at > config_.read_idle_timeout) {
      CloseConn(conn, /*failed=*/false, "read idle");
      continue;
    }
  }
  const TimerId id = next_timer_.fetch_add(1);
  ScheduleOnLoop(id, kHousekeepingPeriod, [this] { Housekeeping(); });
}

void TcpTransport::ExportStats(metrics::Registry* registry) const {
  MutexLock lock(&stats_mu_);
  stats_.ExportTo(registry);
  registry->gauge("net.connections_open")->Set(connections_open_);
}

}  // namespace hotman::net
