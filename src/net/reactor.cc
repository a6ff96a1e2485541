#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>

#include "common/logging.h"
#include "net/shard_context.h"

namespace hotman::net {

namespace {

constexpr int kMaxEpollEvents = 64;

void EpollCtl(int epoll_fd, int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd, op, fd, &ev);
}

/// Shard context of the calling thread. A tagged loop thread pins its own;
/// the deterministic runtime pushes a scope around each delivery.
thread_local int tls_current_shard = -1;
/// Reactor whose loop the calling thread runs.
thread_local Executor* tls_current_executor = nullptr;
/// SPSC producer lane owned by the calling thread (-1: the locked lane).
thread_local int tls_producer_lane = -1;

}  // namespace

int ShardContext::Current() { return tls_current_shard; }

Executor* ShardContext::CurrentExecutor() { return tls_current_executor; }

ShardContext::Scope::Scope(int shard) : prev_(tls_current_shard) {
  tls_current_shard = shard;
}

ShardContext::Scope::~Scope() { tls_current_shard = prev_; }

Reactor::Reactor(int lanes, std::size_t lane_capacity)
    : clock_(SystemClock::Default()) {
  lanes_.reserve(static_cast<std::size_t>(std::max(lanes, 0)));
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(
        std::make_unique<SpscQueue<std::function<void()>>>(lane_capacity));
  }
}

Reactor::~Reactor() {
  Halt();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Reactor::Launch(IoHandler io) {
  if (state_.load() != State::kIdle) {
    return Status::AlreadyExists("reactor already launched or halted");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError("eventfd failed");
  }
  Watch(wake_fd_, EPOLLIN);
  io_ = std::move(io);
  state_.store(State::kRunning);
  thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void Reactor::Halt() {
  // From here on a post or timer from another thread drops and counts
  // instead of running inline: the loop may still be running its last
  // batch, and an inline run would put two threads on its state.
  state_.store(State::kStopping);
  if (thread_.joinable()) {
    Wake();
    thread_.join();
  }
  // A producer that saw kRunning announced itself in in_flight_ before
  // reading the state (both sides seq_cst: it sees kStopping or this load
  // sees it). Once in_flight_ is zero every such push has landed, so the
  // drain below counts each closure the loop will never run.
  while (in_flight_.load() != 0) std::this_thread::yield();
  std::vector<std::function<void()>> left;
  Drain(&left);
  dropped_.fetch_add(left.size(), std::memory_order_relaxed);
  timers_.clear();
  timer_deadline_.clear();
}

void Reactor::AdoptShard(int shard) {
  std::promise<void> tagged;
  const bool posted = Post([shard, &tagged] {
    tls_current_shard = shard;
    tls_producer_lane = shard;
    tagged.set_value();
  });
  // The mailbox drains its lanes in no global order, so only waiting here
  // makes every later post run tagged.
  if (posted) tagged.get_future().wait();
}

bool Reactor::OnLoopThread() const {
  return loop_thread_id_.load() == std::this_thread::get_id();
}

Reactor::State Reactor::Push(std::function<void()>& fn) {
  in_flight_.fetch_add(1);
  const State state = state_.load();
  if (state == State::kRunning) {
    const int lane = tls_producer_lane;
    bool pushed = false;
    if (lane >= 0 && lane < static_cast<int>(lanes_.size())) {
      // TryPush moves from fn only on success; a full ring leaves it for
      // the locked lane.
      pushed = lanes_[static_cast<std::size_t>(lane)]->TryPush(std::move(fn));
      if (!pushed) overflows_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!pushed) {
      MutexLock lock(&overflow_mu_);
      overflow_.push_back(std::move(fn));
    }
  }
  in_flight_.fetch_sub(1);
  return state;
}

void Reactor::Drain(std::vector<std::function<void()>>* out) {
  for (auto& lane : lanes_) lane->Drain(out);
  MutexLock lock(&overflow_mu_);
  for (auto& fn : overflow_) out->push_back(std::move(fn));
  overflow_.clear();
}

bool Reactor::Post(std::function<void()> fn) {
  if (OnLoopThread()) {
    fn();
    return true;
  }
  switch (Push(fn)) {
    case State::kIdle:
      fn();
      return true;
    case State::kRunning:
      Wake();
      return true;
    case State::kStopping:
      break;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Reactor::Wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void Reactor::Watch(int fd, std::uint32_t events) {
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd, events);
}

void Reactor::Rewatch(int fd, std::uint32_t events) {
  EpollCtl(epoll_fd_, EPOLL_CTL_MOD, fd, events);
}

void Reactor::Unwatch(int fd) { EpollCtl(epoll_fd_, EPOLL_CTL_DEL, fd, 0); }

TimerId Reactor::ScheduleTimer(Micros delay, std::function<void()> fn) {
  const TimerId id = next_timer_.fetch_add(1);
  if (OnLoopThread()) {
    ArmTimer(id, delay, std::move(fn));
  } else {
    Post([this, id, delay, fn = std::move(fn)]() mutable {
      ArmTimer(id, delay, std::move(fn));
    });
  }
  return id;
}

bool Reactor::CancelTimer(TimerId id) {
  if (OnLoopThread()) return DisarmTimer(id);
  switch (state_.load()) {
    case State::kIdle:
      return DisarmTimer(id);
    case State::kStopping:
      return false;  // the loop is gone; the timer never fires
    case State::kRunning:
      break;
  }
  Post([this, id] { DisarmTimer(id); });
  return true;
}

void Reactor::ArmTimer(TimerId id, Micros delay, std::function<void()> fn) {
  const Micros deadline = NowMicros() + std::max<Micros>(delay, 0);
  timers_.emplace(std::make_pair(deadline, id), std::move(fn));
  timer_deadline_.emplace(id, deadline);
}

bool Reactor::DisarmTimer(TimerId id) {
  auto it = timer_deadline_.find(id);
  if (it == timer_deadline_.end()) return false;
  timers_.erase(std::make_pair(it->second, id));
  timer_deadline_.erase(it);
  return true;
}

void Reactor::RunDueTimers() {
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

int Reactor::NextTimerDelayMillis() const {
  if (timers_.empty()) return 1000;
  const Micros now = NowMicros();
  const Micros next = timers_.begin()->first.first;
  if (next <= now) return 0;
  return static_cast<int>(std::min<Micros>(
      (next - now + kMicrosPerMilli - 1) / kMicrosPerMilli, 1000));
}

void Reactor::LoopMain() {
  loop_thread_id_.store(std::this_thread::get_id());
  tls_current_executor = this;
  epoll_event events[kMaxEpollEvents];
  std::vector<std::function<void()>> batch;
  while (state_.load(std::memory_order_acquire) == State::kRunning) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, NextTimerDelayMillis());
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
      } else {
        io_(fd, events[i].events);
      }
    }
    Drain(&batch);
    for (auto& fn : batch) fn();
    batch.clear();
    RunDueTimers();
  }
  loop_thread_id_.store(std::thread::id());
}

}  // namespace hotman::net
