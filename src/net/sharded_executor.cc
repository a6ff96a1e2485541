#include "net/sharded_executor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "net/tcp_transport.h"
#include "sim/shard_scheduler.h"

namespace hotman::net {

namespace {

/// Shard context of the calling thread. Reactor threads pin theirs for
/// life; the deterministic runtime pushes a scope around each delivery.
thread_local int tls_current_shard = -1;
/// Executor whose loop the calling thread runs (reactor threads and the
/// tagged transport loop only).
thread_local Executor* tls_current_executor = nullptr;
/// SPSC producer lane owned by the calling thread (-1: overflow lane).
thread_local int tls_producer_lane = -1;

}  // namespace

int ShardContext::Current() { return tls_current_shard; }

Executor* ShardContext::CurrentExecutor() { return tls_current_executor; }

ShardContext::Scope::Scope(int shard) : prev_(tls_current_shard) {
  tls_current_shard = shard;
}

ShardContext::Scope::~Scope() { tls_current_shard = prev_; }

// --- mailboxes --------------------------------------------------------------

/// One shard's inbound mail: an SPSC lane per registered producer plus a
/// mutexed overflow lane for unregistered threads and full rings. The
/// consumer (the owning reactor) drains every lane on each tick.
struct ShardedExecutor::Mailboxes {
  Mailboxes(int lanes, std::size_t capacity) {
    lanes_.reserve(lanes);
    for (int i = 0; i < lanes; ++i) {
      lanes_.push_back(std::make_unique<SpscQueue<std::function<void()>>>(capacity));
    }
  }

  /// Producer side; `lane` < 0 or a full ring goes through the overflow
  /// mutex (off the hot path by construction). Returns false when the
  /// mailbox no longer accepts (consumer stopping): the post is dropped
  /// and the caller counts it.
  ///
  /// Conservation law: every closure handed to Push either (a) lands and
  /// is later drained (run, or counted by CloseAndCount), or (b) makes
  /// Push return false so the caller counts the drop — exactly one of the
  /// two. The in_flight_ gate is what closes the lock-free race: a
  /// producer that passed the accepting_ check has announced itself, so
  /// CloseAndCount cannot take its final drain until that push has landed.
  /// Both sides use seq_cst so either the producer sees accepting_ ==
  /// false or CloseAndCount sees in_flight_ > 0 (never neither).
  bool Push(int lane, std::function<void()> fn,
            std::atomic<std::uint64_t>* overflows) {
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    if (!accepting_.load(std::memory_order_seq_cst)) {
      in_flight_.fetch_sub(1, std::memory_order_seq_cst);
      return false;
    }
    bool pushed = false;
    if (lane >= 0 && lane < static_cast<int>(lanes_.size())) {
      // TryPush only moves from fn on success; a full ring leaves it
      // intact for the overflow path below.
      pushed = lanes_[lane]->TryPush(std::move(fn));
      if (!pushed) overflows->fetch_add(1, std::memory_order_relaxed);
    }
    if (!pushed) {
      MutexLock lock(&overflow_mu_);
      overflow_.push_back(std::move(fn));
    }
    in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }

  /// Consumer side: drains every lane into `out`.
  std::size_t DrainInto(std::vector<std::function<void()>>* out) {
    std::size_t n = 0;
    for (auto& lane : lanes_) n += lane->Drain(out);
    {
      MutexLock lock(&overflow_mu_);
      if (!overflow_.empty()) {
        n += overflow_.size();
        for (auto& fn : overflow_) out->push_back(std::move(fn));
        overflow_.clear();
      }
    }
    return n;
  }

  /// Stops accepting, waits out producers that already passed the
  /// accepting_ gate, and returns how many queued closures were thrown
  /// away (shutdown accounting). Idempotent; later Pushes return false.
  std::size_t CloseAndCount() {
    accepting_.store(false, std::memory_order_seq_cst);
    // Producers that loaded accepting_ == true have already bumped
    // in_flight_; once it hits zero their items are published (Push's
    // final fetch_sub sequences after the ring/overflow store), so the
    // drain below sees every closure that will ever land.
    while (in_flight_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    std::vector<std::function<void()>> dropped;
    DrainInto(&dropped);
    return dropped.size();
  }

  std::vector<std::unique_ptr<SpscQueue<std::function<void()>>>> lanes_;
  std::atomic<bool> accepting_{true};
  std::atomic<int> in_flight_{0};
  Mutex overflow_mu_;
  std::vector<std::function<void()>> overflow_ HOTMAN_GUARDED_BY(overflow_mu_);
};

// --- shard reactor ----------------------------------------------------------

/// One shard's event loop: a dedicated thread around its own epoll fd (the
/// eventfd is its only registered interest today; per-shard sockets slot in
/// here later), an eventfd doorbell, a deadline-ordered timer queue, and
/// the shard's mailboxes. Mirrors TcpTransport's loop discipline at a
/// fraction of the surface: timers and posted closures run exclusively on
/// the reactor thread.
class ShardReactor : public Executor {
 public:
  ShardReactor(int index, int lanes, std::size_t lane_capacity,
               std::atomic<std::uint64_t>* overflows,
               std::atomic<std::uint64_t>* dropped)
      : index_(index),
        clock_(SystemClock::Default()),
        mail_(lanes, lane_capacity),
        overflows_(overflows),
        dropped_(dropped) {}

  ~ShardReactor() override {
    Halt();
    // fds close here, not in Halt(): a producer that raced Halt() may
    // still call Wake() on wake_fd_, and writing to a recycled fd number
    // would corrupt whatever reopened it. By destruction time the owner
    // has quiesced all producers (same contract as deleting any executor).
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
  }

  Status Launch() {
    if (state_.load() != LoopState::kIdle) {
      return Status::AlreadyExists("reactor already started");
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
      return Status::IOError("eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
    state_.store(LoopState::kRunning);
    thread_ = std::thread([this] { LoopMain(); });
    return Status::OK();
  }

  void Halt() {
    // From here on cross-thread Post/ScheduleTimer drop (and count)
    // instead of running inline: the loop thread may still be executing
    // its final drained batch, so an inline run would put two threads on
    // this shard's state at once.
    LoopState expected = LoopState::kRunning;
    state_.compare_exchange_strong(expected, LoopState::kStopping);
    if (thread_.joinable()) {
      Wake();
      thread_.join();
    }
    dropped_->fetch_add(mail_.CloseAndCount(), std::memory_order_relaxed);
    timers_.clear();
    timer_deadline_.clear();
  }

  int index() const { return index_; }
  ShardedExecutor::Mailboxes* mail() { return &mail_; }

  void Wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }

  bool OnReactorThread() const {
    return thread_.get_id() == std::this_thread::get_id();
  }

  /// Posts through the caller's lane; drops (counted) when stopping.
  bool Post(std::function<void()> fn) {
    if (OnReactorThread()) {
      fn();
      return true;
    }
    switch (state_.load(std::memory_order_acquire)) {
      case LoopState::kIdle: {
        // The loop does not exist yet (setup, single-threaded by
        // contract): run inline in this shard's context.
        ShardContext::Scope scope(index_);
        fn();
        return true;
      }
      case LoopState::kStopping:
        // Racing or past Halt(): the loop thread may still be running its
        // final batch, so inline execution here would break the one-
        // thread-per-shard invariant. Drop + count, like TcpTransport.
        dropped_->fetch_add(1, std::memory_order_relaxed);
        return false;
      case LoopState::kRunning:
        break;
    }
    if (!mail_.Push(tls_producer_lane, std::move(fn), overflows_)) {
      dropped_->fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Wake();
    return true;
  }

  // Executor surface (same contract as TcpTransport's).
  TimerId ScheduleTimer(Micros delay, std::function<void()> fn) override {
    const TimerId id = next_timer_.fetch_add(1);
    if (OnReactorThread()) {
      ScheduleLocal(id, delay, std::move(fn));
      return id;
    }
    switch (state_.load(std::memory_order_acquire)) {
      case LoopState::kIdle:
        ScheduleLocal(id, delay, std::move(fn));
        return id;
      case LoopState::kStopping:
        dropped_->fetch_add(1, std::memory_order_relaxed);
        return id;
      case LoopState::kRunning:
        break;
    }
    if (mail_.Push(tls_producer_lane,
                   [this, id, delay, fn = std::move(fn)]() mutable {
                     ScheduleLocal(id, delay, std::move(fn));
                   },
                   overflows_)) {
      Wake();
    } else {
      dropped_->fetch_add(1, std::memory_order_relaxed);
    }
    return id;
  }

  bool CancelTimer(TimerId id) override {
    if (OnReactorThread()) return CancelLocal(id);
    switch (state_.load(std::memory_order_acquire)) {
      case LoopState::kIdle:
        return CancelLocal(id);
      case LoopState::kStopping:
        return false;  // loop gone; the timer will never fire anyway
      case LoopState::kRunning:
        break;
    }
    // Cross-thread cancellation is best-effort, as on TcpTransport.
    Post([this, id] { CancelLocal(id); });
    return true;
  }

  Micros NowMicros() const override { return clock_->NowMicros(); }
  const Clock* clock() const override { return clock_; }

 private:
  void ScheduleLocal(TimerId id, Micros delay, std::function<void()> fn) {
    const Micros deadline = NowMicros() + std::max<Micros>(delay, 0);
    timers_.emplace(std::make_pair(deadline, id), std::move(fn));
    timer_deadline_.emplace(id, deadline);
  }

  bool CancelLocal(TimerId id) {
    auto it = timer_deadline_.find(id);
    if (it == timer_deadline_.end()) return false;
    timers_.erase(std::make_pair(it->second, id));
    timer_deadline_.erase(it);
    return true;
  }

  int NextTimerDelayMillis() const {
    if (timers_.empty()) return 1000;
    const Micros now = clock_->NowMicros();
    const Micros next = timers_.begin()->first.first;
    if (next <= now) return 0;
    return static_cast<int>(std::min<Micros>(
        (next - now + kMicrosPerMilli - 1) / kMicrosPerMilli, 1000));
  }

  void LoopMain() {
    tls_current_shard = index_;
    tls_current_executor = this;
    tls_producer_lane = index_;
    epoll_event events[8];
    std::vector<std::function<void()>> batch;
    while (state_.load(std::memory_order_acquire) == LoopState::kRunning) {
      const int n =
          ::epoll_wait(epoll_fd_, events, 8, NextTimerDelayMillis());
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == wake_fd_) {
          std::uint64_t drained = 0;
          (void)!::read(wake_fd_, &drained, sizeof(drained));
        }
      }
      batch.clear();
      mail_.DrainInto(&batch);
      for (auto& fn : batch) fn();
      RunDueTimers();
    }
    tls_current_shard = -1;
    tls_current_executor = nullptr;
    tls_producer_lane = -1;
  }

  void RunDueTimers() {
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

  /// kIdle: no loop thread yet — setup is single-threaded, run inline.
  /// kRunning: the loop drains; cross-thread calls go through mailboxes.
  /// kStopping: Halt() began (terminal) — the loop will never drain
  /// again and may still be finishing its last batch, so cross-thread
  /// calls drop and count instead of running inline on a foreign thread.
  enum class LoopState { kIdle, kRunning, kStopping };

  const int index_;
  const Clock* clock_;
  std::atomic<LoopState> state_{LoopState::kIdle};
  std::atomic<std::uint64_t> next_timer_{1};
  std::thread thread_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  ShardedExecutor::Mailboxes mail_;
  std::atomic<std::uint64_t>* overflows_;
  std::atomic<std::uint64_t>* dropped_;
  // Reactor-thread-only.
  std::map<std::pair<Micros, TimerId>, std::function<void()>> timers_;
  std::unordered_map<TimerId, Micros> timer_deadline_;
};

// --- sharded executor -------------------------------------------------------

ShardedExecutor::ShardedExecutor(Executor* base, ShardedExecutorConfig config)
    : config_(config), base_(base) {
  if (config_.shards < 1) config_.shards = 1;
  if (!config_.threaded) {
    sim_scheduler_ = std::make_unique<sim::ShardScheduler>(base_, config_.shards);
  }
}

ShardedExecutor::ShardedExecutor(TcpTransport* transport,
                                 ShardedExecutorConfig config)
    : config_(config), base_(transport), transport_(transport) {
  if (config_.shards < 1) config_.shards = 1;
  config_.threaded = true;
}

ShardedExecutor::~ShardedExecutor() { Shutdown(); }

Status ShardedExecutor::Launch() {
  if (state_.load() != State::kIdle) {
    return Status::AlreadyExists("sharded executor already started");
  }
  if (config_.threaded) {
    const int lanes = config_.shards + config_.external_producer_lanes;
    const int first = transport_ != nullptr ? 1 : 0;
    for (int shard = first; shard < config_.shards; ++shard) {
      auto reactor = std::make_unique<ShardReactor>(
          shard, lanes, config_.mailbox_capacity, &mailbox_overflows_,
          &posts_dropped_stopped_);
      HOTMAN_RETURN_IF_ERROR(reactor->Launch());
      reactors_.push_back(std::move(reactor));
    }
    if (transport_ != nullptr) {
      shard0_mail_ = std::make_unique<Mailboxes>(lanes, config_.mailbox_capacity);
      // The transport loop is shard 0: tag its thread and drain shard 0's
      // mailboxes on every loop tick.
      transport_->SetTickHook([this] { DrainShardZero(); });
      transport_->Post([transport = transport_] {
        tls_current_shard = 0;
        tls_current_executor = transport;
        tls_producer_lane = 0;
      });
    }
  }
  state_.store(State::kRunning);
  return Status::OK();
}

void ShardedExecutor::Shutdown() {
  // kRunning -> kStopped exactly once; producers that read kRunning just
  // before the flip land in mailboxes whose CloseAndCount below drains or
  // counts them, and later producers see kStopped and drop + count.
  State expected = State::kRunning;
  if (!state_.compare_exchange_strong(expected, State::kStopped)) return;
  if (transport_ != nullptr && shard0_mail_ != nullptr) {
    // SetTickHook(nullptr) returning quiesces the drain hook; the mailbox
    // object itself must outlive Shutdown() (producers racing the state
    // flip may still be inside Push), so it is never reset — CloseAndCount
    // makes it reject everything from here on, and the unique_ptr dies
    // with the executor.
    transport_->SetTickHook(nullptr);
    posts_dropped_stopped_.fetch_add(shard0_mail_->CloseAndCount(),
                                     std::memory_order_relaxed);
  }
  // Reactors are halted but, like shard0_mail_, stay allocated until
  // destruction: a racing PostThreaded that saw kRunning may still hold a
  // reactor pointer, and a halted reactor safely drops + counts.
  for (auto& reactor : reactors_) reactor->Halt();
}

int ShardedExecutor::ShardForPoint(std::uint32_t point, int shards) {
  if (shards <= 1) return 0;
  // Contiguous arcs of the 32-bit ketama circle: shard = floor(point *
  // shards / 2^32). Keys and vnodes that are neighbors on the ring stay
  // neighbors in a shard.
  return static_cast<int>(
      (static_cast<std::uint64_t>(point) * static_cast<std::uint64_t>(shards)) >>
      32);
}

Executor* ShardedExecutor::executor(int shard) {
  if (!config_.threaded) return base_;
  if (transport_ != nullptr && shard == 0) return base_;
  const std::size_t slot =
      static_cast<std::size_t>(transport_ != nullptr ? shard - 1 : shard);
  if (slot >= reactors_.size()) {
    // Threaded reactors are created by Launch() (and survive, halted,
    // until destruction); handing out a null executor here would be a
    // delayed crash at the caller.
    HOTMAN_LOG(kError) << "ShardedExecutor::executor(" << shard
                       << ") before Launch()";
    std::abort();
  }
  return reactors_[slot].get();
}

void ShardedExecutor::Post(int shard, std::function<void()> fn) {
  if (!config_.threaded) {
    sim_scheduler_->Post(shard, std::move(fn));
    return;
  }
  PostThreaded(shard, std::move(fn));
}

bool ShardedExecutor::PostThreaded(int shard, std::function<void()> fn) {
  if (tls_current_shard == shard) {
    fn();
    return true;
  }
  switch (state_.load(std::memory_order_acquire)) {
    case State::kIdle: {
      // Setup contract (single-threaded by construction): run inline in
      // the target shard's context, like TcpTransport::Post at kIdle.
      ShardContext::Scope scope(shard);
      fn();
      return true;
    }
    case State::kStopped:
      // Racing or past Shutdown(): reactors may still be finishing their
      // final batches, so inline execution would break shard affinity.
      posts_dropped_stopped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case State::kRunning:
      break;
  }
  cross_posts_.fetch_add(1, std::memory_order_relaxed);
  if (transport_ != nullptr && shard == 0) {
    if (!shard0_mail_->Push(tls_producer_lane, std::move(fn),
                            &mailbox_overflows_)) {
      posts_dropped_stopped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    transport_->Wake();
    return true;
  }
  ShardReactor* reactor =
      reactors_[static_cast<std::size_t>(transport_ != nullptr ? shard - 1 : shard)]
          .get();
  return reactor->Post(std::move(fn));
}

void ShardedExecutor::DrainShardZero() {
  std::vector<std::function<void()>> batch;
  shard0_mail_->DrainInto(&batch);
  for (auto& fn : batch) fn();
}

void ShardedExecutor::PostSync(int shard, std::function<void()> fn) {
  if (!config_.threaded || state_.load(std::memory_order_acquire) == State::kIdle ||
      tls_current_shard == shard) {
    ShardContext::Scope scope(shard);
    fn();
    return;
  }
  // Off-hot-path rendezvous (stats merges, stop): mutex + cv is fine here.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  const bool posted = PostThreaded(shard, [&mu, &cv, &done, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  if (!posted) return;  // dropped by a racing Stop(); counted there
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&done] { return done; });
}

int ShardedExecutor::RegisterExternalProducer() {
  const int slot = next_external_lane_.fetch_add(1);
  if (slot >= config_.external_producer_lanes) return -1;
  tls_producer_lane = config_.shards + slot;
  return tls_producer_lane;
}

std::uint64_t ShardedExecutor::cross_posts() const {
  if (!config_.threaded) return sim_scheduler_->cross_posts();
  return cross_posts_.load(std::memory_order_relaxed);
}

std::uint64_t ShardedExecutor::mailbox_overflows() const {
  return mailbox_overflows_.load(std::memory_order_relaxed);
}

std::uint64_t ShardedExecutor::posts_dropped_stopped() const {
  return posts_dropped_stopped_.load(std::memory_order_relaxed);
}

void ShardedExecutor::ExportStats(metrics::Registry* registry) const {
  registry->gauge("sharded.shards")->Set(config_.shards);
  registry->counter("sharded.cross_posts")->Increment(cross_posts());
  registry->counter("sharded.mailbox_overflows")->Increment(mailbox_overflows());
  registry->counter("sharded.posts_dropped_stopped")
      ->Increment(posts_dropped_stopped());
}

}  // namespace hotman::net
