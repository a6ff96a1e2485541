#ifndef HOTMAN_NET_REACTOR_H_
#define HOTMAN_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "net/executor.h"
#include "net/spsc_queue.h"

namespace hotman::net {

/// One event loop: a dedicated thread around an epoll fd, an eventfd
/// doorbell, a deadline-ordered timer map and a mailbox. TcpTransport runs
/// its sockets on one; ShardedExecutor runs each threaded shard on one and
/// adopts the transport's as shard 0.
///
/// Each tick runs, on the loop thread and never concurrently: the IoHandler
/// for every ready watched fd, then the closures drained from the mailbox,
/// then every due timer.
///
/// The mailbox has one lock-free SPSC lane per shard (a tagged loop
/// thread's lane is its shard, see AdoptShard) plus a locked overflow lane
/// for every other thread and for full rings. A reactor built with 0 lanes
/// has only the locked lane.
///
/// Lifecycle: kIdle -> kRunning -> kStopping, the last terminal. At kIdle
/// no loop thread exists and setup is single-threaded by contract, so a
/// post runs inline and a timer is armed directly. After Halt() a post or
/// timer from another thread is dropped and counted in dropped(): never
/// silently lost, never run beside the dying loop.
class Reactor : public Executor {
 public:
  /// Handles one ready fd on the loop thread; `events` is its epoll mask.
  using IoHandler = std::function<void(int fd, std::uint32_t events)>;

  /// `lanes` SPSC producer lanes of at least `lane_capacity` slots each.
  explicit Reactor(int lanes = 0, std::size_t lane_capacity = 0);
  /// Halts, then closes the fds.
  ~Reactor() override;

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll fd and the doorbell and starts the loop thread,
  /// which hands each ready watched fd to `io`. Fails unless kIdle.
  Status Launch(IoHandler io = nullptr);

  /// Enters kStopping, joins the loop thread, counts the closures still in
  /// the mailbox in dropped() and discards the pending timers. Idempotent.
  /// The fds stay open until destruction, so a Wake() that races Halt()
  /// never writes to a recycled fd number.
  void Halt();

  /// Tags the loop thread as shard `shard`: ShardContext::Current() and
  /// its producer lane both become `shard`. Call after Launch(); returns
  /// once the tag is set, so every closure posted afterwards runs tagged.
  void AdoptShard(int shard);

  bool idle() const { return state_.load() == State::kIdle; }
  bool OnLoopThread() const;

  /// Runs `fn` on the loop thread: inline when already there or at kIdle,
  /// else through the caller's lane. False, counted in dropped(), after
  /// Halt().
  bool Post(std::function<void()> fn);

  /// epoll_ctl ADD / MOD / DEL for `fd`. Safe from any thread once
  /// launched.
  void Watch(int fd, std::uint32_t events);
  void Rewatch(int fd, std::uint32_t events);
  void Unwatch(int fd);

  /// Posts and timers lost to Halt(): left in the mailbox, or made after
  /// it began.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Posts that found their SPSC lane full and took the locked lane.
  std::uint64_t overflows() const { return overflows_.load(std::memory_order_relaxed); }

  // Executor surface.
  TimerId ScheduleTimer(Micros delay, std::function<void()> fn) override;
  /// Exact on the loop thread and at kIdle. From another thread the cancel
  /// is posted and reported true, best effort: the timer may fire first.
  bool CancelTimer(TimerId id) override;
  Micros NowMicros() const override { return clock_->NowMicros(); }
  const Clock* clock() const override { return clock_; }

 private:
  /// kIdle: no loop thread yet. kRunning: the loop drains the mailbox.
  /// kStopping: Halt() began; the loop never drains again.
  enum class State { kIdle, kRunning, kStopping };

  /// Mailbox producer side: pushes `fn` (moving from it) only at kRunning,
  /// and returns the state it saw.
  State Push(std::function<void()>& fn);
  void Drain(std::vector<std::function<void()>>* out);
  void Wake();
  void LoopMain();
  void ArmTimer(TimerId id, Micros delay, std::function<void()> fn);
  bool DisarmTimer(TimerId id);
  void RunDueTimers();
  int NextTimerDelayMillis() const;

  const Clock* clock_;
  std::atomic<State> state_{State::kIdle};
  std::atomic<std::uint64_t> next_timer_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> overflows_{0};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  IoHandler io_;
  /// Set by the loop thread while it runs: a recycled thread id must not
  /// pass for the loop after Halt().
  std::atomic<std::thread::id> loop_thread_id_{};

  std::vector<std::unique_ptr<SpscQueue<std::function<void()>>>> lanes_;
  /// Producers between their state check and their push; Halt() waits for
  /// zero before its final drain.
  std::atomic<int> in_flight_{0};
  Mutex overflow_mu_;
  std::vector<std::function<void()>> overflow_ HOTMAN_GUARDED_BY(overflow_mu_);

  // Loop-thread-only (and the single setup/teardown thread outside it).
  std::map<std::pair<Micros, TimerId>, std::function<void()>> timers_;
  std::unordered_map<TimerId, Micros> timer_deadline_;

  std::thread thread_;
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_REACTOR_H_
