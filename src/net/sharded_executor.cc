#include "net/sharded_executor.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "net/reactor.h"
#include "net/tcp_transport.h"

namespace hotman::net {

ShardedExecutor::ShardedExecutor(Executor* base, ShardedExecutorConfig config)
    : config_(config), base_(base) {
  if (config_.shards < 1) config_.shards = 1;
}

ShardedExecutor::ShardedExecutor(TcpTransport* transport,
                                 ShardedExecutorConfig config)
    : config_(config), transport_(transport) {
  if (config_.shards < 1) config_.shards = 1;
  config_.threaded = true;
}

ShardedExecutor::~ShardedExecutor() { Shutdown(); }

Status ShardedExecutor::Launch() {
  if (state_.load() != State::kIdle) {
    return Status::AlreadyExists("sharded executor already started");
  }
  if (config_.threaded) {
    for (int shard = 0; shard < config_.shards; ++shard) {
      Reactor* reactor = nullptr;
      if (shard == 0 && transport_ != nullptr) {
        reactor = transport_->loop();
      } else {
        owned_.push_back(std::make_unique<Reactor>(config_.shards,
                                                   config_.mailbox_capacity));
        reactor = owned_.back().get();
        HOTMAN_RETURN_IF_ERROR(reactor->Launch());
      }
      reactor->AdoptShard(shard);
      reactors_.push_back(reactor);
    }
  }
  state_.store(State::kRunning);
  return Status::OK();
}

void ShardedExecutor::Shutdown() {
  // kRunning -> kStopped exactly once; producers that read kRunning just
  // before the flip land in mailboxes whose Halt() below (or, for shard 0
  // in transport mode, the transport's Stop()) drains or counts them, and
  // later producers see kStopped and drop + count.
  State expected = State::kRunning;
  if (!state_.compare_exchange_strong(expected, State::kStopped)) return;
  // Reactors are halted but stay allocated until destruction: a racing
  // PostThreaded that saw kRunning may still hold a reactor pointer, and a
  // halted reactor safely drops + counts.
  for (auto& reactor : owned_) reactor->Halt();
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
  const auto slot = static_cast<std::size_t>(shard);
  if (slot >= reactors_.size()) {
    // Threaded reactors are created by Launch() (and survive, halted,
    // until destruction); handing out a null executor here would be a
    // delayed crash at the caller.
    HOTMAN_LOG(kError) << "ShardedExecutor::executor(" << shard
                       << ") before Launch()";
    std::abort();
  }
  return reactors_[slot];
}

void ShardedExecutor::Post(int shard, std::function<void()> fn) {
  if (config_.threaded) {
    PostThreaded(shard, std::move(fn));
    return;
  }
  if (config_.shards == 1 || ShardContext::Current() == shard) {
    ShardContext::Scope scope(shard);
    fn();
    return;
  }
  cross_posts_.fetch_add(1, std::memory_order_relaxed);
  base_->ScheduleTimer(0, [shard, fn = std::move(fn)] {
    ShardContext::Scope scope(shard);
    fn();
  });
}

bool ShardedExecutor::PostThreaded(int shard, std::function<void()> fn) {
  if (ShardContext::Current() == shard) {
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
  return reactors_[static_cast<std::size_t>(shard)]->Post(std::move(fn));
}

void ShardedExecutor::PostSync(int shard, std::function<void()> fn) {
  if (!config_.threaded || state_.load(std::memory_order_acquire) == State::kIdle ||
      ShardContext::Current() == shard) {
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

std::uint64_t ShardedExecutor::cross_posts() const {
  return cross_posts_.load(std::memory_order_relaxed);
}

std::uint64_t ShardedExecutor::mailbox_overflows() const {
  std::uint64_t n = 0;
  for (const auto& reactor : owned_) n += reactor->overflows();
  return n;
}

std::uint64_t ShardedExecutor::posts_dropped_stopped() const {
  std::uint64_t n = posts_dropped_stopped_.load(std::memory_order_relaxed);
  for (const auto& reactor : owned_) n += reactor->dropped();
  return n;
}

void ShardedExecutor::ExportStats(metrics::Registry* registry) const {
  registry->gauge("sharded.shards")->Set(config_.shards);
  registry->counter("sharded.cross_posts")->Increment(cross_posts());
  registry->counter("sharded.mailbox_overflows")->Increment(mailbox_overflows());
  registry->counter("sharded.posts_dropped_stopped")
      ->Increment(posts_dropped_stopped());
}

}  // namespace hotman::net
