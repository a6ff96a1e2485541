#ifndef HOTMAN_NET_SHARDED_EXECUTOR_H_
#define HOTMAN_NET_SHARDED_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/executor.h"
#include "net/shard_context.h"

namespace hotman::net {

class Reactor;
class TcpTransport;

/// Shard-per-core runtime configuration.
struct ShardedExecutorConfig {
  int shards = 1;
  /// Threaded mode runs each shard on its own net::Reactor (one thread
  /// with its own epoll fd, eventfd and timer map — the real daemon and
  /// benches).
  /// Non-threaded mode multiplexes every shard onto the base executor with
  /// deterministic zero-delay hops (the simulator and chaos sweeps).
  bool threaded = false;
  /// Per-lane SPSC mailbox capacity (rounded up to a power of two).
  std::size_t mailbox_capacity = 1024;
};

/// N reactors behind one node: a deterministic key→shard mapping derived
/// from ring position, one executor per shard, and cross-shard message
/// passing through each reactor's mailbox, drained on its tick.
///
/// Shard 0 is the node's "system shard": when a TcpTransport is attached
/// its Reactor *is* shard 0 (gossip, membership and the wire protocol
/// stay loop-resident and unchanged), and reactors 1..N-1 carry the
/// keyed coordinator/replica work. Without an attached transport every
/// shard gets its own reactor (standalone benches and tests). In
/// non-threaded mode all shards share the base executor and hops become
/// deterministic zero-delay events: the sim loop fires those in (virtual
/// time, schedule order), so shard interleaving is a pure function of the
/// seed and chaos sweeps replay bit-identically.
class ShardedExecutor {
 public:
  /// Non-threaded (deterministic) runtime over any executor, or a
  /// standalone threaded reactor pool when `config.threaded` is set.
  ShardedExecutor(Executor* base, ShardedExecutorConfig config);

  /// Threaded runtime whose shard 0 is `transport`'s Reactor; reactors are
  /// created for shards 1..N-1.
  ShardedExecutor(TcpTransport* transport, ShardedExecutorConfig config);

  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Starts the reactor threads (threaded mode; the attached transport, if
  /// any, must already be started). No-op in non-threaded mode. (Named
  /// Launch/Shutdown rather than Start/Stop so whole-program analysis can
  /// tell the real-runtime lifecycle apart from event-loop Start/Stop
  /// methods — deterministic layers never call these.)
  Status Launch();

  /// Stops and joins the reactors; closures still sitting in mailboxes are
  /// dropped and counted, and so is any Post that races or follows the
  /// shutdown (run-or-count, never silently lost and never run inline on a
  /// foreign thread). Terminal: the executor cannot be relaunched, and the
  /// halted reactors stay allocated until destruction so racing producers
  /// never touch freed state. The attached transport's loop is left
  /// running (its owner stops it, and counts what that drops in
  /// net.posts_dropped_stopped).
  void Shutdown();

  int num_shards() const { return config_.shards; }
  bool threaded() const { return config_.threaded; }

  /// Ring-position → shard: the hash point space [0, 2^32) is split into
  /// `shards` contiguous arcs, so a key's shard is derived from the same
  /// coordinate that places it on the consistent-hash ring. (The hash
  /// itself lives a layer up — cluster/ maps key → ketama point → shard —
  /// keeping net/ free of hashring/ dependencies.)
  static int ShardForPoint(std::uint32_t point, int shards);

  /// The executor shard `shard`'s callbacks and timers must run on. In
  /// non-threaded mode every shard maps to the base executor; in transport
  /// mode shard 0's is the transport's Reactor.
  Executor* executor(int shard);

  /// Runs `fn` in shard `shard`'s context. Same-shard calls run inline;
  /// cross-shard calls travel through the caller's SPSC lane (threaded) or
  /// become a deterministic zero-delay event (non-threaded; with one shard
  /// every post is same-shard, so the schedule is the unsharded one).
  /// Lock-free on the hot path: a shard thread only falls back to the
  /// mutexed overflow lane when its ring is full. A thread outside every
  /// shard, and a post to shard 0 in transport mode (the transport's
  /// Reactor has no SPSC lanes), always takes that lock.
  void Post(int shard, std::function<void()> fn);

  /// Runs `fn` on `shard` and waits for it (setup, stats merges, teardown
  /// — never the hot path). Runs inline when already home.
  void PostSync(int shard, std::function<void()> fn);

  std::uint64_t cross_posts() const;
  std::uint64_t mailbox_overflows() const;
  std::uint64_t posts_dropped_stopped() const;

  /// sharded.* counters for /stats.
  void ExportStats(metrics::Registry* registry) const;

 private:
  /// Returns false only when a racing Stop() dropped the closure.
  bool PostThreaded(int shard, std::function<void()> fn);

  /// kIdle: before Launch() — single-threaded setup, posts run inline.
  /// kRunning: reactors live; cross-shard posts travel through mailboxes.
  /// kStopped: Shutdown() began (terminal) — cross-shard posts drop and
  /// count. Read/written concurrently by producer threads, so atomic.
  enum class State { kIdle, kRunning, kStopped };

  ShardedExecutorConfig config_;
  Executor* base_ = nullptr;          ///< non-threaded base
  TcpTransport* transport_ = nullptr; ///< threaded mode's shard 0, if any
  std::atomic<State> state_{State::kIdle};

  /// Threaded: the reactors this executor launched (every shard, or 1..N-1
  /// in transport mode), halted by Shutdown() and freed on destruction.
  std::vector<std::unique_ptr<Reactor>> owned_;
  /// Threaded: each shard's reactor, by shard index.
  std::vector<Reactor*> reactors_;

  std::atomic<std::uint64_t> cross_posts_{0};
  /// Posts refused at kStopped; the reactors count their own drops.
  std::atomic<std::uint64_t> posts_dropped_stopped_{0};
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_SHARDED_EXECUTOR_H_
