#ifndef HOTMAN_NET_SHARD_CONTEXT_H_
#define HOTMAN_NET_SHARD_CONTEXT_H_

namespace hotman::net {

class Executor;

/// Which shard's reactor context the calling thread is currently executing
/// in. Shard-affine state (a StorageNode shard's pending tables, dirty set,
/// hint ledger) may only be touched when Current() equals its shard index;
/// the routing layer consults Current() to decide between a direct call
/// (already home) and a mailbox hop.
///
/// In the threaded runtime every reactor thread pins its shard index for
/// its lifetime. In the deterministic single-threaded runtime the scope is
/// pushed around each delivered closure, so the same discipline holds on
/// one thread.
struct ShardContext {
  /// Shard index of the current execution context, or -1 when the calling
  /// thread is outside any shard (setup threads, benchmark drivers).
  static int Current();

  /// The net::Reactor whose loop the calling thread runs: a shard's, or a
  /// TcpTransport's (shard 0 once a ShardedExecutor adopts it). Null on
  /// every other thread, and in the deterministic runtime (its shards share
  /// one base executor). TcpTransport::Send delivers a loopback frame on
  /// this executor, so the frame never leaves the sending shard.
  static Executor* CurrentExecutor();

  /// RAII context push: marks the calling thread as executing shard
  /// `shard` until destruction, restoring the previous value after.
  class Scope {
   public:
    explicit Scope(int shard);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int prev_;
  };
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_SHARD_CONTEXT_H_
