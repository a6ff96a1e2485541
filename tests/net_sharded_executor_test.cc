// ShardedExecutor tests: the cross-shard routing edges of the
// shard-per-core runtime. A closure for a key owned by shard A entering
// through shard B's context must hop (exactly one mailbox traversal) into
// A's reactor; non-keyed gossip-style frames stay pinned to shard 0 (the
// transport loop), while a shard's frames to its own node stay on that
// shard; timers scheduled on one shard cancel cleanly from another; and
// shutdown obeys the same run-or-count conservation law as
// TcpTransport::Post. Both runtimes are covered: threaded reactors and the
// deterministic sim multiplexing, plus a whole StorageNode on the threaded
// runtime hotmand ships: it serves its own replica in place (no frame, a
// nack and a fast-read demotion included), and it stops rather than race
// when one of its shards sends the node a system message.

#include "net/sharded_executor.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/messages.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "core/node_host.h"
#include "core/record.h"
#include "net/frame.h"
#include "net/remote_client.h"
#include "net/shard_context.h"
#include "net/spsc_queue.h"
#include "net/tcp_transport.h"
#include "sim/event_loop.h"

namespace hotman::net {
namespace {

using namespace std::chrono_literals;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

metrics::Registry Exported(const TcpTransport& transport) {
  metrics::Registry registry;
  transport.ExportStats(&registry);
  return registry;
}

// --- SPSC ring --------------------------------------------------------------

TEST(SpscQueueTest, FailedPushLeavesTheItemIntactForTheOverflowPath) {
  SpscQueue<std::function<void()>> ring(/*min_capacity=*/2);
  ASSERT_EQ(ring.capacity(), 2u);
  int ran = 0;
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    std::function<void()> fn = [&ran] { ++ran; };
    ASSERT_TRUE(ring.TryPush(std::move(fn)));
  }
  // The ring is full: the push must fail *without* consuming the closure —
  // the caller's overflow path re-routes this exact object, and an
  // empty std::function there would throw bad_function_call when drained.
  std::function<void()> overflowed = [&ran] { ran += 100; };
  ASSERT_FALSE(ring.TryPush(std::move(overflowed)));
  ASSERT_TRUE(static_cast<bool>(overflowed)) << "failed TryPush moved from its argument";
  overflowed();
  EXPECT_EQ(ran, 100);

  std::vector<std::function<void()>> drained;
  EXPECT_EQ(ring.Drain(&drained), ring.capacity());
  for (auto& fn : drained) fn();
  EXPECT_EQ(ran, 102);
}

// --- shard mapping ----------------------------------------------------------

TEST(ShardForPointTest, PartitionsTheRingIntoContiguousArcs) {
  // One shard: everything is shard 0.
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0, 1), 0);
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0xffffffffu, 1), 0);

  // Edges of the 4-shard split of [0, 2^32).
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0, 4), 0);
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0x3fffffffu, 4), 0);
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0x40000000u, 4), 1);
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0x80000000u, 4), 2);
  EXPECT_EQ(ShardedExecutor::ShardForPoint(0xffffffffu, 4), 3);

  // Monotone over the point space for any shard count: ring neighbors stay
  // shard neighbors, and every shard index stays in range.
  for (int shards : {2, 3, 5, 7, 64}) {
    int prev = 0;
    for (std::uint64_t point = 0; point <= 0xffffffffull;
         point += 0x01000000ull) {
      const int shard = ShardedExecutor::ShardForPoint(
          static_cast<std::uint32_t>(point), shards);
      EXPECT_GE(shard, prev);
      EXPECT_LT(shard, shards);
      prev = shard;
    }
    EXPECT_EQ(prev, shards - 1);
  }
}

// --- threaded reactors: cross-shard hops ------------------------------------

TEST(ShardedExecutorTest, CrossShardPostEntersTheOwningShardsContext) {
  ShardedExecutorConfig config;
  config.shards = 4;
  config.threaded = true;
  sim::EventLoop unused_base;  // standalone threaded mode ignores the base
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  // A closure whose key lives on shard 1 arrives "on shard 2's connection":
  // run from shard 2's reactor, it must hop into shard 1's context on shard
  // 1's thread — exactly what the node's dispatch layer does for a keyed
  // frame that lands on the wrong shard.
  std::promise<void> done;
  std::atomic<int> observed_shard{-2};
  std::atomic<bool> threads_differ{false};
  sharded.Post(2, [&] {
    ASSERT_EQ(ShardContext::Current(), 2);
    const std::thread::id entry_thread = std::this_thread::get_id();
    sharded.Post(1, [&, entry_thread] {
      observed_shard.store(ShardContext::Current());
      threads_differ.store(std::this_thread::get_id() != entry_thread);
      done.set_value();
    });
  });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  EXPECT_EQ(observed_shard.load(), 1);
  EXPECT_TRUE(threads_differ.load());
  EXPECT_GE(sharded.cross_posts(), 2u);  // outer hop (from main) + inner hop

  sharded.Shutdown();
}

TEST(ShardedExecutorTest, SameShardPostRunsInlineWithoutAHop) {
  ShardedExecutorConfig config;
  config.shards = 2;
  config.threaded = true;
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  const std::uint64_t hops_before_inner = 1;  // the hop that enters shard 1
  std::promise<void> done;
  bool ran_inline = false;
  sharded.Post(1, [&] {
    // Already home: the nested post must run synchronously, before the
    // enclosing closure continues.
    sharded.Post(1, [&] { ran_inline = true; });
    EXPECT_TRUE(ran_inline);
    EXPECT_EQ(sharded.cross_posts(), hops_before_inner);
    done.set_value();
  });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  EXPECT_TRUE(ran_inline);

  sharded.Shutdown();
}

TEST(ShardedExecutorTest, PostSyncRendezvousesWithTheTargetShard) {
  ShardedExecutorConfig config;
  config.shards = 3;
  config.threaded = true;
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  int observed_shard = -2;  // plain int: PostSync is the synchronization
  sharded.PostSync(2, [&] { observed_shard = ShardContext::Current(); });
  EXPECT_EQ(observed_shard, 2);

  sharded.Shutdown();
}

// --- shard-0 pinning (transport mode) ---------------------------------------

TEST(ShardedExecutorTest, GossipStyleFramesStayPinnedToShardZero) {
  // Transport mode: the TcpTransport event loop *is* shard 0, so non-keyed
  // frames (gossip, membership, stats) delivered to transport endpoints
  // execute in shard 0's context without any mailbox traversal.
  TcpTransportConfig net_config;
  net_config.listen_port = -1;
  TcpTransport transport(net_config);
  ASSERT_TRUE(transport.Start().ok());

  ShardedExecutorConfig config;
  config.shards = 3;
  ShardedExecutor sharded(&transport, config);
  ASSERT_TRUE(sharded.Launch().ok());
  EXPECT_TRUE(sharded.threaded());

  std::atomic<int> handler_shard{-2};
  transport.RegisterEndpoint("gossiper", [&](const Message&) {
    handler_shard.store(ShardContext::Current());
  });
  Message msg;
  msg.from = "gossiper";
  msg.to = "gossiper";
  msg.type = "gossip_syn";
  transport.Send(std::move(msg));
  ASSERT_TRUE(WaitUntil([&] { return handler_shard.load() != -2; }));
  EXPECT_EQ(handler_shard.load(), 0);

  // A cross-shard post targeting shard 0 from a keyed shard drains on the
  // transport's loop tick — same thread the gossip handler just ran on.
  std::promise<void> done;
  std::atomic<int> hop_shard{-2};
  sharded.Post(2, [&] {
    sharded.Post(0, [&] {
      hop_shard.store(ShardContext::Current());
      done.set_value();
    });
  });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  EXPECT_EQ(hop_shard.load(), 0);

  sharded.Shutdown();
  transport.Stop();
}

TEST(ShardedExecutorTest, LoopbackFrameFromAShardIsHandledOnThatShard) {
  // A keyed reactor's frame to its own node (a coordinator replicating to
  // itself) is delivered on the sending reactor: no hop to the transport
  // loop and back, yet counted exactly like any other frame.
  TcpTransportConfig net_config;
  net_config.listen_port = -1;
  TcpTransport transport(net_config);
  ASSERT_TRUE(transport.Start().ok());

  ShardedExecutorConfig config;
  config.shards = 3;
  ShardedExecutor sharded(&transport, config);
  ASSERT_TRUE(sharded.Launch().ok());

  std::atomic<int> handled{0};
  std::atomic<int> handler_shard{-2};
  transport.RegisterEndpoint("node", [&](const Message&) {
    handler_shard.store(ShardContext::Current());
    handled.fetch_add(1);
  });
  sharded.Post(2, [&] {
    Message msg;
    msg.from = "node";
    msg.to = "node";
    msg.type = "get_replica";
    transport.Send(std::move(msg));
  });
  ASSERT_TRUE(WaitUntil([&] { return handled.load() >= 1; }));
  EXPECT_EQ(handler_shard.load(), 2);

  std::this_thread::sleep_for(20ms);  // a second delivery would land here
  EXPECT_EQ(handled.load(), 1);
  metrics::Registry stats = Exported(transport);
  EXPECT_EQ(stats.counter("net.frames_sent")->value(), 1u);
  EXPECT_EQ(stats.counter("net.frames_delivered")->value(), 1u);
  EXPECT_EQ(stats.histogram("net.frame_latency.get_replica")->count(), 1u);
  EXPECT_EQ(stats.counter("net.frames_dropped")->value(), 0u);

  sharded.Shutdown();
  transport.Stop();
}

// --- timers across shards ---------------------------------------------------

TEST(ShardedExecutorTest, TimerCancellationCrossesShards) {
  ShardedExecutorConfig config;
  config.shards = 2;
  config.threaded = true;
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  // Shard 0 arms a timer (a put-timeout, say); the ack that retires it is
  // routed via shard 1 — which must be able to cancel shard 0's timer
  // before it fires.
  std::atomic<bool> fired{false};
  std::atomic<net::TimerId> timer_id{0};
  sharded.PostSync(0, [&] {
    timer_id.store(sharded.executor(0)->ScheduleTimer(
        200 * kMicrosPerMilli, [&] { fired.store(true); }));
  });
  ASSERT_NE(timer_id.load(), 0u);

  sharded.PostSync(1, [&] {
    EXPECT_EQ(ShardContext::Current(), 1);
    // Cross-thread cancellation is best-effort-true (as on TcpTransport):
    // the cancel itself hops to shard 0's reactor.
    EXPECT_TRUE(sharded.executor(0)->CancelTimer(timer_id.load()));
  });

  std::this_thread::sleep_for(400ms);
  EXPECT_FALSE(fired.load());

  // Control: an uncancelled cross-scheduled timer does fire, on its owning
  // shard's context.
  std::promise<void> done;
  std::atomic<int> fire_shard{-2};
  sharded.PostSync(1, [&] {
    sharded.executor(0)->ScheduleTimer(5 * kMicrosPerMilli, [&] {
      fire_shard.store(ShardContext::Current());
      done.set_value();
    });
  });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  EXPECT_EQ(fire_shard.load(), 0);

  sharded.Shutdown();
}

// --- shutdown conservation --------------------------------------------------

TEST(ShardedExecutorTest, ShutdownRunsOrCountsEveryPost) {
  ShardedExecutorConfig config;
  config.shards = 1;
  config.threaded = true;
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  // Wedge the only reactor so later posts sit in its mailbox, then shut
  // down while it is wedged: the queued closures must be dropped *and
  // counted*, never silently lost (the sharded twin of the
  // TcpTransport::Post-vs-Stop conservation law).
  std::promise<void> wedged;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  sharded.Post(0, [&wedged, release_future] {
    wedged.set_value();
    release_future.wait();
  });
  ASSERT_EQ(wedged.get_future().wait_for(5s), std::future_status::ready);

  constexpr std::uint64_t kQueued = 5;
  std::atomic<std::uint64_t> executed{0};
  for (std::uint64_t i = 0; i < kQueued; ++i) {
    sharded.Post(0, [&executed] { ++executed; });
  }

  std::thread stopper([&sharded] { sharded.Shutdown(); });
  // Give Shutdown time to flip the reactor's running flag, then let the
  // wedge go: the loop observes the flag before draining the queue.
  std::this_thread::sleep_for(200ms);
  release.set_value();
  stopper.join();

  EXPECT_EQ(executed.load() + sharded.posts_dropped_stopped(), kQueued);
}

TEST(ShardedExecutorTest, OverflowedClosuresStillRunAfterAFullLane) {
  // A shard whose SPSC lane into another shard fills must fall back to the
  // overflow lane with the *same* closure: none of the posts may be lost
  // or degrade into empty std::functions (regression: a failed TryPush
  // used to move from its argument, so the overflow lane drained
  // bad_function_call bombs).
  ShardedExecutorConfig config;
  config.shards = 2;
  config.threaded = true;
  config.mailbox_capacity = 4;  // tiny ring: most posts overflow
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  // Wedge shard 0 so pushed closures pile up instead of draining.
  std::promise<void> wedged;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  sharded.Post(0, [&wedged, release_future] {
    wedged.set_value();
    release_future.wait();
  });
  ASSERT_EQ(wedged.get_future().wait_for(5s), std::future_status::ready);

  // Shard 1 is the producer: its thread owns lane 1 of shard 0's mailbox.
  constexpr int kPosts = 32;
  std::atomic<int> executed{0};
  sharded.PostSync(1, [&] {
    for (int i = 0; i < kPosts; ++i) {
      sharded.Post(0, [&executed] { ++executed; });
    }
  });
  EXPECT_GE(sharded.mailbox_overflows(), 1u) << "ring never filled";

  release.set_value();
  EXPECT_TRUE(WaitUntil([&] { return executed.load() == kPosts; }))
      << "only " << executed.load() << "/" << kPosts
      << " posts ran; overflowed closures were lost";
  sharded.Shutdown();
}

TEST(ShardedExecutorTest, PostAfterShutdownDropsAndCountsNeverRunsInline) {
  // After Shutdown() a cross-shard post must not run inline on the
  // caller's thread (that would put a foreign thread on shard state that
  // a dying reactor may still touch) — it is dropped and counted.
  ShardedExecutorConfig config;
  config.shards = 2;
  config.threaded = true;
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());
  sharded.Shutdown();

  const std::uint64_t dropped_before = sharded.posts_dropped_stopped();
  std::atomic<bool> ran{false};
  sharded.Post(1, [&ran] { ran.store(true); });
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sharded.posts_dropped_stopped(), dropped_before + 1);

  // The executor handles stay valid after Shutdown (halted, not freed):
  // timers scheduled into them drop + count, and cancels report false.
  std::atomic<bool> fired{false};
  const TimerId id =
      sharded.executor(1)->ScheduleTimer(0, [&fired] { fired.store(true); });
  EXPECT_EQ(sharded.posts_dropped_stopped(), dropped_before + 2);
  EXPECT_FALSE(sharded.executor(1)->CancelTimer(id));
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(fired.load());
}

TEST(ShardedExecutorTest, ConcurrentProducersObeyRunOrCountThroughShutdown) {
  // Conservation law under contention: every shard hammers the other
  // shards' SPSC lanes while the main thread shuts the executor down
  // mid-stream. Every single post must either execute or land in
  // posts_dropped_stopped — the lock-free close path may not leak closures
  // into a ring nobody will ever drain.
  constexpr int kShards = 4;
  ShardedExecutorConfig config;
  config.shards = kShards;
  config.threaded = true;
  config.mailbox_capacity = 16;  // small rings force the overflow path too
  sim::EventLoop unused_base;
  ShardedExecutor sharded(&unused_base, config);
  ASSERT_TRUE(sharded.Launch().ok());

  constexpr int kPostsPerShard = 2000;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<int> started{0};
  for (int k = 0; k < kShards; ++k) {
    sharded.Post(k, [&sharded, &executed, &started, k] {
      started.fetch_add(1);
      for (int i = 0; i < kPostsPerShard; ++i) {
        const int other = (k + 1 + i % (kShards - 1)) % kShards;
        sharded.Post(other, [&executed] { ++executed; });
      }
    });
  }
  // Shut down once every producer runs: each then finishes its loop on
  // its own reactor, which Shutdown() joins.
  EXPECT_TRUE(WaitUntil([&] { return started.load() == kShards; }));
  sharded.Shutdown();

  EXPECT_EQ(executed.load() + sharded.posts_dropped_stopped(),
            static_cast<std::uint64_t>(kShards) * kPostsPerShard);
}

TEST(ShardedExecutorTest, ShardZeroPostsRacingShutdownAndStopAreRunOrCounted) {
  // Transport mode: shard 0's mailbox is the transport loop's, which
  // outlives Shutdown() until the transport stops. Both shards and two
  // threads outside every shard hammer shard 0 and shard 1 through both
  // stops: every post runs, or is counted by the executor or, for one the
  // stopping loop catches, in net.posts_dropped_stopped.
  TcpTransportConfig net_config;
  net_config.listen_port = -1;
  TcpTransport transport(net_config);
  ASSERT_TRUE(transport.Start().ok());
  ShardedExecutorConfig config;
  config.shards = 2;
  config.mailbox_capacity = 16;
  ShardedExecutor sharded(&transport, config);
  ASSERT_TRUE(sharded.Launch().ok());

  constexpr int kProducers = 4;  // shard 0, shard 1, two outside threads
  constexpr int kPostsPerProducer = 2000;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<int> started{0};
  auto produce = [&sharded, &executed, &started](int t) {
    started.fetch_add(1);
    for (int i = 0; i < kPostsPerProducer; ++i) {
      sharded.Post((t + i) % 2, [&executed] { ++executed; });
    }
  };
  for (int shard = 0; shard < 2; ++shard) {
    sharded.Post(shard, [&produce, shard] { produce(shard); });
  }
  std::vector<std::thread> outside;
  for (int t = 2; t < kProducers; ++t) outside.emplace_back(produce, t);
  // Stop once every producer runs; a shard producer then finishes its loop
  // on the thread that the stop joins.
  EXPECT_TRUE(WaitUntil([&] { return started.load() == kProducers; }));
  sharded.Shutdown();
  transport.Stop();
  for (auto& producer : outside) producer.join();

  const std::uint64_t loop_dropped =
      Exported(transport).counter("net.posts_dropped_stopped")->value();
  EXPECT_EQ(executed.load() + sharded.posts_dropped_stopped() + loop_dropped,
            static_cast<std::uint64_t>(kProducers) * kPostsPerProducer)
      << "executed=" << executed.load()
      << " sharded=" << sharded.posts_dropped_stopped()
      << " loop=" << loop_dropped;
}

// --- deterministic (sim) runtime --------------------------------------------

TEST(ShardedExecutorTest, SimRuntimeHopsAreZeroDelayEventsInScheduleOrder) {
  sim::EventLoop loop;
  ShardedExecutorConfig config;
  config.shards = 4;
  ShardedExecutor sharded(&loop, config);
  EXPECT_FALSE(sharded.threaded());
  // Every shard shares the one sim executor.
  EXPECT_EQ(sharded.executor(0), &loop);
  EXPECT_EQ(sharded.executor(3), &loop);

  std::vector<std::string> order;
  sharded.Post(2, [&] {
    EXPECT_EQ(ShardContext::Current(), 2);
    order.push_back("enter-2");
    // Same-shard: inline, exactly like the threaded runtime.
    sharded.Post(2, [&] { order.push_back("inline-2"); });
    // Cross-shard: a zero-delay event — deferred past this closure, so the
    // interleaving is a pure function of schedule order (bit-identical
    // chaos replays).
    sharded.Post(3, [&] {
      EXPECT_EQ(ShardContext::Current(), 3);
      order.push_back("hop-3");
    });
    order.push_back("exit-2");
  });
  EXPECT_TRUE(order.empty());  // nothing runs until the loop does
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"enter-2", "inline-2", "exit-2",
                                             "hop-3"}));
  EXPECT_EQ(loop.Now(), 0);  // hops consumed no virtual time
  EXPECT_GE(sharded.cross_posts(), 2u);
}

// --- whole-node routing (sim cluster) ---------------------------------------

TEST(ShardedExecutorTest, ClusterRoutesEveryKeyToItsOwningShardStore) {
  // End to end through StorageNode's dispatch: on a 4-shard cluster every
  // replica of a key must land in the owning shard's partition (and only
  // there), no matter which node coordinated — i.e. a keyed frame arriving
  // "on shard B's connection" was really routed to shard A.
  cluster::ClusterConfig config = cluster::ClusterConfig::PaperSetup();
  config.shards = 4;
  cluster::Cluster cluster(config, /*seed=*/7);
  ASSERT_TRUE(cluster.Start().ok());

  const int kKeys = 32;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(cluster.PutSync(key, ToBytes("v")).ok());
  }
  cluster.RunFor(3 * kMicrosPerSecond);  // let W..N replication finish

  std::vector<int> shard_hits(4, 0);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(cluster.GetSync(key).ok()) << key;
    for (cluster::StorageNode* node : cluster.nodes()) {
      const int owner = node->ShardOfKey(key);
      ASSERT_EQ(owner, cluster.nodes().front()->ShardOfKey(key))
          << "shard mapping must agree across nodes";
      for (int shard = 0; shard < node->num_shards(); ++shard) {
        const bool holds = node->StoreOfShard(shard)->GetByKey(key).ok();
        if (shard == owner) continue;  // presence depends on preference list
        EXPECT_FALSE(holds) << key << " leaked into shard " << shard << " on "
                            << node->id();
      }
    }
    ++shard_hits[cluster.nodes().front()->ShardOfKey(key)];
  }
  // The keyspace actually exercises more than one shard.
  int populated = 0;
  for (int hits : shard_hits) populated += hits > 0 ? 1 : 0;
  EXPECT_GE(populated, 2) << "test keys all hashed into one shard";
  EXPECT_EQ(cluster.TotalReplicas(),
            static_cast<std::size_t>(kKeys) * config.replication_factor);
}

// --- the shipped runtime at more than one shard -----------------------------

/// One seed node at N=W=R=1 with 3 shards, on the real runtime.
cluster::ClusterConfig SoloNodeConfig() {
  cluster::ClusterConfig config;
  config.replication_factor = 1;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.shards = 3;
  cluster::NodeSpec spec;
  spec.address = "solo:19870";
  spec.is_seed = true;
  config.nodes.push_back(spec);
  return config;
}

/// One StorageNode on hotmand's runtime, hosted as hotmand hosts it. Ops
/// run from the test thread and wait for their answer, counting every
/// callback so a test can check that each op answered exactly once.
class ShardedRuntimeTest : public ::testing::Test {
 protected:
  void Boot(const cluster::ClusterConfig& config) {
    ASSERT_TRUE(config.Validate().ok());
    config_ = config;
    host_ = std::make_unique<core::NodeHost>(config.nodes.front(), config,
                                             TcpTransportConfig{}, /*rng_seed=*/1);
    ASSERT_TRUE(host_->Start().ok());
    node_ = host_->node();
  }

  void TearDown() override {
    if (host_ == nullptr) return;
    host_->Stop();
    EXPECT_EQ(host_->sharded()->posts_dropped_stopped(), 0u);
    EXPECT_EQ(Exported(*host_->transport()).counter("net.posts_dropped_stopped")->value(),
              0u);
  }

  /// One op's answer: the first callback fulfils the promise; every
  /// callback counts in `answers_`, so a test sees a second answer.
  template <typename T>
  struct Reply {
    std::promise<T> promise;
    std::atomic<bool> answered{false};
    void Set(T value) {
      if (!answered.exchange(true)) promise.set_value(std::move(value));
    }
  };

  /// A coordinated put's status; Timeout when no answer came within 5 s.
  Status Put(const std::string& key, const std::string& value) {
    auto reply = std::make_shared<Reply<Status>>();
    node_->CoordinatePut(key, ToBytes(value), [this, reply](const Status& s) {
      answers_.fetch_add(1);
      reply->Set(s);
    });
    auto answer = reply->promise.get_future();
    if (answer.wait_for(5s) != std::future_status::ready) {
      return Status::Timeout("no answer to put " + key);
    }
    return answer.get();
  }

  /// A coordinated get's value, or its failure status as text.
  std::string Get(const std::string& key) {
    auto reply = std::make_shared<Reply<std::string>>();
    node_->CoordinateGet(key, [this, reply](const Result<bson::Document>& r) {
      answers_.fetch_add(1);
      reply->Set(r.ok() ? ToString(core::RecordValue(*r)) : r.status().ToString());
    });
    auto answer = reply->promise.get_future();
    if (answer.wait_for(5s) != std::future_status::ready) {
      return "<no answer to get " + key + ">";
    }
    return answer.get();
  }

  /// The change in a transport counter since `before`.
  std::uint64_t NetDelta(metrics::Registry& before, const char* name) const {
    return Exported(*host_->transport()).counter(name)->value() -
           before.counter(name)->value();
  }

  /// Keys spread evenly over the node's shards.
  std::vector<std::string> KeysPerShard(int per_shard) const {
    std::vector<std::string> keys;
    std::vector<int> count(static_cast<std::size_t>(node_->num_shards()), 0);
    for (int i = 0;
         static_cast<int>(keys.size()) < per_shard * node_->num_shards(); ++i) {
      const std::string key = "rt" + std::to_string(i);
      int& n = count[static_cast<std::size_t>(node_->ShardOfKey(key))];
      if (n == per_shard) continue;
      ++n;
      keys.push_back(key);
    }
    return keys;
  }

  cluster::ClusterConfig config_;
  std::unique_ptr<core::NodeHost> host_;
  cluster::StorageNode* node_ = nullptr;
  std::atomic<int> answers_{0};
};

TEST_F(ShardedRuntimeTest, ThreeShardNodeServesReadYourWritesWithoutLoopbackHops) {
  // N=W=R=1 on one node: every op's one replica is the coordinator itself,
  // served in place on the key's own shard, so no frame is sent at all.
  Boot(SoloNodeConfig());
  const std::vector<std::string> keys = KeysPerShard(6);

  metrics::Registry before = Exported(*host_->transport());
  const cluster::NodeStats stats_before = node_->stats();
  const std::uint64_t posts_before = host_->sharded()->cross_posts();

  constexpr int kCallers = 2;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::string> mine;
      for (std::size_t i = c; i < keys.size(); i += kCallers) {
        mine.push_back(keys[i]);
      }
      for (const std::string& key : mine) {
        if (!Put(key, "v-" + key).ok()) failures.fetch_add(1);
      }
      for (const std::string& key : mine) {
        if (Get(key) != "v-" + key) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  const std::uint64_t ops = 2 * keys.size();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answers_.load(), static_cast<int>(ops));
  // Each op crosses threads once, from its caller onto the key's shard; its
  // replica work runs there as a call.
  EXPECT_EQ(host_->sharded()->cross_posts() - posts_before, ops);
  EXPECT_EQ(NetDelta(before, "net.frames_sent"), 0u);
  EXPECT_EQ(NetDelta(before, "net.frames_delivered"), 0u);
  for (const char* dropped :
       {"net.frames_dropped", "net.dropped_no_endpoint",
        "net.dropped_not_connected", "net.dropped_backpressure"}) {
    EXPECT_EQ(NetDelta(before, dropped), 0u) << dropped;
  }
  // The replica work still happens, and is still counted, once per op.
  const cluster::NodeStats stats_after = node_->stats();
  EXPECT_EQ(stats_after.replica_puts_applied - stats_before.replica_puts_applied,
            keys.size());
  EXPECT_EQ(stats_after.replica_gets_served - stats_before.replica_gets_served,
            keys.size());
}

TEST_F(ShardedRuntimeTest, FaultedOwnReplicaNacksInPlaceOnce) {
  // The own replica's nack drives the put and get state machines exactly as
  // a nack frame did: each op fails at once (no remote replica, no handoff
  // substitute), and nothing is applied, served or sent.
  Boot(SoloNodeConfig());
  const std::string key = KeysPerShard(1).back();
  metrics::Registry before = Exported(*host_->transport());
  const cluster::NodeStats stats_before = node_->stats();

  node_->server()->SetFault(docstore::FaultMode::kDown);
  auto started = std::chrono::steady_clock::now();
  const Status put = Put(key, "v1");
  const auto put_wait = std::chrono::steady_clock::now() - started;
  started = std::chrono::steady_clock::now();
  const std::string get = Get(key);
  const auto get_wait = std::chrono::steady_clock::now() - started;

  EXPECT_FALSE(put.ok());
  EXPECT_TRUE(put.IsQuorumFailed()) << put.ToString();
  EXPECT_NE(get.find("Unavailable"), std::string::npos) << get;
  EXPECT_LT(put_wait, std::chrono::microseconds(config_.put_timeout / 4));
  EXPECT_LT(get_wait, std::chrono::microseconds(config_.get_timeout / 4));
  const cluster::NodeStats faulted = node_->stats();
  EXPECT_EQ(faulted.puts_failed - stats_before.puts_failed, 1u);
  EXPECT_EQ(faulted.gets_failed - stats_before.gets_failed, 1u);
  EXPECT_EQ(faulted.replica_puts_applied, stats_before.replica_puts_applied);
  EXPECT_EQ(faulted.replica_gets_served, stats_before.replica_gets_served);
  EXPECT_EQ(faulted.replica_digests_served, stats_before.replica_digests_served);
  EXPECT_EQ(NetDelta(before, "net.frames_sent"), 0u);

  node_->server()->SetFault(docstore::FaultMode::kNone);
  EXPECT_TRUE(Put(key, "v2").ok());
  EXPECT_EQ(Get(key), "v2");
  EXPECT_EQ(answers_.load(), 4);
  EXPECT_EQ(NetDelta(before, "net.frames_sent"), 0u);
}

TEST_F(ShardedRuntimeTest, FastReadDemotesAndReissuesInPlace) {
  // Strict fast reads (hinted handoff off): a clean key's get asks the
  // primary alone. Here the primary is the coordinator, so a miss demotes
  // inside the in-place answer and re-issues as a quorum read under a new
  // request id (IssueRead -> HandleGetAck -> AdvanceRead -> IssueRead),
  // which answers NotFound once; the first request sends nothing after.
  cluster::ClusterConfig config = SoloNodeConfig();
  config.fast_reads = true;
  config.hinted_handoff = false;
  Boot(config);
  const std::vector<std::string> keys = KeysPerShard(1);
  const std::string& missing = keys[0];
  const std::string& present = keys[1];
  ASSERT_TRUE(Put(present, "here").ok());
  ASSERT_TRUE(node_->KeyIsClean(present));
  ASSERT_TRUE(node_->KeyIsClean(missing));

  metrics::Registry before = Exported(*host_->transport());
  const cluster::NodeStats stats_before = node_->stats();
  const std::string miss = Get(missing);
  const cluster::NodeStats demoted = node_->stats();
  EXPECT_NE(miss.find("NotFound"), std::string::npos) << miss;
  EXPECT_EQ(demoted.fast_read_demotions - stats_before.fast_read_demotions, 1u);
  EXPECT_EQ(demoted.fast_read_hits, stats_before.fast_read_hits);
  // The fast attempt and the quorum re-issue each read the own replica.
  EXPECT_EQ(demoted.replica_gets_served - stats_before.replica_gets_served, 2u);

  EXPECT_EQ(Get(present), "here");
  const cluster::NodeStats hit = node_->stats();
  EXPECT_EQ(hit.fast_read_hits - demoted.fast_read_hits, 1u);
  EXPECT_EQ(hit.fast_read_demotions, demoted.fast_read_demotions);
  EXPECT_EQ(NetDelta(before, "net.frames_sent"), 0u);
  EXPECT_EQ(answers_.load(), 3);
}

TEST_F(ShardedRuntimeTest, MalformedRecordFramesLeaveTheNodeServing) {
  // Anyone who can connect can send frames: the transport learns a peer's
  // name from its first frame. A put_replica and a get_ack whose record
  // core::ValidateRecord rejects are dropped by their decoders, so the node
  // goes on serving clients instead of aborting in a record accessor.
  Boot(SoloNodeConfig());
  const std::uint16_t port = host_->transport()->listen_port();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  cluster::GetAckMsg forged_ack;
  forged_ack.req = 1u << cluster::StorageNode::kShardBits;
  forged_ack.ok = true;
  forged_ack.found = true;  // with an empty record
  std::string wire;
  for (auto& [type, body] :
       {std::pair{cluster::kMsgPutReplica,
                  cluster::EncodePutReplica(cluster::PutReplicaMsg{1, {}})},
        std::pair{cluster::kMsgGetAck, cluster::EncodeGetAck(forged_ack)}}) {
    Message msg;
    msg.from = "intruder:1";
    msg.to = config_.nodes.front().address;
    msg.type = type;
    msg.body = body;
    EncodeFrame(msg, &wire);
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // One connection's frames are handled in order: once the get_ack counts
  // as corrupt, the put_replica before it has been handled too.
  ASSERT_TRUE(WaitUntil([&] { return node_->stats().get_acks_corrupt == 1; }));

  RemoteClientConfig client_config;
  client_config.port = port;
  client_config.name = "client:1";
  RemoteClient client(client_config);
  const std::string& server = config_.nodes.front().address;
  ASSERT_TRUE(client.Put(server, "user:42", ToBytes("v1")).ok());
  Result<Bytes> got = client.Get(server, "user:42");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(*got), "v1");
  client.Close();
  ::close(fd);
}

TEST(ShardedRuntimeDeathTest, SystemMessageAShardSendsItsOwnNodeAborts) {
  // System handlers (gossip, membership, anti-entropy, rebalance) touch
  // shard 0's state without a hop, and a frame a node sends itself is
  // handled on the sending shard. One sent from shard 2 must stop the
  // process instead of racing shard 0.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TcpTransportConfig net_config;
        net_config.listen_port = -1;
        const cluster::ClusterConfig config = SoloNodeConfig();
        core::NodeHost host(config.nodes.front(), config, net_config,
                            /*rng_seed=*/1);
        (void)host.Start();
        host.sharded()->Post(2, [&] {
          Message msg;
          msg.from = msg.to = config.nodes.front().address;
          msg.type = cluster::kMsgNodeAdded;
          host.transport()->Send(std::move(msg));
        });
        std::this_thread::sleep_for(5s);
      },
      "system message node_added delivered on shard 2");
}

}  // namespace
}  // namespace hotman::net
