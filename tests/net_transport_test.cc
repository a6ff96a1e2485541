// TcpTransport tests: two real transports exchanging frames over loopback,
// lazy connect + reconnect-with-backoff, self-delivery, backpressure
// shedding, timers, hostile-peer handling, and frames written directly by
// the sending thread (concurrent senders, a busy loop, a racing Stop, the
// write-stall clock and close). Everything binds ephemeral ports, so tests
// are parallel-safe.

#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/frame.h"

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

std::uint64_t CounterValue(const TcpTransport& transport, const char* name) {
  metrics::Registry registry;
  transport.ExportStats(&registry);
  return registry.counter(name)->value();
}

std::int64_t GaugeValue(const TcpTransport& transport, const char* name) {
  metrics::Registry registry;
  transport.ExportStats(&registry);
  return registry.gauge(name)->value();
}

/// A mailbox endpoint handler: collects messages, thread-safe.
class Mailbox {
 public:
  TcpTransport::Handler AsHandler() {
    return [this](const Message& msg) {
      std::lock_guard<std::mutex> lock(mu_);
      messages_.push_back(msg);
    };
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_.size();
  }

  Message at(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_.at(i);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Message> messages_;
};

Message Make(const std::string& from, const std::string& to,
             const std::string& type, int seq = 0) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.body.Append("seq", bson::Value(static_cast<std::int64_t>(seq)));
  return msg;
}

/// Listens on an ephemeral loopback port whose accepted sockets inherit a
/// 64 KiB receive buffer, so bytes sent to a peer that does not read back
/// up in the sender soon. Returns the listening fd (-1 on failure) and sets
/// `*port`.
int ListenWithSmallBuffer(std::uint16_t* port) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (lfd < 0) return -1;
  const int small_buffer = 64 * 1024;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &small_buffer,
                   sizeof(small_buffer)) != 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 8) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return lfd;
}

/// Sends frames `first`..`last` to "sink", each padded with 64 KiB.
void SendPaddedBurst(TcpTransport* transport, int first, int last) {
  const std::string pad(64 * 1024, 'x');
  for (int i = first; i <= last; ++i) {
    Message msg = Make("cli", "sink", "bulk", i);
    msg.body.Append("pad", bson::Value(pad));
    transport->Send(std::move(msg));
  }
}

TEST(TcpTransportTest, RequestReplyAcrossTwoTransports) {
  TcpTransportConfig server_config;
  server_config.listen_port = 0;
  TcpTransport server(server_config);
  ASSERT_TRUE(server.Start().ok());

  // Server endpoint echoes every ping back to the sender: the reply routes
  // over the inbound connection via the learned peer name.
  server.RegisterEndpoint("srv", [&server](const Message& msg) {
    server.Send(Make("srv", msg.from, "pong",
                     static_cast<int>(msg.body.Get("seq")->as_int64())));
  });

  TcpTransportConfig client_config;
  client_config.listen_port = -1;  // pure client: no listener
  client_config.peers["srv"] = TcpPeer{"127.0.0.1", server.listen_port()};
  TcpTransport client(client_config);
  ASSERT_TRUE(client.Start().ok());
  Mailbox inbox;
  client.RegisterEndpoint("cli", inbox.AsHandler());

  client.Send(Make("cli", "srv", "ping", 42));
  ASSERT_TRUE(WaitUntil([&] { return inbox.count() >= 1; }));
  EXPECT_EQ(inbox.at(0).type, "pong");
  EXPECT_EQ(inbox.at(0).from, "srv");
  EXPECT_EQ(inbox.at(0).body.Get("seq")->as_int64(), 42);

  EXPECT_GE(CounterValue(client, "net.frames_sent"), 1u);
  EXPECT_GE(CounterValue(client, "net.frames_delivered"), 1u);
  EXPECT_GE(CounterValue(server, "net.connections_accepted"), 1u);
  EXPECT_GE(CounterValue(server, "net.frames_delivered"), 1u);
  EXPECT_GT(CounterValue(server, "net.bytes_delivered"), 0u);

  client.Stop();
  server.Stop();
}

TEST(TcpTransportTest, SelfSendDeliversLocally) {
  TcpTransportConfig config;
  config.listen_port = -1;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());
  Mailbox inbox;
  transport.RegisterEndpoint("me", inbox.AsHandler());
  transport.Send(Make("me", "me", "note", 7));
  ASSERT_TRUE(WaitUntil([&] { return inbox.count() >= 1; }));
  EXPECT_EQ(inbox.at(0).type, "note");
  EXPECT_EQ(CounterValue(transport, "net.connections_opened"), 0u);
  transport.Stop();
}

TEST(TcpTransportTest, FrameSentBeforeRegistrationWaitsForTheEndpoint) {
  // hotmand listens in transport.Start() but registers its endpoint only in
  // node->Start(). A client frame landing in between must wait for the
  // endpoint (in the kernel backlog), not be dropped with its caller left
  // to time out.
  TcpTransportConfig server_config;
  server_config.listen_port = 0;
  TcpTransport server(server_config);
  ASSERT_TRUE(server.Start().ok());

  TcpTransportConfig client_config;
  client_config.listen_port = -1;
  client_config.peers["srv"] = TcpPeer{"127.0.0.1", server.listen_port()};
  TcpTransport client(client_config);
  ASSERT_TRUE(client.Start().ok());
  client.Send(Make("cli", "srv", "early", 5));
  ASSERT_TRUE(WaitUntil([&] {
    return CounterValue(client, "net.connections_opened") >= 1 &&
           CounterValue(client, "net.frames_sent") >= 1;
  }));
  // Time for a listener that accepted early to read and drop the frame.
  std::this_thread::sleep_for(100ms);

  Mailbox inbox;
  server.RegisterEndpoint("srv", inbox.AsHandler());
  ASSERT_TRUE(WaitUntil([&] { return inbox.count() >= 1; }));
  EXPECT_EQ(inbox.at(0).type, "early");
  EXPECT_EQ(inbox.at(0).body.Get("seq")->as_int64(), 5);
  EXPECT_EQ(CounterValue(server, "net.dropped_no_endpoint"), 0u);
  EXPECT_EQ(CounterValue(server, "net.frames_dropped"), 0u);

  client.Stop();
  server.Stop();
}

TEST(TcpTransportTest, UnknownDestinationCountedDropped) {
  TcpTransportConfig config;
  config.listen_port = -1;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());
  transport.Send(Make("me", "nobody", "lost"));
  ASSERT_TRUE(WaitUntil([&] {
    return CounterValue(transport, "net.dropped_no_endpoint") >= 1;
  }));
  EXPECT_GE(CounterValue(transport, "net.frames_dropped"), 1u);
  transport.Stop();
}

TEST(TcpTransportTest, ReconnectsAfterServerRestart) {
  TcpTransportConfig server_config;
  server_config.listen_port = 0;
  auto server = std::make_unique<TcpTransport>(server_config);
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->listen_port();
  Mailbox server_inbox;
  server->RegisterEndpoint("srv", server_inbox.AsHandler());

  TcpTransportConfig client_config;
  client_config.listen_port = -1;
  client_config.peers["srv"] = TcpPeer{"127.0.0.1", port};
  client_config.reconnect_backoff_min = 10 * kMicrosPerMilli;
  client_config.reconnect_backoff_max = 50 * kMicrosPerMilli;
  TcpTransport client(client_config);
  ASSERT_TRUE(client.Start().ok());

  client.Send(Make("cli", "srv", "ping", 1));
  ASSERT_TRUE(WaitUntil([&] { return server_inbox.count() >= 1; }));

  // Server goes away; sends during the outage are shed, not buffered
  // forever (the replication layer owns retries).
  server->Stop();
  server.reset();
  client.Send(Make("cli", "srv", "ping", 2));

  // Server returns on the same port; the client's lazy reconnect (with
  // backoff) re-establishes on subsequent sends.
  TcpTransportConfig reborn_config = server_config;
  reborn_config.listen_port = port;
  TcpTransport reborn(reborn_config);
  ASSERT_TRUE(reborn.Start().ok());
  Mailbox reborn_inbox;
  reborn.RegisterEndpoint("srv", reborn_inbox.AsHandler());

  ASSERT_TRUE(WaitUntil([&] {
    client.Send(Make("cli", "srv", "ping", 3));
    std::this_thread::sleep_for(20ms);
    return reborn_inbox.count() >= 1;
  }, 10000));

  client.Stop();
  reborn.Stop();
}

TEST(TcpTransportTest, BackpressureShedsPastHighWatermark) {
  // A listener that never accepts: connections complete (kernel accept
  // queue) but nothing drains, so the bounded outbound queue fills.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &blen), 0);

  TcpTransportConfig config;
  config.listen_port = -1;
  config.peers["sink"] = TcpPeer{"127.0.0.1", ntohs(bound.sin_port)};
  config.max_outbound_queue_bytes = 64 * 1024;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());

  // 16 MiB of frames against a 64 KiB watermark: most must be shed.
  const std::string pad(16 * 1024, 'x');
  for (int i = 0; i < 1024; ++i) {
    Message msg = Make("cli", "sink", "bulk", i);
    msg.body.Append("pad", bson::Value(pad));
    transport.Send(std::move(msg));
  }
  ASSERT_TRUE(WaitUntil([&] {
    return CounterValue(transport, "net.dropped_backpressure") > 0;
  }));
  EXPECT_GE(CounterValue(transport, "net.frames_dropped"),
            CounterValue(transport, "net.dropped_backpressure"));
  transport.Stop();
  ::close(lfd);
}

TEST(TcpTransportTest, CorruptInboundFrameClosesConnection) {
  TcpTransportConfig config;
  config.listen_port = 0;
  TcpTransport server(config);
  ASSERT_TRUE(server.Start().ok());
  Mailbox inbox;
  server.RegisterEndpoint("srv", inbox.AsHandler());

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.listen_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Length prefix declaring 1 GiB: rejected as corrupt, connection dropped.
  const unsigned char hostile[] = {0x00, 0x00, 0x00, 0x40, 'j', 'u', 'n', 'k'};
  ASSERT_EQ(::send(fd, hostile, sizeof(hostile), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hostile)));

  // The server must close on us (recv sees EOF), not crash or deliver.
  char buf[16];
  ssize_t n = -1;
  ASSERT_TRUE(WaitUntil([&] {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    return n == 0;
  }));
  EXPECT_EQ(inbox.count(), 0u);
  ASSERT_TRUE(WaitUntil([&] {
    return CounterValue(server, "net.connections_closed") >= 1;
  }));
  ::close(fd);
  server.Stop();
}

TEST(TcpTransportTest, TimersFireOnLoopThread) {
  TcpTransportConfig config;
  config.listen_port = -1;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());

  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  transport.ScheduleTimer(5 * kMicrosPerMilli, [&] {
    std::lock_guard<std::mutex> lock(mu);
    ++fired;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 2s, [&] { return fired == 1; }));
  }

  // Cancel from the loop thread itself (the exact path components use).
  transport.Post([&] {
    const TimerId id = transport.ScheduleTimer(kMicrosPerSecond, [&] {
      std::lock_guard<std::mutex> lock(mu);
      ++fired;
    });
    EXPECT_TRUE(transport.CancelTimer(id));
    EXPECT_FALSE(transport.CancelTimer(id));  // already gone
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fired, 1);
  transport.Stop();
}

TEST(TcpTransportTest, StopIsIdempotentAndSendsAfterStopAreSafe) {
  TcpTransportConfig config;
  config.listen_port = 0;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());
  transport.Stop();
  transport.Stop();
  transport.Send(Make("a", "b", "late"));  // runs inline; counted as drop
  EXPECT_GE(CounterValue(transport, "net.frames_dropped"), 1u);
}

// Stop() is terminal: the loop is halted for good, so a restart is refused
// and a timer armed afterwards is counted as dropped instead of vanishing
// into a timer map that no loop will ever run.
TEST(TcpTransportTest, StoppedTransportNeitherRestartsNorArmsTimers) {
  TcpTransportConfig config;
  config.listen_port = 0;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());
  transport.Stop();
  EXPECT_FALSE(transport.Start().ok());

  const std::uint64_t dropped_before =
      CounterValue(transport, "net.posts_dropped_stopped");
  std::atomic<bool> fired{false};
  transport.ScheduleTimer(0, [&fired] { fired.store(true); });
  EXPECT_EQ(CounterValue(transport, "net.posts_dropped_stopped"),
            dropped_before + 1);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(fired.load());
}

// Conservation law for Post() racing Stop(): every closure either runs or
// is counted in net.posts_dropped_stopped — none vanish, and none run
// concurrently with the dying loop. Regression test for the documented
// contract (the old code silently discarded the pending queue).
TEST(TcpTransportTest, PostRacingStopIsRunOrCountedNeverLost) {
  constexpr int kThreads = 4;
  constexpr int kPostsPerThread = 2000;

  TcpTransportConfig config;
  config.listen_port = -1;
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());

  std::atomic<std::uint64_t> executed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> posters;
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPostsPerThread; ++i) {
        transport.Post([&executed] { ++executed; });
      }
    });
  }

  go.store(true);
  // Stop lands mid-hammer: some posts enqueue and drain, some inline after
  // the loop dies (kIdle), some hit the kStopping window and are dropped.
  std::this_thread::sleep_for(1ms);
  transport.Stop();
  for (auto& thread : posters) thread.join();

  const std::uint64_t dropped =
      CounterValue(transport, "net.posts_dropped_stopped");
  EXPECT_EQ(executed.load() + dropped,
            static_cast<std::uint64_t>(kThreads) * kPostsPerThread)
      << "executed=" << executed.load() << " dropped=" << dropped;

  // After Stop() has fully returned the loop is kIdle again: posts run
  // inline (single-threaded teardown contract), never dropped.
  const std::uint64_t dropped_before = dropped;
  bool ran_inline = false;
  transport.Post([&ran_inline] { ran_inline = true; });
  EXPECT_TRUE(ran_inline);
  EXPECT_EQ(CounterValue(transport, "net.posts_dropped_stopped"),
            dropped_before);
}

/// A server transport with one endpoint "srv" and a client dialled to it,
/// with the connection already up (one "warmup" frame has arrived).
struct ConnectedPair {
  explicit ConnectedPair(TcpTransport::Handler handler,
                         TcpTransportConfig client_config = {}) {
    TcpTransportConfig server_config;
    server_config.listen_port = 0;
    server = std::make_unique<TcpTransport>(server_config);
    EXPECT_TRUE(server->Start().ok());
    server->RegisterEndpoint("srv", std::move(handler));
    client_config.listen_port = -1;
    client_config.peers["srv"] = TcpPeer{"127.0.0.1", server->listen_port()};
    client = std::make_unique<TcpTransport>(client_config);
    EXPECT_TRUE(client->Start().ok());
    client->Send(Make("cli", "srv", "warmup"));
    EXPECT_TRUE(WaitUntil([&] {
      return CounterValue(*server, "net.frames_delivered") >= 1;
    }));
  }

  std::unique_ptr<TcpTransport> server;
  std::unique_ptr<TcpTransport> client;
};

// A frame for an established connection leaves on the thread that sends it:
// with the client's loop parked in a closure, a frame sent from this thread
// still reaches the server.
TEST(TcpTransportTest, ForeignThreadFrameLeavesWhileLoopIsBusy) {
  Mailbox inbox;
  ConnectedPair pair(inbox.AsHandler());
  ASSERT_EQ(inbox.count(), 1u);

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  pair.client->Post([&] {
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  bool was_parked = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    was_parked = cv.wait_for(lock, 5s, [&] { return parked; });
  }
  bool arrived = false;
  if (was_parked) {
    pair.client->Send(Make("cli", "srv", "direct", 2));
    arrived = WaitUntil([&] { return inbox.count() >= 2; }, 2000);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(was_parked);
  EXPECT_TRUE(arrived) << "the frame waited for the client's loop";
  ASSERT_TRUE(WaitUntil([&] { return inbox.count() >= 2; }));
  EXPECT_EQ(inbox.at(1).type, "direct");
  pair.client->Stop();
  pair.server->Stop();
}

// Four threads share one connection. The server stalls on its first frames,
// so the client's socket buffers fill and writes come up short and queue:
// every frame still arrives once, in its sender's order, and no counter
// reports a drop.
TEST(TcpTransportTest, ConcurrentSendersToOnePeerKeepEachThreadsOrder) {
  constexpr int kThreads = 4;
  constexpr int kFramesPerThread = 500;
  constexpr std::size_t kTotal = kThreads * kFramesPerThread;

  std::mutex mu;
  std::vector<std::vector<std::int64_t>> seqs(kThreads);
  std::size_t handled = 0;
  TcpTransportConfig client_config;
  client_config.max_outbound_queue_bytes = 128u * 1024 * 1024;  // shed none
  ConnectedPair pair(
      [&](const Message& msg) {
        if (msg.type != "bulk") return;
        std::size_t n = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          n = handled++;
          seqs.at(static_cast<std::size_t>(msg.body.Get("thread")->as_int64()))
              .push_back(msg.body.Get("seq")->as_int64());
        }
        if (n < 4) std::this_thread::sleep_for(50ms);
      },
      client_config);
  TcpTransport& client = *pair.client;
  TcpTransport& server = *pair.server;
  const std::uint64_t sent_before = CounterValue(client, "net.frames_sent");
  const std::uint64_t delivered_before =
      CounterValue(server, "net.frames_delivered");

  const std::string pad(32 * 1024, 'x');
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&client, &pad, t] {
      for (int i = 0; i < kFramesPerThread; ++i) {
        Message msg = Make("cli", "srv", "bulk", i);
        msg.body.Append("thread", bson::Value(static_cast<std::int64_t>(t)));
        msg.body.Append("pad", bson::Value(pad));
        client.Send(std::move(msg));
      }
    });
  }
  for (auto& thread : senders) thread.join();
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return handled >= kTotal;
  }, 30000));

  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(handled, kTotal);
    for (int t = 0; t < kThreads; ++t) {
      const auto& got = seqs[static_cast<std::size_t>(t)];
      EXPECT_EQ(got.size(), static_cast<std::size_t>(kFramesPerThread))
          << "thread " << t;
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LT(got[i - 1], got[i]) << "thread " << t << " at " << i;
      }
    }
  }
  EXPECT_EQ(CounterValue(client, "net.frames_sent") - sent_before, kTotal);
  EXPECT_EQ(CounterValue(server, "net.frames_delivered") - delivered_before,
            kTotal);
  EXPECT_EQ(CounterValue(client, "net.frames_dropped"), 0u);
  EXPECT_EQ(CounterValue(client, "net.dropped_backpressure"), 0u);
  EXPECT_EQ(CounterValue(client, "net.dropped_not_connected"), 0u);
  EXPECT_EQ(CounterValue(server, "net.frames_dropped"), 0u);
  EXPECT_EQ(CounterValue(client, "net.connections_closed"), 0u);
  client.Stop();
  server.Stop();
}

// Conservation law for Send() racing Stop(), on the direct path: every frame
// is sent (written or queued on a live connection) or counted as dropped,
// whether it was written directly, handed to the loop, caught in the
// stopping window or sent after Stop() returned.
TEST(TcpTransportTest, SendsRacingStopAreSentOrCountedNeverLost) {
  constexpr int kThreads = 6;
  constexpr int kMaxSendsPerThread = 50000;

  std::atomic<std::uint64_t> handled{0};
  ConnectedPair pair([&handled](const Message&) { ++handled; });
  TcpTransport& client = *pair.client;
  const auto accounted = [&client] {
    return CounterValue(client, "net.frames_sent") +
           CounterValue(client, "net.frames_dropped") +
           CounterValue(client, "net.posts_dropped_stopped");
  };
  const std::uint64_t accounted_before = accounted();

  std::atomic<bool> go{false};
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> sends{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kMaxSendsPerThread && !stopped.load(); ++i) {
        client.Send(Make("cli", "srv", "hammer", i));
        ++sends;
      }
      client.Send(Make("cli", "srv", "late"));  // after Stop(): inline drop
      ++sends;
    });
  }
  go.store(true);
  std::this_thread::sleep_for(2ms);
  client.Stop();
  stopped.store(true);
  for (auto& thread : senders) thread.join();

  EXPECT_EQ(accounted() - accounted_before, sends.load())
      << "sent=" << CounterValue(client, "net.frames_sent")
      << " dropped=" << CounterValue(client, "net.frames_dropped")
      << " posts_dropped_stopped="
      << CounterValue(client, "net.posts_dropped_stopped");
  // Some hammer frames went out directly before the stop.
  EXPECT_TRUE(WaitUntil([&handled] { return handled.load() > 1; }));
  pair.server->Stop();
}

// The write-stall clock starts when bytes are first left waiting, not at the
// connection's last progress: a connection idle for longer than
// write_stall_timeout survives a burst its peer does not read for a while.
TEST(TcpTransportTest, StallClockStartsWhenBytesAreFirstLeftWaiting) {
  std::uint16_t port = 0;
  const int lfd = ListenWithSmallBuffer(&port);
  ASSERT_GE(lfd, 0);

  TcpTransportConfig config;
  config.listen_port = -1;
  config.peers["sink"] = TcpPeer{"127.0.0.1", port};
  config.write_stall_timeout = kMicrosPerSecond;
  config.max_outbound_queue_bytes = 64u * 1024 * 1024;  // shed none
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());

  transport.Send(Make("cli", "sink", "hello", 0));
  const int fd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_usec = 100 * 1000;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  FrameReader reader;
  std::vector<std::int64_t> seqs;
  const auto drain = [&](int want, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    char buf[65536];
    while (static_cast<int>(seqs.size()) < want &&
           std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return;  // the transport closed the connection
      if (n < 0) continue;  // receive timeout
      reader.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      Message msg;
      bool complete = false;
      while (reader.Next(&msg, &complete).ok() && complete) {
        seqs.push_back(msg.body.Get("seq")->as_int64());
      }
    }
  };
  drain(1, 5000);
  ASSERT_EQ(seqs.size(), 1u);

  std::this_thread::sleep_for(1500ms);  // idle past write_stall_timeout
  constexpr int kBurst = 128;           // 8 MiB: far past the socket buffers
  SendPaddedBurst(&transport, 1, kBurst);
  std::this_thread::sleep_for(300ms);  // longer than a housekeeping period
  drain(1 + kBurst, 10000);

  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(1 + kBurst));
  for (int i = 0; i <= kBurst; ++i) EXPECT_EQ(seqs[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(CounterValue(transport, "net.connections_closed"), 0u);
  EXPECT_EQ(CounterValue(transport, "net.frames_dropped"), 0u);
  transport.Stop();
  ::close(fd);
  ::close(lfd);
}

// The other side of the stall clock: a peer that accepts but never reads is
// closed once the bytes queued for it have made no progress for
// write_stall_timeout.
TEST(TcpTransportTest, StalledPeerIsClosedAfterWriteStallTimeout) {
  std::uint16_t port = 0;
  const int lfd = ListenWithSmallBuffer(&port);
  ASSERT_GE(lfd, 0);

  TcpTransportConfig config;
  config.listen_port = -1;
  config.peers["sink"] = TcpPeer{"127.0.0.1", port};
  config.write_stall_timeout = 300 * kMicrosPerMilli;
  config.max_outbound_queue_bytes = 64u * 1024 * 1024;  // shed none
  TcpTransport transport(config);
  ASSERT_TRUE(transport.Start().ok());

  transport.Send(Make("cli", "sink", "hello", 0));
  const int fd = ::accept(lfd, nullptr, nullptr);  // never read from
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitUntil(
      [&] { return GaugeValue(transport, "net.connections_open") == 1; }));
  SendPaddedBurst(&transport, 1, 128);  // 8 MiB: far past the socket buffers

  EXPECT_TRUE(WaitUntil(
      [&] { return CounterValue(transport, "net.connections_closed") >= 1; }));
  EXPECT_TRUE(WaitUntil(
      [&] { return GaugeValue(transport, "net.connections_open") == 0; }));
  EXPECT_EQ(CounterValue(transport, "net.connections_closed"), 1u);
  EXPECT_EQ(CounterValue(transport, "net.dropped_backpressure"), 0u);
  transport.Stop();
  ::close(fd);
  ::close(lfd);
}

}  // namespace
}  // namespace hotman::net
