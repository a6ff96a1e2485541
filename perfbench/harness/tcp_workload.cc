// The tcp_* workloads: fresh hotmand daemons on loopback, driven closed-loop
// by one caller thread over one net::RemoteClient connection.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "harness.h"
#include "net/remote_client.h"
#include "probes.h"

namespace perfbench {
namespace {

using namespace hotman;  // NOLINT(google-build-using-namespace)
using namespace std::chrono_literals;

struct TcpShape {
  const char* name;
  int nodes;
  int shards;
  int n, w, r;
  std::size_t keys;
  std::size_t value_bytes;
  double put_fraction;
};

constexpr TcpShape kShapes[] = {
    {"tcp_read_mostly", 3, 1, 3, 2, 1, 16384, 1024, 0.05},
    {"tcp_write_heavy", 3, 1, 3, 2, 1, 16384, 8192, 0.50},
    {"tcp_sharded_node", 1, 3, 1, 1, 1, 16384, 1024, 0.05},
};

/// Connections that preload the data set and scrape /stats, spread
/// round-robin over the daemons.
constexpr int kWorkers = 4;
/// Closed-loop callers in a measured window: one, on the first worker's
/// connection, so no op ever queues behind another. With four callers, ops
/// queued in the daemons and for the host's cores, and the scheduler set the
/// figures: 10 runs of ops_per_s spread by 0.5-0.65 of their median on a
/// shared 4-vCPU host.
constexpr std::size_t kCallers = 1;
/// Client patience for every call, set-up included; a failed op enters its
/// latency sample at this value.
constexpr Micros kClientTimeout = 500 * kMicrosPerMilli;
/// Patience for a set-up probe, a quorum write that takes ~1 ms on a ready
/// cluster: a probe that a booting daemon drops costs this much.
constexpr Micros kProbeTimeout = 50 * kMicrosPerMilli;
constexpr auto kSetupDeadline = 20s;
/// Unmeasured load between the last set-up and the window.
constexpr double kWarmupSeconds = 1.0;
constexpr int kPreloadAttempts = 5;
/// The daemons' own RNG seed: fixed, so only the workload seed varies.
constexpr const char* kDaemonRngSeed = "19870";

const TcpShape* FindShape(const std::string& name) {
  for (const TcpShape& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

std::string KeyOf(std::size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%05zu", i);
  return buf;
}

Micros WholeMicros(WallClock::time_point start, WallClock::time_point end) {
  return std::llround(MicrosBetween(start, end));
}

std::uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0;
  ::close(fd);
  return ok ? ntohs(bound.sin_port) : 0;
}

struct Daemon {
  std::string name;  ///< cluster address; fixed, so ring placement is too
  std::uint16_t port = 0;
  pid_t pid = -1;
};

/// One set of hotmand processes. Killed on destruction unless terminated.
class DaemonSet {
 public:
  DaemonSet(const TcpShape& shape, const Options& options)
      : shape_(shape), options_(options) {
    for (int i = 0; i < shape.nodes; ++i) {
      Daemon d;
      d.name = "db" + std::to_string(i + 1) + ":" + std::to_string(19870 + i);
      daemons_.push_back(d);
    }
  }
  ~DaemonSet() { Kill(); }
  DaemonSet(const DaemonSet&) = delete;
  DaemonSet& operator=(const DaemonSet&) = delete;

  bool Spawn(std::string* error) {
    for (Daemon& d : daemons_) {
      d.port = PickPort();
      if (d.port == 0) {
        *error = "could not reserve a loopback port";
        return false;
      }
    }
    for (Daemon& d : daemons_) {
      if (!SpawnOne(&d)) {
        *error = "could not spawn " + options_.hotmand;
        return false;
      }
    }
    return true;
  }

  /// SIGTERM, then waits for each daemon; the exit codes (-1: killed by a
  /// signal or did not exit within 10 s).
  std::vector<int> Terminate() {
    for (const Daemon& d : daemons_) {
      if (d.pid > 0) ::kill(d.pid, SIGTERM);
    }
    std::vector<int> codes;
    const auto deadline = WallClock::now() + 10s;
    for (Daemon& d : daemons_) {
      if (d.pid <= 0) continue;
      int status = 0;
      pid_t done = 0;
      while ((done = ::waitpid(d.pid, &status, WNOHANG)) == 0 &&
             WallClock::now() < deadline) {
        std::this_thread::sleep_for(5ms);
      }
      if (done == 0) {
        ::kill(d.pid, SIGKILL);
        ::waitpid(d.pid, &status, 0);
        codes.push_back(-1);
      } else {
        codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      }
      d.pid = -1;
    }
    return codes;
  }

  void Kill() {
    for (Daemon& d : daemons_) {
      if (d.pid <= 0) continue;
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, nullptr, 0);
      d.pid = -1;
    }
  }

  /// utime + stime of every daemon, summed, in seconds.
  double CpuSeconds() const {
    double total = 0.0;
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (const Daemon& d : daemons_) {
      std::ifstream in("/proc/" + std::to_string(d.pid) + "/stat");
      std::string line;
      std::getline(in, line);
      const std::size_t paren = line.rfind(')');
      if (paren == std::string::npos) continue;
      std::istringstream fields(line.substr(paren + 2));
      std::string field;
      // Fields after "(comm)": state is #3; utime #14 and stime #15.
      for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14) total += std::stod(field) / ticks;
      }
    }
    return total;
  }

  /// Peak RSS (VmHWM) of each daemon, in KiB.
  std::vector<double> PeakRssKib() const {
    std::vector<double> out;
    for (const Daemon& d : daemons_) {
      std::ifstream in("/proc/" + std::to_string(d.pid) + "/status");
      std::string line;
      double kib = 0.0;
      while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) kib = std::stod(line.substr(6));
      }
      out.push_back(kib);
    }
    return out;
  }

  const std::vector<Daemon>& daemons() const { return daemons_; }

 private:
  bool SpawnOne(Daemon* node) {
    std::vector<std::string> args = {
        options_.hotmand,
        "--node", node->name,
        "--listen", "127.0.0.1:" + std::to_string(node->port),
        "--seeds", daemons_[0].name,
        "--n", std::to_string(shape_.n),
        "--w", std::to_string(shape_.w),
        "--r", std::to_string(shape_.r),
        "--shards", std::to_string(shape_.shards),
        "--gossip-ms", "200",
        "--op-timeout-ms", "1000",
        "--seed-rng", kDaemonRngSeed,
    };
    for (const Daemon& peer : daemons_) {
      args.push_back("--peer");
      args.push_back(peer.name + "=127.0.0.1:" + std::to_string(peer.port));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log =
        options_.log_dir.empty()
            ? "/dev/null"
            : options_.log_dir + "/" + shape_.name + "-db" +
                  std::to_string(node - daemons_.data() + 1) + ".log";

    const pid_t pid = ::fork();
    if (pid == -1) return false;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the harness
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) ::dup2(fd, STDERR_FILENO);
      const int null_fd = ::open("/dev/null", O_RDWR);
      if (null_fd >= 0) {
        ::dup2(null_fd, STDIN_FILENO);
        ::dup2(null_fd, STDOUT_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    node->pid = pid;
    return true;
  }

  const TcpShape& shape_;
  const Options& options_;
  std::vector<Daemon> daemons_;
};

std::unique_ptr<net::RemoteClient> MakeClient(const Daemon& daemon,
                                              const std::string& role, Micros timeout) {
  net::RemoteClientConfig config;
  config.port = daemon.port;
  config.name = "perfbench-" + std::to_string(::getpid()) + "-" + role;
  config.connect_timeout = timeout;
  config.op_timeout = timeout;
  return std::make_unique<net::RemoteClient>(config);
}

/// One closed-loop caller: its connection, its op stream and its checks.
struct Worker {
  Worker(int worker, const Daemon& daemon, std::uint64_t seed, int setup)
      : index(worker),
        node(daemon),
        rng(seed * 1000003 + static_cast<std::uint64_t>(worker)),
        checker(worker),
        client(MakeClient(daemon, std::to_string(setup) + "-" + std::to_string(worker),
                          kClientTimeout)) {}

  int index;
  Daemon node;
  Rng rng;
  ReadChecker checker;
  std::uint64_t seq = 0;
  std::unique_ptr<net::RemoteClient> client;
};

struct Window {
  std::vector<Slice> slices;
  std::uint64_t gets = 0, puts = 0;
  std::uint64_t get_fail = 0, put_fail = 0, check_fail = 0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  double server_cpu_s = 0.0;
  std::vector<double> ref_s;  ///< SpeedReference kernel times in the window

  void Merge(const Window& o) {
    slices.resize(std::max(slices.size(), o.slices.size()));
    for (std::size_t i = 0; i < o.slices.size(); ++i) slices[i].Merge(o.slices[i]);
    gets += o.gets;
    puts += o.puts;
    get_fail += o.get_fail;
    put_fail += o.put_fail;
    check_fail += o.check_fail;
  }
};

Window RunWindow(const TcpShape& shape, std::vector<Worker>* workers,
                 const DaemonSet& daemons, SpeedReference* ref, double seconds) {
  const std::size_t first_ref = ref->seconds().size();
  ref->Sample();
  std::atomic<bool> stop{false};
  const std::size_t num_slices = SliceCount(seconds);
  std::vector<Window> parts(kCallers);
  const double cpu0 = SelfCpuSeconds();
  const double server0 = daemons.CpuSeconds();
  const auto start = WallClock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = (*workers)[t];
      Window& out = parts[t];
      out.slices.resize(num_slices);
      auto slice_at = [&](WallClock::time_point at) -> Slice& {
        const auto i = static_cast<std::size_t>(
            std::chrono::duration<double>(at - start).count() / kSliceSeconds);
        return out.slices[std::min(i, num_slices - 1)];
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = KeyOf(w.rng.Uniform(shape.keys));
        const bool put = w.rng.NextDouble() < shape.put_fraction;
        if (put) {
          const std::uint64_t seq = ++w.seq;
          Bytes value = MakeValue(key, w.index, seq, shape.value_bytes);
          const auto t0 = WallClock::now();
          const Status s = w.client->Put(w.node.name, key, std::move(value));
          const auto t1 = WallClock::now();
          Slice& slice = slice_at(t1);
          ++out.puts;
          ++slice.ops;
          if (s.ok()) {
            w.checker.NoteAckedPut(key, seq);
            slice.put_us.Record(WholeMicros(t0, t1));
          } else {
            ++out.put_fail;
            slice.put_us.Record(kClientTimeout);
          }
        } else {
          const auto t0 = WallClock::now();
          const Result<Bytes> r = w.client->Get(w.node.name, key);
          const auto t1 = WallClock::now();
          Slice& slice = slice_at(t1);
          ++out.gets;
          ++slice.ops;
          if (!r.ok()) {
            ++out.get_fail;  // NotFound included: every key is preloaded
            slice.get_us.Record(kClientTimeout);
          } else if (!w.checker.Check(key, *r, shape.value_bytes)) {
            ++out.check_fail;
            slice.get_us.Record(kClientTimeout);
          } else {
            slice.get_us.Record(WholeMicros(t0, t1));
          }
        }
      }
    });
  }
  std::vector<double> steal;
  CpuTicks ticks = ReadCpuTicks();
  for (std::size_t i = 0; i < num_slices; ++i) {
    const double until = i + 1 < num_slices ? static_cast<double>(i + 1) * kSliceSeconds
                                            : seconds;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<WallClock::duration>(
                    std::chrono::duration<double>(until)));
    const CpuTicks now = ReadCpuTicks();
    steal.push_back(StealShare(ticks, now));
    ticks = now;
    ref->Sample();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Window total;
  total.wall_s = SecondsSince(start);
  for (const Window& part : parts) total.Merge(part);
  for (std::size_t i = 0; i < num_slices; ++i) {
    total.slices[i].wall_s = SliceWallSeconds(i, num_slices, total.wall_s);
    total.slices[i].steal = steal[i];
  }
  total.ref_s.assign(ref->seconds().begin() + static_cast<std::ptrdiff_t>(first_ref),
                     ref->seconds().end());
  total.client_cpu_s = SelfCpuSeconds() - cpu0 - Sum(total.ref_s);
  total.server_cpu_s = daemons.CpuSeconds() - server0;
  return total;
}

std::string WindowJson(const char* label, const Window& w,
                       const std::vector<std::string>* stats_before,
                       const std::vector<std::string>* stats_after) {
  Slice all;
  std::vector<std::string> slices;
  for (const Slice& slice : w.slices) {
    all.Merge(slice);
    slices.push_back(slice.ToJson());
  }
  JsonObject o;
  o.Str("label", label)
      .Num("wall_s", w.wall_s)
      .Int("gets", static_cast<std::int64_t>(w.gets))
      .Int("puts", static_cast<std::int64_t>(w.puts))
      .Int("get_fail", static_cast<std::int64_t>(w.get_fail))
      .Int("put_fail", static_cast<std::int64_t>(w.put_fail))
      .Int("check_fail", static_cast<std::int64_t>(w.check_fail))
      .Raw("get_us", LatencyJson(all.get_us))
      .Raw("put_us", LatencyJson(all.put_us))
      .Raw("slices", JsonArray(slices))
      .Num("client_cpu_s", w.client_cpu_s)
      .Num("server_cpu_s", w.server_cpu_s)
      .Raw("ref_s", JsonNumbers(w.ref_s));
  if (stats_before != nullptr) o.Raw("stats_before", JsonArray(*stats_before));
  if (stats_after != nullptr) o.Raw("stats_after", JsonArray(*stats_after));
  return o.Done();
}

/// Every daemon's /stats JSON, each through the first worker connected to
/// it ("{}" when a daemon does not answer).
std::vector<std::string> ScrapeStats(std::vector<Worker>* workers,
                                     std::size_t nodes) {
  std::vector<std::string> out;
  for (std::size_t d = 0; d < nodes; ++d) {
    Worker& w = (*workers)[d];
    std::string json = "{}";
    for (int attempt = 0; attempt < 3; ++attempt) {
      const Result<std::string> r = w.client->Stats(w.node.name);
      if (r.ok()) {
        json = *r;
        break;
      }
    }
    out.push_back(json);
  }
  return out;
}

/// Set-up after the spawn: every daemon must take a quorum write, then the
/// preload runs over all worker connections.
bool ProbeAndPreload(const TcpShape& shape, const DaemonSet& daemons,
                     std::vector<Worker>* workers, std::uint64_t* retries,
                     std::string* error) {
  const auto deadline = WallClock::now() + kSetupDeadline;
  for (const Daemon& d : daemons.daemons()) {
    const auto probe = MakeClient(d, "probe", kProbeTimeout);
    for (;;) {
      const auto sent = WallClock::now();
      const Status s = probe->Put(d.name, "perfbench-probe", ToBytes("up"));
      if (s.ok()) break;
      ++*retries;
      std::fprintf(stderr, "perfbench: probe of %s retried after %.0f ms: %s\n",
                   d.name.c_str(), SecondsSince(sent) * 1e3, s.ToString().c_str());
      if (WallClock::now() > deadline) {
        *error = "daemon " + d.name + " never took a write";
        return false;
      }
      std::this_thread::sleep_for(20ms);
    }
  }
  std::atomic<std::uint64_t> preload_retries{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < workers->size(); ++t) {
    threads.emplace_back([&, t] {
      Worker& w = (*workers)[t];
      for (std::size_t i = t; i < shape.keys && !failed.load(); i += workers->size()) {
        const std::string key = KeyOf(i);
        int attempt = 0;
        while (!w.client->Put(w.node.name, key,
                              MakeValue(key, kPreloadWriter, 0, shape.value_bytes))
                    .ok()) {
          preload_retries.fetch_add(1);
          if (++attempt == kPreloadAttempts) {
            failed.store(true);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *retries += preload_retries.load();
  if (failed.load()) *error = "preload put failed " + std::to_string(kPreloadAttempts) + " times";
  return !failed.load();
}

}  // namespace

bool IsTcpWorkload(const std::string& name) { return FindShape(name) != nullptr; }

int RunTcpWorkload(const Options& options) {
  const TcpShape& shape = *FindShape(options.workload);
  std::vector<double> setup_s;
  std::uint64_t retries = 0;
  std::vector<int> exit_codes;
  std::unique_ptr<DaemonSet> daemons;
  std::vector<Worker> workers;
  SpeedReference ref;
  for (int s = 0; s < kSetups; ++s) {
    workers.clear();
    if (daemons != nullptr) {
      for (const int code : daemons->Terminate()) exit_codes.push_back(code);
    }
    daemons = std::make_unique<DaemonSet>(shape, options);
    const auto start = WallClock::now();
    std::string error;
    bool ok = daemons->Spawn(&error);
    if (ok) {
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back(w, daemons->daemons()[static_cast<std::size_t>(w % shape.nodes)],
                             options.seed, s);
      }
      ok = ProbeAndPreload(shape, *daemons, &workers, &retries, &error);
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: set-up %d of %s failed: %s\n", s + 1,
                   shape.name, error.c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
  }

  // Unmeasured, but its failed ops and failed checks still count.
  std::vector<std::string> windows = {WindowJson(
      "warmup", RunWindow(shape, &workers, *daemons, &ref, kWarmupSeconds), nullptr,
      nullptr)};
  if (!options.trace) {
    Window w = RunWindow(shape, &workers, *daemons, &ref, options.seconds);
    windows.push_back(WindowJson("measure", w, nullptr, nullptr));
  } else {
    Window untraced = RunWindow(shape, &workers, *daemons, &ref, options.seconds / 2);
    windows.push_back(WindowJson("untraced", untraced, nullptr, nullptr));
    const std::vector<std::string> before =
        ScrapeStats(&workers, static_cast<std::size_t>(shape.nodes));
    Window traced = RunWindow(shape, &workers, *daemons, &ref, options.seconds / 2);
    const std::vector<std::string> after =
        ScrapeStats(&workers, static_cast<std::size_t>(shape.nodes));
    windows.push_back(WindowJson("traced", traced, &before, &after));
  }
  const std::vector<double> rss_kib = daemons->PeakRssKib();
  workers.clear();
  for (const int code : daemons->Terminate()) exit_codes.push_back(code);

  std::string probes = "{}";
  if (options.trace) {
    ProbeShape probe;
    for (const Daemon& d : daemons->daemons()) probe.ring_nodes.push_back(d.name);
    probe.replicas = shape.n;
    for (std::size_t i = 0; i < shape.keys; ++i) probe.keys.push_back(KeyOf(i));
    probe.value_bytes = shape.value_bytes;
    probes = RunLayerProbes(probe, options.seed);
  }
  std::vector<double> codes(exit_codes.begin(), exit_codes.end());
  std::printf("RAW %s\n",
              JsonObject()
                  .Str("workload", shape.name)
                  .Int("seed", static_cast<std::int64_t>(options.seed))
                  .Int("nodes", shape.nodes)
                  .Int("shards", shape.shards)
                  .Int("workers", kWorkers)
                  .Raw("setup_s", JsonNumbers(setup_s))
                  .Int("setup_retries", static_cast<std::int64_t>(retries))
                  .Raw("daemon_exit_codes", JsonNumbers(codes))
                  .Raw("server_rss_kib", JsonNumbers(rss_kib))
                  .Raw("windows", JsonArray(windows))
                  .Raw("probes", probes)
                  .Done()
                  .c_str());
  return 0;
}

}  // namespace perfbench
