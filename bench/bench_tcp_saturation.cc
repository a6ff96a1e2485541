// TCP saturation knee of a real loopback cluster: spawns three `hotmand`
// daemons (actual sockets, actual reactor threads), drives a closed-loop
// 90/10 get/put workload at rising client concurrency, and reports
// throughput, get and put p50/p99 and the daemons' CPU time per op at each
// level, plus the knee — the concurrency level past which extra clients
// stop buying throughput. Run at --shards=1 vs --shards=3 to compare the
// single-reactor node against the shard-per-core one. Any failed op, and
// any daemon that does not exit 0 on SIGTERM, makes the run exit non-zero.
//
// The daemon binary path comes from $HOTMAND_BIN or --hotmand=PATH (falls
// back to <this binary's dir>/../tools/hotmand). Emits
// BENCH_tcp_saturation.json (or BENCH_tcp_saturation_shards<N>.json when
// --shards is passed explicitly), with the host's core count recorded:
// on a single-core host every level time-shares one CPU and the knee
// arrives immediately — the artifact is still honest, just not a
// parallelism measurement.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/bytes.h"
#include "net/remote_client.h"
#include "support/daemon_cluster.h"
#include "workload/metrics.h"

namespace hotman {
namespace {

constexpr int kNodes = 3;
constexpr int kKeys = 256;

using support::DaemonCluster;

std::string KeyOf(int i) { return "sat" + std::to_string(i); }

struct Level {
  double ops_per_sec = 0.0;
  /// The daemons' CPU time (user + system, summed) per successful op.
  double server_cpu_us_per_op = 0.0;
  workload::LatencyRecorder get_latency;  ///< successful gets, whole µs
  workload::LatencyRecorder put_latency;  ///< successful puts, whole µs
  std::uint64_t failures = 0;
};

/// Closed-loop throughput at `concurrency` workers, 90/10 get/put, workers
/// spread round-robin over the three nodes. Every worker owns its own
/// connection (RemoteClient is single-threaded by contract) and its own
/// latency recorders, merged after the window.
Level MeasureLevel(const DaemonCluster& cluster, int concurrency,
                   std::chrono::milliseconds window) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(concurrency), 0);
  std::vector<workload::LatencyRecorder> get_latency(
      static_cast<std::size_t>(concurrency));
  std::vector<workload::LatencyRecorder> put_latency(
      static_cast<std::size_t>(concurrency));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(concurrency));
  for (int w = 0; w < concurrency; ++w) {
    pool.emplace_back([&, w] {
      const int node = w % kNodes;
      const std::string& server = cluster.name(node);
      net::RemoteClient client(
          cluster.ClientConfig(node, "sat-" + std::to_string(w)));
      client.Connect().ok();  // lazy reconnect covers failures
      std::uint64_t rng = 0x2545f4914f6cdd1dull * static_cast<std::uint64_t>(w + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int i = static_cast<int>((rng >> 33) % kKeys);
        const bool write = (rng & 1023) < 102;  // ~10% writes
        const auto started = std::chrono::steady_clock::now();
        bool ok;
        if (write) {
          ok = client.Put(server, KeyOf(i), ToBytes("w")).ok();
        } else {
          const auto r = client.Get(server, KeyOf(i));
          ok = r.ok() || r.status().IsNotFound();
        }
        if (ok) {
          ++n;
          (write ? put_latency : get_latency)[static_cast<std::size_t>(w)].Record(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - started)
                  .count());
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      counts[static_cast<std::size_t>(w)] = n;
    });
  }
  while (ready.load() < concurrency) std::this_thread::yield();
  const double cpu_start = cluster.CpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double cpu_seconds = cluster.CpuSeconds() - cpu_start;

  Level level;
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  for (const workload::LatencyRecorder& worker : get_latency) {
    for (Micros sample : worker.samples()) level.get_latency.Record(sample);
  }
  for (const workload::LatencyRecorder& worker : put_latency) {
    for (Micros sample : worker.samples()) level.put_latency.Record(sample);
  }
  level.failures = failures.load();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  level.ops_per_sec = seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
  level.server_cpu_us_per_op =
      total > 0 ? cpu_seconds * 1e6 / static_cast<double>(total) : 0.0;
  return level;
}

std::string DefaultHotmandPath(const char* argv0) {
  const char* env = std::getenv("HOTMAND_BIN");
  if (env != nullptr) return env;
  std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/../tools/hotmand";
}

}  // namespace
}  // namespace hotman

int main(int argc, char** argv) {
  using namespace hotman;  // NOLINT(google-build-using-namespace)

  bool short_mode = false;
  int shards = 1;
  bool shards_explicit = false;
  std::string bin = DefaultHotmandPath(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
      shards_explicit = true;
    }
    if (std::strncmp(argv[i], "--hotmand=", 10) == 0) bin = argv[i] + 10;
  }
  if (shards < 1 || shards > 64) {
    std::fprintf(stderr, "--shards must be in [1, 64]\n");
    return 2;
  }
  if (::access(bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "bench_tcp_saturation: hotmand binary not found at %s "
                 "(set $HOTMAND_BIN or pass --hotmand=PATH)\n",
                 bin.c_str());
    return 2;
  }

  const std::chrono::milliseconds window(short_mode ? 250 : 1500);
  const std::vector<int> levels =
      short_mode ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8, 16, 32};
  const unsigned cores = std::thread::hardware_concurrency();
  const std::string json_id =
      shards_explicit ? "tcp_saturation_shards" + std::to_string(shards)
                      : "tcp_saturation";

  bench::Header("tcp_saturation",
                "loopback 3-daemon cluster: closed-loop throughput vs client "
                "concurrency, to the knee");
  std::printf("cores=%u shards=%d window=%lldms%s\n", cores, shards,
              static_cast<long long>(window.count()),
              short_mode ? " (short mode)" : "");

  DaemonCluster cluster(bin, kNodes,
                        {"--n", "3", "--w", "2", "--r", "1", "--shards",
                         std::to_string(shards), "--gossip-ms", "200", "--op-timeout-ms",
                         "1000"});
  // Boot barrier: every daemon serves a write before the sweep, so one that
  // failed to start stops the run here instead of failing every op later.
  if (Status booted = cluster.Start(); !booted.ok()) {
    std::fprintf(stderr, "bench_tcp_saturation: %s\n", booted.ToString().c_str());
    return 1;
  }
  // Preload, so the 90% read side hits real records. All through node 0: a
  // client frame must address the node it is connected to (the daemon only
  // delivers to its own endpoint).
  {
    net::RemoteClient seeder(cluster.ClientConfig(0, "sat-seeder"));
    for (int i = 0; i < kKeys; ++i) {
      seeder.Put(cluster.name(0), KeyOf(i), ToBytes("seed")).ok();
    }
  }

  bench::JsonWriter json(json_id);
  json.Integer("cores", cores);
  json.Integer("shards", shards);
  json.Integer("nodes", kNodes);
  json.Integer("window_ms", static_cast<long long>(window.count()));
  json.Text("mode", short_mode ? "short" : "full");

  bench::Section("closed-loop 90/10 get/put by client concurrency");
  bench::Row({"clients", "ops/sec", "vs prev", "get p50 us", "get p99 us",
              "put p50 us", "put p99 us", "cpu us/op", "failed"});
  std::vector<double> tputs;
  int knee_concurrency = levels.front();
  double knee_ops = 0.0;
  bool knee_found = false;
  std::uint64_t failed_ops = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Level level = MeasureLevel(cluster, levels[l], window);
    const double tput = level.ops_per_sec;
    const double gain = l == 0 || tputs.back() <= 0 ? 1.0 : tput / tputs.back();
    const Micros get_p50 = level.get_latency.Percentile(50);
    const Micros get_p99 = level.get_latency.Percentile(99);
    const Micros put_p50 = level.put_latency.Percentile(50);
    const Micros put_p99 = level.put_latency.Percentile(99);
    bench::Row({std::to_string(levels[l]), bench::Fmt(tput, 0),
                l == 0 ? "-" : bench::Fmt(gain, 2) + "x", std::to_string(get_p50),
                std::to_string(get_p99), std::to_string(put_p50),
                std::to_string(put_p99), bench::Fmt(level.server_cpu_us_per_op, 1),
                std::to_string(level.failures)});
    const std::string prefix = "c" + std::to_string(levels[l]);
    json.Number(prefix + "_ops_per_sec", tput, 0);
    json.Integer(prefix + "_get_p50_us", get_p50);
    json.Integer(prefix + "_get_p99_us", get_p99);
    json.Integer(prefix + "_put_p50_us", put_p50);
    json.Integer(prefix + "_put_p99_us", put_p99);
    json.Number(prefix + "_server_cpu_us_per_op", level.server_cpu_us_per_op, 1);
    json.Integer(prefix + "_failed_ops", static_cast<long long>(level.failures));
    failed_ops += level.failures;
    // The knee: the last level that still bought >=10% more throughput.
    if (l > 0 && !knee_found && gain < 1.10) {
      knee_concurrency = levels[l - 1];
      knee_ops = tputs.back();
      knee_found = true;
    }
    tputs.push_back(tput);
  }
  if (!knee_found) {
    knee_concurrency = levels.back();
    knee_ops = tputs.back();
  }
  std::printf("saturation knee: %.0f ops/sec at %d clients%s\n", knee_ops,
              knee_concurrency,
              knee_found ? "" : " (never flattened within the sweep)");
  if (cores <= 1) {
    std::printf(
        "NOTE: single-core host: daemons, reactors and clients time-share "
        "one CPU, so the knee measures scheduling, not shard scaling.\n");
  }
  json.Integer("knee_concurrency", knee_concurrency);
  json.Number("knee_ops_per_sec", knee_ops, 0);
  json.Integer("failed_ops", static_cast<long long>(failed_ops));

  const std::vector<int> codes = cluster.Terminate();
  std::printf("\n");
  json.WriteFile();
  int status = 0;
  if (failed_ops > 0) {
    std::fprintf(stderr, "bench_tcp_saturation: %llu ops failed\n",
                 static_cast<unsigned long long>(failed_ops));
    status = 1;
  }
  for (int i = 0; i < kNodes; ++i) {
    if (codes[static_cast<std::size_t>(i)] != 0) {
      std::fprintf(stderr, "bench_tcp_saturation: %s exited with code %d\n",
                   cluster.name(i).c_str(), codes[static_cast<std::size_t>(i)]);
      status = 1;
    }
  }
  return status;
}
