// The sim_mystore_zipf workload: core::MyStore (cache -> cluster -> docstore)
// on the deterministic simulator, driven by closed-loop virtual users.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "core/mystore.h"
#include "harness.h"
#include "probes.h"
#include "workload/skew.h"

namespace perfbench {
namespace {

using namespace hotman;  // NOLINT(google-build-using-namespace)

constexpr const char* kName = "sim_mystore_zipf";
constexpr int kNodes = 5;
constexpr std::size_t kItems = 20000;
constexpr std::size_t kMinBytes = 1024;
constexpr std::size_t kMaxBytes = 64 * 1024;
constexpr int kUsers = 1000;
constexpr Micros kThinkMax = 500 * kMicrosPerMilli;
constexpr double kZipfTheta = 0.99;
constexpr double kPostFraction = 0.10;
constexpr int kCacheServers = 4;
constexpr std::size_t kCacheBytesPerServer = 256 * 1024;
/// Virtual time that settles the cache and the heat pins before any window.
constexpr Micros kWarmup = 10 * kMicrosPerSecond;
/// Latencies come from the ops completing in this much virtual time at the
/// start of a window, so they depend on the seed alone, not on host speed.
constexpr Micros kLatencyWindow = 30 * kMicrosPerSecond;
constexpr Micros kChunk = 250 * kMicrosPerMilli;
constexpr int kPreloadInFlight = 64;
constexpr int kPreloadAttempts = 5;
/// A failed op enters its latency sample at the cluster's op timeout.
constexpr Micros kFailLatency = 800 * kMicrosPerMilli;

std::string KeyOf(std::size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "item%05zu", i);
  return buf;
}

/// Log-uniform sizes in [kMinBytes, kMaxBytes], fixed by item index (a
/// golden-ratio sequence) so every seed sees the same data set and only the
/// traffic varies.
std::size_t SizeOf(std::size_t i) {
  const double u = std::fmod(static_cast<double>(i + 1) * 0.6180339887498949, 1.0);
  const double ratio = static_cast<double>(kMaxBytes) / static_cast<double>(kMinBytes);
  return static_cast<std::size_t>(static_cast<double>(kMinBytes) * std::pow(ratio, u));
}

core::MyStoreConfig StoreConfig() {
  core::MyStoreConfig config;
  config.cluster = cluster::ClusterConfig::Uniform(kNodes);
  config.cluster.replication_factor = 3;
  config.cluster.write_quorum = 2;
  config.cluster.read_quorum = 2;
  config.cluster.hinted_handoff = false;
  config.cluster.fast_reads = true;
  config.cluster.hot_reads = true;
  config.cache_servers = kCacheServers;
  config.cache_bytes_per_server = kCacheBytesPerServer;
  return config;
}

/// Counts and samples of one window.
struct Phase {
  bool counting = false;
  Micros latency_until = 0;  ///< latencies recorded while Now() < this
  bool traced = false;       ///< time each GetAsync call in wall clock
  workload::LatencyRecorder get_us, put_us;  // virtual microseconds
  std::vector<double> hit_call_us, miss_call_us;
  std::uint64_t gets = 0, puts = 0;
  std::uint64_t get_fail = 0, put_fail = 0, check_fail = 0;
};

struct User {
  explicit User(int index, std::uint64_t seed)
      : rng(seed * 7919 + static_cast<std::uint64_t>(index)), checker(index) {}
  Rng rng;
  ReadChecker checker;
  std::uint64_t seq = 0;
};

class Driver {
 public:
  Driver(core::MyStore* store, std::uint64_t seed)
      : store_(store), zipf_(kItems, kZipfTheta) {
    for (int u = 0; u < kUsers; ++u) users_.emplace_back(u, seed);
    for (int u = 0; u < kUsers; ++u) {
      const Micros first = users_[static_cast<std::size_t>(u)].rng.UniformRange(0, kThinkMax);
      loop()->Schedule(first, [this, u] { StartOp(u); });
    }
  }

  Phase* phase() { return &phase_; }
  sim::EventLoop* loop() { return store_->storage()->loop(); }

 private:
  void StartOp(int u) {
    User& user = users_[static_cast<std::size_t>(u)];
    const std::size_t item = zipf_.Next(&user.rng);
    const std::string key = KeyOf(item);
    const Micros start = loop()->Now();
    if (user.rng.NextDouble() < kPostFraction) {
      const std::uint64_t seq = ++user.seq;
      store_->PostAsync(key, MakeValue(key, u, seq, SizeOf(item)),
                        [this, u, key, seq, start](const Status& s) {
                          User& me = users_[static_cast<std::size_t>(u)];
                          if (s.ok()) me.checker.NoteAckedPut(key, seq);
                          if (phase_.counting) {
                            ++phase_.puts;
                            if (!s.ok()) ++phase_.put_fail;
                            if (loop()->Now() < phase_.latency_until) {
                              phase_.put_us.Record(s.ok() ? loop()->Now() - start
                                                          : kFailLatency);
                            }
                          }
                          Think(u);
                        });
      return;
    }
    const bool timed = phase_.counting && phase_.traced;
    in_call_ = true;
    returned_inline_ = false;
    const auto wall_start = timed ? WallClock::now() : WallClock::time_point{};
    store_->GetAsync(key, [this, u, key, item, start](const Result<Bytes>& r) {
      if (in_call_) returned_inline_ = true;
      const User& me = users_[static_cast<std::size_t>(u)];
      const bool ok = r.ok();
      const bool checked = ok && me.checker.Check(key, *r, SizeOf(item));
      if (phase_.counting) {
        ++phase_.gets;
        if (!ok) ++phase_.get_fail;
        if (ok && !checked) ++phase_.check_fail;
        if (loop()->Now() < phase_.latency_until) {
          phase_.get_us.Record(checked ? loop()->Now() - start : kFailLatency);
        }
      }
      Think(u);
    });
    in_call_ = false;
    if (timed) {
      const double us = MicrosBetween(wall_start, WallClock::now());
      (returned_inline_ ? phase_.hit_call_us : phase_.miss_call_us).push_back(us);
    }
  }

  void Think(int u) {
    const Micros think = users_[static_cast<std::size_t>(u)].rng.UniformRange(0, kThinkMax);
    loop()->Schedule(think, [this, u] { StartOp(u); });
  }

  core::MyStore* store_;
  workload::ZipfGenerator zipf_;
  std::vector<User> users_;
  Phase phase_;
  bool in_call_ = false;
  bool returned_inline_ = false;
};

/// Moves the (single-threaded) simulator round-robin over every CPU it may
/// run on, one step per loop chunk. On a shared host the vCPUs run at
/// different speeds (a busy hyperthread sibling costs 25–40%), so a thread
/// left where the scheduler put it measures its vCPU more than the code;
/// rotating averages the vCPUs inside every slice. The mask is restored on
/// destruction.
class CpuRotor {
 public:
  CpuRotor() {
    if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotor() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void Step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Writes every item once through MyStore with bounded concurrency.
bool Preload(core::MyStore* store, CpuRotor* rotor, std::uint64_t* retries) {
  std::size_t next = 0;
  int in_flight = 0;
  bool failed = false;
  std::uint64_t spins = 0;
  std::function<void(std::size_t, int)> post = [&](std::size_t i, int attempt) {
    ++in_flight;
    const std::string key = KeyOf(i);
    store->PostAsync(key, MakeValue(key, kPreloadWriter, 0, SizeOf(i)),
                     [&, i, attempt](const Status& s) {
                       --in_flight;
                       if (s.ok()) return;
                       ++*retries;
                       if (attempt + 1 < kPreloadAttempts) {
                         post(i, attempt + 1);
                       } else {
                         failed = true;
                       }
                     });
  };
  while (!failed && (next < kItems || in_flight > 0)) {
    while (next < kItems && in_flight < kPreloadInFlight) post(next++, 0);
    if (++spins % 64 == 0) rotor->Step();
    store->storage()->loop()->RunFor(kMicrosPerMilli);
  }
  return !failed;
}

struct CacheCounts {
  std::uint64_t hits = 0, misses = 0;
};

CacheCounts CacheNow(core::MyStore* store) {
  return {store->cache_pool()->TotalHits(), store->cache_pool()->TotalMisses()};
}

/// Runs the loop in kChunk steps until `seconds` of wall time have passed and
/// the latency window has closed.
std::string RunWindow(core::MyStore* store, Driver* driver, CpuRotor* rotor,
                      SpeedReference* ref, const char* label, double seconds,
                      Micros latency_window, bool traced) {
  const std::size_t first_ref = ref->seconds().size();
  ref->Sample();
  Phase* phase = driver->phase();
  *phase = Phase();
  phase->counting = true;
  phase->traced = traced;
  phase->latency_until = driver->loop()->Now() + latency_window;
  const std::string stats_before = traced ? store->storage()->StatsJson() : "";
  const CacheCounts cache0 = CacheNow(store);
  const double cpu0 = SelfCpuSeconds();
  const Micros virtual0 = driver->loop()->Now();
  const auto start = WallClock::now();
  // Wall-clock slices of whole chunks; a trailing partial slice is dropped.
  std::vector<std::string> slices;
  auto slice_start = start;
  std::uint64_t slice_ops = 0;
  CpuTicks slice_ticks = ReadCpuTicks();
  while (SecondsSince(start) < seconds || driver->loop()->Now() < phase->latency_until) {
    rotor->Step();
    store->RunFor(kChunk);
    const double in_slice = SecondsSince(slice_start);
    if (in_slice >= kSliceSeconds) {
      const std::uint64_t done = phase->gets + phase->puts;
      const CpuTicks ticks = ReadCpuTicks();
      slices.push_back(JsonObject()
                           .Int("ops", static_cast<std::int64_t>(done - slice_ops))
                           .Num("wall_s", in_slice)
                           .Num("steal", StealShare(slice_ticks, ticks))
                           .Done());
      ref->Sample();
      slice_start = WallClock::now();
      slice_ops = done;
      slice_ticks = ticks;
    }
  }
  const double wall_s = SecondsSince(start);
  if (slices.empty()) {
    slices.push_back(JsonObject()
                         .Int("ops", static_cast<std::int64_t>(phase->gets + phase->puts))
                         .Num("wall_s", wall_s)
                         .Done());
  }
  const std::vector<double> ref_s(
      ref->seconds().begin() + static_cast<std::ptrdiff_t>(first_ref),
      ref->seconds().end());
  const double cpu_s = SelfCpuSeconds() - cpu0 - Sum(ref_s);
  phase->counting = false;
  const CacheCounts cache1 = CacheNow(store);

  JsonObject o;
  o.Str("label", label)
      .Num("wall_s", wall_s)
      .Num("virtual_s", static_cast<double>(driver->loop()->Now() - virtual0) / 1e6)
      .Int("gets", static_cast<std::int64_t>(phase->gets))
      .Int("puts", static_cast<std::int64_t>(phase->puts))
      .Int("get_fail", static_cast<std::int64_t>(phase->get_fail))
      .Int("put_fail", static_cast<std::int64_t>(phase->put_fail))
      .Int("check_fail", static_cast<std::int64_t>(phase->check_fail))
      .Raw("get_us", LatencyJson(phase->get_us))
      .Raw("put_us", LatencyJson(phase->put_us))
      .Raw("slices", JsonArray(slices))
      .Num("client_cpu_s", cpu_s)
      .Num("server_cpu_s", 0.0)
      .Raw("ref_s", JsonNumbers(ref_s))
      .Int("cache_hits", static_cast<std::int64_t>(cache1.hits - cache0.hits))
      .Int("cache_misses", static_cast<std::int64_t>(cache1.misses - cache0.misses))
      .Int("cache_pinned", static_cast<std::int64_t>(store->cache_pool()->TotalPinned()));
  if (traced) {
    o.Raw("stats_before", JsonArray({stats_before}))
        .Raw("stats_after", JsonArray({store->storage()->StatsJson()}))
        .Num("hit_call_us", Median(phase->hit_call_us))
        .Num("miss_call_us", Median(phase->miss_call_us));
  }
  return o.Done();
}

}  // namespace

bool IsSimWorkload(const std::string& name) { return name == kName; }

int RunSimWorkload(const Options& options) {
  std::vector<double> setup_s;
  std::uint64_t retries = 0;
  std::unique_ptr<core::MyStore> store;
  SpeedReference ref;  // before the rotor first pins this thread to one CPU
  CpuRotor rotor;
  for (int s = 0; s < kSetups; ++s) {
    store.reset();
    const auto start = WallClock::now();
    store = std::make_unique<core::MyStore>(StoreConfig());
    const Status started = store->Start();
    if (!started.ok() || !Preload(store.get(), &rotor, &retries)) {
      std::fprintf(stderr, "perfbench: set-up %d of %s failed: %s\n", s + 1, kName,
                   started.ok() ? "preload failed" : started.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
  }

  Driver driver(store.get(), options.seed);
  // Unmeasured, but its failed ops and failed checks still count.
  std::vector<std::string> windows = {
      RunWindow(store.get(), &driver, &rotor, &ref, "warmup", 0.0, kWarmup, false)};
  if (!options.trace) {
    windows.push_back(RunWindow(store.get(), &driver, &rotor, &ref, "measure",
                                options.seconds, kLatencyWindow, false));
  } else {
    windows.push_back(RunWindow(store.get(), &driver, &rotor, &ref, "untraced",
                                options.seconds / 2, kLatencyWindow / 2, false));
    windows.push_back(RunWindow(store.get(), &driver, &rotor, &ref, "traced",
                                options.seconds / 2, kLatencyWindow / 2, true));
  }

  std::string probes = "{}";
  if (options.trace) {
    ProbeShape probe;
    for (const cluster::NodeSpec& spec : store->storage()->config().nodes) {
      probe.ring_nodes.push_back(spec.address);
    }
    for (std::size_t i = 0; i < kItems; ++i) probe.keys.push_back(KeyOf(i));
    probe.value_bytes = 8 * 1024;  // the geometric mean of the item sizes
    store.reset();
    probes = RunLayerProbes(probe, options.seed);
  }
  const double rss_kib = static_cast<double>(SelfMaxRssKib());
  std::printf("RAW %s\n",
              JsonObject()
                  .Str("workload", kName)
                  .Int("seed", static_cast<std::int64_t>(options.seed))
                  .Int("nodes", kNodes)
                  .Int("shards", 1)
                  .Int("workers", kUsers)
                  .Raw("setup_s", JsonNumbers(setup_s))
                  .Int("setup_retries", static_cast<std::int64_t>(retries))
                  .Raw("daemon_exit_codes", "[]")
                  .Raw("server_rss_kib", JsonNumbers({rss_kib}))
                  .Raw("windows", JsonArray(windows))
                  .Raw("probes", probes)
                  .Done()
                  .c_str());
  return 0;
}

}  // namespace perfbench
