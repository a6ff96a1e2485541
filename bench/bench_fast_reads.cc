// Fast consistent reads: dirty-set single-replica path vs. the R-quorum
// baseline (ISSUE 6; Harmonia-style, PAPERS.md).
//
// Closed-loop clients hammer a 5-server cluster whose quorums are strict
// (R+W>N, hinted handoff off — the mode where the fast path may engage).
// Sweeps replica count N in {3, 5} and write ratio in {0%, 5%, 20%}, each
// with fast_reads off (baseline) and on. Reported throughput is completed
// reads per simulated second; the speedup column is on/off at equal
// configuration. The acceptance bar is >= 1.5x at N=3 under a >= 95%-read
// workload.
//
//   bench_fast_reads [--short]    # --short: CI smoke (small sweep)

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"

using namespace hotman;  // NOLINT

namespace {

struct RunResult {
  double reads_per_s = 0;   ///< completed reads per simulated second
  double fast_hit_pct = 0;  ///< % of coordinated gets served by the fast path
  double demotion_pct = 0;  ///< % of coordinated gets that demoted to quorum
  double read_fail_pct = 0;
};

/// One closed-loop client: finishes an op, flips a weighted coin, issues
/// the next. Lives outside the Cluster so Stop()'s callback flush during
/// teardown still finds it alive.
struct Driver {
  cluster::Cluster* cluster = nullptr;
  std::mt19937_64 rng;
  int keys = 0;
  double write_ratio = 0;
  long long reads_done = 0;
  long long reads_failed = 0;
  bool stop = false;

  void Next() {
    if (stop) return;
    const std::string key = "k" + std::to_string(rng() % keys);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng) < write_ratio) {
      cluster->Put(key, ToBytes("v" + std::to_string(rng() % 1000)),
                   [this](const Status&) { Next(); });
    } else {
      cluster->Get(key, [this](const Result<bson::Document>& value) {
        ++reads_done;
        if (!value.ok()) ++reads_failed;
        Next();
      });
    }
  }
};

RunResult RunOne(int n, double write_ratio, bool fast, bool short_mode) {
  RunResult result;
  const int kKeys = 64;
  // Enough closed-loop demand to saturate the replicas' service stations
  // (5 nodes x 8 workers / 300us base cost ~= 133k serves/s; a quorum read
  // burns N serves, a fast read one) — the regime the fast path targets.
  const int kClients = short_mode ? 64 : 128;
  const Micros kMeasure = (short_mode ? 4 : 12) * kMicrosPerSecond;

  // Drivers declared before the cluster: teardown flushes pending callbacks.
  std::vector<std::unique_ptr<Driver>> drivers;

  cluster::ClusterConfig config = cluster::ClusterConfig::Uniform(5);
  config.replication_factor = n;
  // Strict read quorums (R+W>N) so both arms serve consistent reads; the
  // fast path's claim is matching that consistency at single-replica cost.
  config.write_quorum = (n + 2) / 2;
  config.read_quorum = n + 1 - config.write_quorum;
  config.hinted_handoff = false;  // anchoring precondition (see DESIGN.md)
  config.fast_reads = fast;
  cluster::Cluster cluster(config, /*seed=*/7);
  if (!cluster.Start().ok()) return result;

  for (int i = 0; i < kKeys; ++i) {
    (void)cluster.PutSync("k" + std::to_string(i), ToBytes("seed"));
  }
  // Let the preload writes age past the quiescence window so the sweep
  // starts from clean dirty sets in both arms.
  cluster.RunFor(cluster::kFastReadQuiescence + kMicrosPerSecond);

  for (int c = 0; c < kClients; ++c) {
    auto driver = std::make_unique<Driver>();
    driver->cluster = &cluster;
    driver->rng.seed(0x9E3779B9u + static_cast<std::uint64_t>(c));
    driver->keys = kKeys;
    driver->write_ratio = write_ratio;
    drivers.push_back(std::move(driver));
  }
  for (auto& driver : drivers) driver->Next();
  cluster.RunFor(2 * kMicrosPerSecond);  // warmup

  long long reads_before = 0;
  for (auto& driver : drivers) reads_before += driver->reads_done;
  const cluster::NodeStats stats_before = cluster.AggregateStats();

  cluster.RunFor(kMeasure);

  long long reads_after = 0, fails = 0;
  for (auto& driver : drivers) {
    reads_after += driver->reads_done;
    fails += driver->reads_failed;
    driver->stop = true;
  }
  const cluster::NodeStats stats_after = cluster.AggregateStats();
  cluster.RunFor(2 * kMicrosPerSecond);  // drain in-flight ops

  const double seconds =
      static_cast<double>(kMeasure) / static_cast<double>(kMicrosPerSecond);
  const double reads = static_cast<double>(reads_after - reads_before);
  const double gets = static_cast<double>(stats_after.gets_coordinated -
                                          stats_before.gets_coordinated);
  result.reads_per_s = reads / seconds;
  if (gets > 0) {
    result.fast_hit_pct =
        100.0 * static_cast<double>(stats_after.fast_read_hits -
                                    stats_before.fast_read_hits) / gets;
    result.demotion_pct =
        100.0 * static_cast<double>(stats_after.fast_read_demotions -
                                    stats_before.fast_read_demotions) / gets;
  }
  if (reads > 0) result.read_fail_pct = 100.0 * static_cast<double>(fails) / reads;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_mode = argc > 1 && std::strcmp(argv[1], "--short") == 0;

  bench::Header("fast_reads",
                "dirty-set single-replica reads vs. R-quorum baseline");
  std::printf("strict quorums (R+W>N), hinted handoff off, 64 keys, "
              "closed-loop clients\n\n");
  bench::Row({"N", "writes %", "quorum r/s", "fast r/s", "speedup",
              "fast hit %", "demote %"});

  bench::JsonWriter json("fast_reads");
  json.Text("mode", short_mode ? "short" : "full");

  const int replication[] = {3, 5};
  const double write_ratios_full[] = {0.0, 0.05, 0.20};
  const double write_ratios_short[] = {0.05};
  const double* write_ratios = short_mode ? write_ratios_short : write_ratios_full;
  const int n_ratios = short_mode ? 1 : 3;

  double speedup_n3_read_heavy = 0;
  for (int n : replication) {
    for (int i = 0; i < n_ratios; ++i) {
      const double ratio = write_ratios[i];
      const RunResult off = RunOne(n, ratio, /*fast=*/false, short_mode);
      const RunResult on = RunOne(n, ratio, /*fast=*/true, short_mode);
      const double speedup =
          off.reads_per_s > 0 ? on.reads_per_s / off.reads_per_s : 0;
      if (n == 3 && ratio <= 0.05) {
        speedup_n3_read_heavy = std::max(speedup_n3_read_heavy, speedup);
      }
      bench::Row({std::to_string(n), bench::Fmt(100 * ratio, 0),
                  bench::Fmt(off.reads_per_s, 0), bench::Fmt(on.reads_per_s, 0),
                  bench::Fmt(speedup, 2), bench::Fmt(on.fast_hit_pct, 1),
                  bench::Fmt(on.demotion_pct, 1)});
      const std::string tag =
          "n" + std::to_string(n) + "_w" + std::to_string(int(100 * ratio));
      json.Number(tag + "_quorum_reads_per_s", off.reads_per_s, 0);
      json.Number(tag + "_fast_reads_per_s", on.reads_per_s, 0);
      json.Number(tag + "_speedup", speedup, 3);
      json.Number(tag + "_fast_hit_pct", on.fast_hit_pct, 1);
      json.Number(tag + "_demotion_pct", on.demotion_pct, 1);
      json.Number(tag + "_read_fail_pct", on.read_fail_pct, 2);
    }
  }
  json.Number("speedup_n3_read_heavy", speedup_n3_read_heavy, 3);
  json.WriteFile();

  bench::Section("expected shapes");
  std::printf("- read-heavy, N=3: fast path >= 1.5x the quorum baseline\n");
  std::printf("  (one replica read instead of R=2 of 3, so less replica\n");
  std::printf("  service load per read and no straggler wait)\n");
  std::printf("- the gap widens at N=5 (R=3 fan-out vs. still one read)\n");
  std::printf("- rising write ratio dirties more keys: hit %% falls,\n");
  std::printf("  throughput converges back toward the quorum baseline\n");
  return 0;
}
