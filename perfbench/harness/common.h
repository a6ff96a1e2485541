// Shared pieces of the perfbench harness: time slices, the self-checking
// value format, the per-client read checker and a small JSON writer.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "workload/metrics.h"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start);
double MicrosBetween(WallClock::time_point start, WallClock::time_point end);

/// {"n":..,"p50":..,"p99":..,"p999":..} of whole-microsecond latencies.
std::string LatencyJson(const hotman::workload::LatencyRecorder& latencies);

/// A measured window is cut into slices of this much wall time; run.py
/// reports the median over slices, so one disturbed second cannot move a
/// figure.
inline constexpr double kSliceSeconds = 1.0;

/// Slices in a window of `seconds` (at least one).
std::size_t SliceCount(double seconds);
/// Wall seconds of slice `i` of `count` in a window that lasted `wall_s`:
/// kSliceSeconds each, the last one taking the remainder.
double SliceWallSeconds(std::size_t i, std::size_t count, double wall_s);

/// Ops completed in one slice, their latencies, and the share of the
/// machine's CPU time the hypervisor stole meanwhile.
struct Slice {
  hotman::workload::LatencyRecorder get_us, put_us;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double steal = 0.0;

  void Merge(const Slice& other);
  /// {"ops":..,"wall_s":..,"steal":..,"get_us":{..},"put_us":{..}}
  std::string ToJson() const;
};

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Stolen share of the CPU time between two readings (0 when none passed).
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Writer id of the values written by the preload.
inline constexpr int kPreloadWriter = -1;

/// Every value the benchmark writes is "<key>|<writer>|<seq>|" padded with
/// filler to `size` bytes, so a read can be checked against its key and
/// against the reading client's own acknowledged writes.
hotman::Bytes MakeValue(const std::string& key, int writer, std::uint64_t seq,
                        std::size_t size);

/// Tracks one client's acknowledged puts and checks its reads.
class ReadChecker {
 public:
  explicit ReadChecker(int writer) : writer_(writer) {}

  void NoteAckedPut(const std::string& key, std::uint64_t seq) {
    acked_[key] = seq;
  }
  /// True when `value` is a well-formed value of `key` of `expected_size`
  /// bytes that is no older than this client's last acknowledged put of
  /// `key`: the preload and this client's own earlier writes are older;
  /// another client's write cannot be ordered and is accepted.
  bool Check(const std::string& key, const hotman::Bytes& value,
             std::size_t expected_size) const;

 private:
  int writer_;
  std::unordered_map<std::string, std::uint64_t> acked_;
};

/// Builds one JSON object, field by field.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, std::int64_t value);
  JsonObject& Str(std::string_view key, std::string_view value);
  /// `json` must already be valid JSON.
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string Done() const { return out_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string out_ = "{";
};

std::string JsonString(std::string_view s);
std::string JsonArray(const std::vector<std::string>& items);
std::string JsonNumbers(const std::vector<double>& values);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// Peak resident set size of this process, in KiB.
std::int64_t SelfMaxRssKib();
/// User + system CPU seconds this process has used so far.
double SelfCpuSeconds();
/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();

/// The host's speed, measured beside a workload. On a shared host the vCPUs
/// run faster or slower for minutes at a time, and every CPU and wall time of
/// a workload follows: 10 runs of one tcp workload read 122-237 CPU us per
/// op, their get p50 64-128 us, moving together. Sample() times a fixed
/// kernel (integer hashing into a 4 MiB table, sharing no code with hotman)
/// once on each CPU the thread may use; run.py scales a window's times by the
/// kernel's nominal time over its median time in that window.
class SpeedReference {
 public:
  SpeedReference();
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  /// Runs the kernel once on each CPU, then restores the thread's CPU mask.
  void Sample();
  /// Thread CPU seconds of every kernel run so far.
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<int> cpus_;  ///< -1 alone when the CPU mask cannot be read
  std::vector<double> seconds_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
