#ifndef HOTMAN_COMMON_METRICS_H_
#define HOTMAN_COMMON_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"

namespace hotman::metrics {

/// Monotonic event counter (operations, bytes, faults).
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, live nodes, in-flight requests).
class Gauge {
 public:
  void Set(std::int64_t value) { value_ = value; }
  void Add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Immutable view of a histogram at snapshot time. All values are in the
/// histogram's native unit (microseconds for every latency histogram).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  Micros min = 0;
  Micros max = 0;
  Micros p50 = 0;
  Micros p95 = 0;
  Micros p99 = 0;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// {"count":N,"mean_us":..,"min_us":..,"p50_us":..,"p95_us":..,
  ///  "p99_us":..,"max_us":..}
  std::string ToJson() const;
};

/// Fixed-bucket latency histogram: geometric bucket bounds covering
/// 1 us .. ~50 s at ~20% relative resolution. Recording is allocation-free
/// and O(log buckets); percentile extraction walks the bucket array at
/// snapshot time. min/max/sum/count are tracked exactly, so Mean() is exact
/// and percentiles are exact at the distribution's edges.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 100;

  Histogram() = default;

  /// Records one sample (negative samples are clamped to zero).
  void Record(Micros value);

  /// Adds every sample of `other` into this histogram (cluster-wide
  /// aggregation). Percentiles of the merge are bucket-resolution accurate.
  void MergeFrom(const Histogram& other);

  HistogramSnapshot Snapshot() const;

  std::uint64_t count() const { return count_; }
  Micros Percentile(double p) const;  ///< p in [0, 100]
  void Reset();

  /// Inclusive upper bound of bucket `i` (exposed for tests).
  static Micros BucketUpperBound(std::size_t i);

 private:
  static std::size_t BucketFor(Micros value);

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Micros min_ = 0;
  Micros max_ = 0;
};

/// Operation kind of a trace record.
enum class TraceOp : std::uint8_t { kPut, kGet };

/// One coordinated request's lifecycle, decomposed with the sim clock:
/// coordinator enqueue (started_at) -> replica service -> decisive ack
/// (finished_at). queue/service come from the replica's ServiceStation and
/// ride back on the ack; network is everything else (two wire hops plus
/// coordinator-side waiting for the quorum).
struct TraceRecord {
  std::uint64_t req = 0;
  TraceOp op = TraceOp::kPut;
  std::string key;
  std::string coordinator;
  std::string replica;  ///< the replica whose ack decided the outcome
  Micros started_at = 0;
  Micros finished_at = 0;
  Micros queue_micros = 0;    ///< replica-side queue wait
  Micros service_micros = 0;  ///< replica-side service time
  Micros network_micros = 0;  ///< total - queue - service
  bool ok = false;

  Micros TotalMicros() const { return finished_at - started_at; }
  std::string ToJson() const;
};

/// Fixed-capacity ring of the most recent trace records. Adding never
/// allocates once the ring is full; older records are overwritten.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 256);

  void Add(TraceRecord record);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_added() const { return total_; }

  /// Retained records, oldest first.
  std::vector<TraceRecord> Snapshot() const;

  /// JSON array of the newest `limit` records (oldest of those first).
  std::string ToJson(std::size_t limit = 32) const;

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;
  std::size_t next_ = 0;  ///< overwrite cursor once full
  std::uint64_t total_ = 0;
};

/// Named metric registry. Metric objects are owned by the registry and
/// their addresses are stable for its lifetime, so hot paths look a metric
/// up once and keep the pointer. ToJson() renders a deterministic (sorted
/// by name) snapshot of everything registered — the payload of the /stats
/// endpoint and of bench JSON artifacts.
class Registry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}
  std::string ToJson() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hotman::metrics

#endif  // HOTMAN_COMMON_METRICS_H_
