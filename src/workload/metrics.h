#ifndef HOTMAN_WORKLOAD_METRICS_H_
#define HOTMAN_WORKLOAD_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace hotman::workload {

/// Collects latency samples and derives the statistics the paper's figures
/// report: means, percentiles, and sorted completion-time curves (Fig. 17
/// plots "operations sorted by their consuming time, every 100th").
class LatencyRecorder {
 public:
  void Record(Micros sample) { samples_.push_back(sample); }

  std::size_t count() const { return samples_.size(); }
  Micros Min() const;
  Micros Max() const;
  double MeanMicros() const;

  /// p in [0, 100].
  Micros Percentile(double p) const;

  /// Sorted samples, thinned to every `stride`-th (Fig. 17's
  /// "representative operations ... by interval of 100 operations").
  std::vector<Micros> SortedEvery(std::size_t stride) const;

  /// Count of samples <= `bound` (the vertical axis of Fig. 17).
  std::size_t CountWithin(Micros bound) const;

  /// Latency summary as JSON, field-compatible with
  /// metrics::HistogramSnapshot::ToJson():
  ///   {"count":N,"mean_us":..,"min_us":..,"p50_us":..,"p95_us":..,
  ///    "p99_us":..,"max_us":..}
  std::string JsonSummary() const;

  const std::vector<Micros>& samples() const { return samples_; }

 private:
  // Sorted lazily; kept simple since analysis happens after the run.
  std::vector<Micros> Sorted() const;

  std::vector<Micros> samples_;
};

/// Windowed throughput/RPS accounting over virtual time.
class ThroughputMeter {
 public:
  void Start(Micros now) { started_at_ = now; }
  void Stop(Micros now) { stopped_at_ = now; }

  void RecordOp(std::size_t bytes) {
    ++ops_;
    bytes_ += bytes;
  }
  void RecordFailure() { ++failures_; }

  std::size_t ops() const { return ops_; }
  std::size_t failures() const { return failures_; }
  std::size_t bytes() const { return bytes_; }

  double ElapsedSeconds() const {
    return static_cast<double>(stopped_at_ - started_at_) / kMicrosPerSecond;
  }
  /// Successful requests per second.
  double Rps() const;
  /// Payload megabytes per second (the paper's MB/s axis).
  double ThroughputMBps() const;

 private:
  Micros started_at_ = 0;
  Micros stopped_at_ = 0;
  std::size_t ops_ = 0;
  std::size_t failures_ = 0;
  std::size_t bytes_ = 0;
};

/// One row of a printed results table; benches use this to emit uniform,
/// grep-friendly output.
std::string FormatRow(const std::vector<std::string>& cells, int width = 14);

}  // namespace hotman::workload

#endif  // HOTMAN_WORKLOAD_METRICS_H_
