#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hotman::metrics {

namespace {

/// Geometric bucket bounds: +1 steps at the bottom for exact small-value
/// resolution, then ×1.2 growth. Built once; lookups never allocate.
const std::array<Micros, Histogram::kNumBuckets>& Bounds() {
  static const std::array<Micros, Histogram::kNumBuckets> bounds = [] {
    std::array<Micros, Histogram::kNumBuckets> b{};
    Micros cur = 1;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      b[i] = cur;
      cur = std::max(cur + 1, cur + cur / 5);
    }
    return b;
  }();
  return bounds;
}

std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string I64(std::int64_t v) { return std::to_string(v); }

}  // namespace

// --- Histogram ---------------------------------------------------------------

Micros Histogram::BucketUpperBound(std::size_t i) {
  return Bounds()[std::min(i, kNumBuckets - 1)];
}

std::size_t Histogram::BucketFor(Micros value) {
  const auto& bounds = Bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  if (it == bounds.end()) return kNumBuckets - 1;  // clamp the far tail
  return static_cast<std::size_t>(it - bounds.begin());
}

void Histogram::Record(Micros value) {
  if (value < 0) value = 0;
  ++buckets_[BucketFor(value)];
  sum_ += static_cast<std::uint64_t>(value);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  sum_ += other.sum_;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
}

Micros Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(1, rank);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      // The bucket bound is an over-estimate of up to one bucket width;
      // the exact extrema tighten the edges.
      return std::clamp(Bounds()[i], min_, max_);
    }
  }
  return max_;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.p50 = Percentile(50);
  snap.p95 = Percentile(95);
  snap.p99 = Percentile(99);
  return snap;
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::string HistogramSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"count\":" + std::to_string(count);
  char mean[32];
  std::snprintf(mean, sizeof(mean), "%.1f", Mean());
  out += ",\"mean_us\":";
  out += mean;
  out += ",\"min_us\":" + I64(min);
  out += ",\"p50_us\":" + I64(p50);
  out += ",\"p95_us\":" + I64(p95);
  out += ",\"p99_us\":" + I64(p99);
  out += ",\"max_us\":" + I64(max);
  out += "}";
  return out;
}

// --- TraceBuffer -------------------------------------------------------------

std::string TraceRecord::ToJson() const {
  std::string out = "{";
  out += "\"req\":" + std::to_string(req);
  out += std::string(",\"op\":\"") + (op == TraceOp::kPut ? "put" : "get") + "\"";
  out += ",\"key\":\"" + EscapeJson(key) + "\"";
  out += ",\"coordinator\":\"" + EscapeJson(coordinator) + "\"";
  out += ",\"replica\":\"" + EscapeJson(replica) + "\"";
  out += ",\"start_us\":" + I64(started_at);
  out += ",\"total_us\":" + I64(TotalMicros());
  out += ",\"queue_us\":" + I64(queue_micros);
  out += ",\"service_us\":" + I64(service_micros);
  out += ",\"network_us\":" + I64(network_micros);
  out += std::string(",\"ok\":") + (ok ? "true" : "false");
  out += "}";
  return out;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TraceBuffer::Add(TraceRecord record) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceRecord> TraceBuffer::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  // Once full, `next_` points at the oldest record.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::string TraceBuffer::ToJson(std::size_t limit) const {
  std::vector<TraceRecord> all = Snapshot();
  const std::size_t start = all.size() > limit ? all.size() - limit : 0;
  std::string out = "[";
  for (std::size_t i = start; i < all.size(); ++i) {
    if (i > start) out += ",";
    out += all[i].ToJson();
  }
  out += "]";
  return out;
}

// --- Registry ----------------------------------------------------------------

Counter* Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string Registry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(EscapeJson(name)).append("\":");
    out.append(std::to_string(counter->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(EscapeJson(name)).append("\":");
    out.append(std::to_string(gauge->value()));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(EscapeJson(name)).append("\":");
    out.append(histogram->Snapshot().ToJson());
  }
  out += "}}";
  return out;
}

}  // namespace hotman::metrics
