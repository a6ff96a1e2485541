#include "cluster/heat_tracker.h"

#include <algorithm>
#include <cmath>

namespace hotman::cluster {
namespace {

constexpr double kLn2 = 0.6931471805599453;

/// Counters below this are indistinguishable from fully decayed noise and
/// are dropped at rescale/snapshot time so the sketch frees capacity.
constexpr double kNoiseFloor = 0.05;

double RateFromCount(double count, Micros half_life) {
  if (half_life <= 0) return 0.0;
  return count * kLn2 * kMicrosPerSecond / static_cast<double>(half_life);
}

bool RankBefore(const HeatEntry& a, const HeatEntry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;  // deterministic tie-break for seeded replays
}

}  // namespace

double HeatSnapshot::FitSkew(const std::vector<HeatEntry>& top) {
  // Least squares of ln(count) against ln(rank): Zipf(theta) gives a line
  // of slope -theta, so theta-hat = -slope.
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (top[i].count <= 0.0) break;
    xs.push_back(std::log(static_cast<double>(i + 1)));
    ys.push_back(std::log(top[i].count));
  }
  if (xs.size() < 3) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(xs.size());
  my /= static_cast<double>(xs.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    num += (xs[i] - mx) * (ys[i] - my);
    den += (xs[i] - mx) * (xs[i] - mx);
  }
  if (den <= 0.0) return 0.0;
  return std::max(0.0, -num / den);
}

void HeatSnapshot::MergeFrom(const HeatSnapshot& other, std::size_t capacity) {
  std::map<std::string, HeatEntry> merged;
  for (const HeatEntry& e : top) merged[e.key] = e;
  for (const HeatEntry& e : other.top) {
    HeatEntry& slot = merged[e.key];
    slot.key = e.key;
    slot.count += e.count;
    slot.error += e.error;
    slot.qps += e.qps;
  }
  top.clear();
  top.reserve(merged.size());
  for (auto& [key, entry] : merged) top.push_back(std::move(entry));
  std::sort(top.begin(), top.end(), RankBefore);
  if (capacity > 0 && top.size() > capacity) top.resize(capacity);
  total_qps += other.total_qps;
  ops += other.ops;
  skew_coefficient = FitSkew(top);
}

void HeatSnapshot::ExportTo(metrics::Registry* registry) const {
  // Gauges are int64, so the fractional skew coefficient exports in
  // milli-units.
  registry->counter("heat.tracked_ops")->Increment(ops);
  registry->gauge("heat.tracked_keys")->Set(static_cast<std::int64_t>(top.size()));
  registry->gauge("heat.top1_qps")
      ->Set(static_cast<std::int64_t>(top.empty() ? 0.0 : top.front().qps));
  registry->gauge("heat.total_qps")->Set(static_cast<std::int64_t>(total_qps));
  registry->gauge("heat.skew_coeff_milli")
      ->Set(static_cast<std::int64_t>(skew_coefficient * 1000.0));
}

HeatTracker::HeatTracker(HeatConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
}

double HeatTracker::DecayTo(Micros now) const {
  if (config_.half_life <= 0 || now <= anchor_) return 1.0;
  return std::exp2(-static_cast<double>(now - anchor_) /
                   static_cast<double>(config_.half_life));
}

void HeatTracker::MaybeRescale(Micros now) {
  if (entries_.empty()) {
    anchor_ = now;
    return;
  }
  if (now - anchor_ < config_.half_life / 8) return;
  const double factor = DecayTo(now);
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second.count *= factor;
    it->second.error *= factor;
    if (it->second.count < kNoiseFloor) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  anchor_ = now;
}

void HeatTracker::Record(const std::string& key, Micros now) {
  ++ops_;
  MaybeRescale(now);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.count += 1.0;
    return;
  }
  if (entries_.size() < config_.capacity) {
    entries_[key] = Slot{1.0, 0.0, 0};
    return;
  }
  // Space-saving eviction: the new key inherits the minimum counter as its
  // error bound, preserving the count >= true-hits >= count - error
  // invariant.
  auto min_it = entries_.begin();
  for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
    if (cand->second.count < min_it->second.count) min_it = cand;
  }
  const double floor = min_it->second.count;
  entries_.erase(min_it);
  entries_[key] = Slot{floor + 1.0, floor, 0};
}

double HeatTracker::EstimatedQps(const std::string& key, Micros now) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return 0.0;
  const double guaranteed =
      std::max(0.0, it->second.count - it->second.error) * DecayTo(now);
  return RateFromCount(guaranteed, config_.half_life);
}

bool HeatTracker::IsHot(const std::string& key, Micros now) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const double guaranteed =
      std::max(0.0, it->second.count - it->second.error) * DecayTo(now);
  if (guaranteed < config_.min_hits) return false;
  return RateFromCount(guaranteed, config_.half_life) >= config_.hot_qps;
}

std::uint64_t HeatTracker::NextRotation(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return it->second.rotation++;
}

HeatSnapshot HeatTracker::Snapshot(Micros now) const {
  HeatSnapshot snap;
  snap.ops = ops_;
  const double factor = DecayTo(now);
  for (const auto& [key, slot] : entries_) {
    const double count = slot.count * factor;
    if (count < kNoiseFloor) continue;
    HeatEntry entry;
    entry.key = key;
    entry.count = count;
    entry.error = slot.error * factor;
    entry.qps = RateFromCount(count, config_.half_life);
    snap.total_qps += entry.qps;
    snap.top.push_back(std::move(entry));
  }
  std::sort(snap.top.begin(), snap.top.end(), RankBefore);
  snap.skew_coefficient = HeatSnapshot::FitSkew(snap.top);
  return snap;
}

}  // namespace hotman::cluster
