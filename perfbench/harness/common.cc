#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>

namespace perfbench {

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

double MicrosBetween(WallClock::time_point start, WallClock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

std::string LatencyJson(const hotman::workload::LatencyRecorder& latencies) {
  return JsonObject()
      .Int("n", static_cast<std::int64_t>(latencies.count()))
      .Num("p50", static_cast<double>(latencies.Percentile(50)))
      .Num("p99", static_cast<double>(latencies.Percentile(99)))
      .Num("p999", static_cast<double>(latencies.Percentile(99.9)))
      .Done();
}

std::size_t SliceCount(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceSeconds + 0.5));
}

double SliceWallSeconds(std::size_t i, std::size_t count, double wall_s) {
  const double before = static_cast<double>(i) * kSliceSeconds;
  return i + 1 < count ? kSliceSeconds : std::max(wall_s - before, 1e-9);
}

void Slice::Merge(const Slice& other) {
  for (const hotman::Micros us : other.get_us.samples()) get_us.Record(us);
  for (const hotman::Micros us : other.put_us.samples()) put_us.Record(us);
  ops += other.ops;
}

std::string Slice::ToJson() const {
  return JsonObject()
      .Int("ops", static_cast<std::int64_t>(ops))
      .Num("wall_s", wall_s)
      .Num("steal", steal)
      .Raw("get_us", LatencyJson(get_us))
      .Raw("put_us", LatencyJson(put_us))
      .Done();
}

CpuTicks ReadCpuTicks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already inside user, so the total stops at steal.
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  for (int field = 1; field <= 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 8) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

hotman::Bytes MakeValue(const std::string& key, int writer, std::uint64_t seq,
                        std::size_t size) {
  std::string head = key + "|" + std::to_string(writer) + "|" +
                     std::to_string(seq) + "|";
  hotman::Bytes value(std::max(size, head.size()), 0);
  std::copy(head.begin(), head.end(), value.begin());
  for (std::size_t i = head.size(); i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>('a' + (i + seq) % 26);
  }
  return value;
}

bool ReadChecker::Check(const std::string& key, const hotman::Bytes& value,
                        std::size_t expected_size) const {
  if (value.size() != expected_size) return false;
  const std::string_view text(reinterpret_cast<const char*>(value.data()),
                              std::min<std::size_t>(value.size(), 64));
  const std::size_t k_end = text.find('|');
  if (k_end == std::string_view::npos || text.substr(0, k_end) != key) {
    return false;
  }
  const std::size_t w_end = text.find('|', k_end + 1);
  const std::size_t s_end =
      w_end == std::string_view::npos ? w_end : text.find('|', w_end + 1);
  if (s_end == std::string_view::npos) return false;
  int writer = 0;
  std::uint64_t seq = 0;
  const char* base = text.data();
  if (std::from_chars(base + k_end + 1, base + w_end, writer).ec != std::errc() ||
      std::from_chars(base + w_end + 1, base + s_end, seq).ec != std::errc()) {
    return false;
  }
  const auto it = acked_.find(key);
  if (it == acked_.end()) return true;
  if (writer == kPreloadWriter) return false;
  return writer != writer_ || seq >= it->second;
}

void JsonObject::Key(std::string_view key) {
  if (out_.size() > 1) out_ += ',';
  out_ += JsonString(key);
  out_ += ':';
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, std::int64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  out_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  out_ += json;
  return *this;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    items.emplace_back(buf);
  }
  return JsonArray(items);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::int64_t SelfMaxRssKib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {
/// About 1 ms of CPU per kernel run on a 2.1 GHz Xeon vCPU.
constexpr int kKernelSteps = 1 << 18;
}  // namespace

SpeedReference::SpeedReference() : table_(std::size_t{1} << 20) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);
}

void SpeedReference::Sample() {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore = ::sched_getaffinity(0, sizeof(saved), &saved) == 0;
  const std::size_t mask = table_.size() - 1;
  for (const int cpu : cpus_) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    const double start = ThreadCpuSeconds();
    std::uint64_t x = state_;
    for (int i = 0; i < kKernelSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      table_[(x >> 40) & mask] += static_cast<std::uint32_t>(x >> 7);
    }
    state_ = x;
    seconds_.push_back(ThreadCpuSeconds() - start);
  }
  if (restore) ::sched_setaffinity(0, sizeof(saved), &saved);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace perfbench
