// Entry points of the perfbench harness: one run of one workload. Each run
// prints human-readable lines and, last, one line "RAW <json>" holding every
// raw measurement; perfbench/run.py derives the metrics from it.

#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Set-ups per run; setup_s is the fastest of them (run.py).
inline constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool trace = false;     ///< split the window: untraced half, traced half
  std::string hotmand;    ///< daemon binary (tcp_* workloads)
  std::string log_dir;    ///< daemon stderr goes here when set
};

/// tcp_read_mostly, tcp_write_heavy, tcp_sharded_node: real hotmand daemons
/// over loopback. Returns the process exit code.
int RunTcpWorkload(const Options& options);
bool IsTcpWorkload(const std::string& name);

/// sim_mystore_zipf: the in-process core::MyStore stack on the simulator.
int RunSimWorkload(const Options& options);
bool IsSimWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
