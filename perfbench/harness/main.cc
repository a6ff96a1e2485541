// perfbench_harness: runs one perfbench workload once and prints its raw
// measurements. Normally started by perfbench/run.py, which builds it, passes
// the daemon binary and turns the raw line into the benchmark's metrics:
//
//   perfbench_harness --workload tcp_read_mostly --seed 1 --seconds 10
//                     --trace 0 --hotmand PATH [--log-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 [--hotmand PATH] [--log-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--hotmand") {
      options.hotmand = value;
    } else if (flag == "--log-dir") {
      options.log_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) {
    Usage();
    return 2;
  }
  if (perfbench::IsTcpWorkload(options.workload)) {
    if (options.hotmand.empty()) {
      Usage();
      return 2;
    }
    return perfbench::RunTcpWorkload(options);
  }
  if (perfbench::IsSimWorkload(options.workload)) {
    return perfbench::RunSimWorkload(options);
  }
  std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
               options.workload.c_str());
  return 2;
}
