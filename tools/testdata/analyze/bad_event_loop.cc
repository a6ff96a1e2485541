// Fixture: sim-layer file breaking event-loop discipline every way a line
// can. Copied by hotman_analyze_test.py into a scratch tree as
// src/sim/<this file>; never compiled.
#include <mutex>
#include <thread>

#include "common/mutex.h"
#include "workload/runner.h"

namespace hotman::sim {

void Broken() {
  std::mutex mu;                      // no-mutex
  std::thread worker([] {});          // no-thread
  worker.detach();                    // no-detach
  sleep(1);                           // no-sleep
  std::FILE* f = fopen("x", "rb");    // no-blocking-io
  auto now = std::chrono::steady_clock::now();  // no-wall-clock
  auto* leak = new int(7);            // naked-new
  std::condition_variable cv;         // no-blocking-sync
}

#define SPAWN() std::thread([] {}).detach()  // no-thread, no-detach

}  // namespace hotman::sim
