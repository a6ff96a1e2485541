// Timed calls into single layers' public functions, shaped like a workload's
// keys and values: each layer's isolated per-call cost, measured from the
// outside (no tracing inside the program).

#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ProbeShape {
  std::vector<std::string> ring_nodes;  ///< ring members (cluster addresses)
  int vnodes = 128;                     ///< virtual points per member
  int replicas = 3;                     ///< preference-list length
  std::vector<std::string> keys;        ///< the workload's keys
  std::size_t value_bytes = 1024;       ///< a representative value size
};

/// Median microseconds per call of every probed function, as a JSON object
/// keyed by per-layer metric name (net.encode_frame_us, net.decode_frame_us,
/// bson.encode_record_us, bson.decode_record_us, docstore.apply_us,
/// docstore.get_by_key_us, hashring.preference_list_us).
std::string RunLayerProbes(const ProbeShape& shape, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
