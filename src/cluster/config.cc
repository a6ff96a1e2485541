#include "cluster/config.h"

#include <algorithm>
#include <cmath>

#include "hashring/ring.h"

namespace hotman::cluster {

int EffectiveVnodes(const NodeSpec& spec) {
  const double scaled = static_cast<double>(spec.vnodes) * spec.capacity;
  return std::max(1, static_cast<int>(std::lround(scaled)));
}

Status ClusterConfig::Validate() const {
  if (nodes.empty()) return Status::InvalidArgument("cluster needs >= 1 node");
  if (replication_factor < 1) {
    return Status::InvalidArgument("replication factor N must be >= 1");
  }
  if (write_quorum < 1 || write_quorum > replication_factor) {
    return Status::InvalidArgument("write quorum W must satisfy 1 <= W <= N");
  }
  if (read_quorum < 1 || read_quorum > replication_factor) {
    return Status::InvalidArgument("read quorum R must satisfy 1 <= R <= N");
  }
  if (shards < 1 || shards > 64) {
    return Status::InvalidArgument("shards per node must satisfy 1 <= shards <= 64");
  }
  bool has_seed = false;
  for (const NodeSpec& node : nodes) {
    if (node.address.empty()) return Status::InvalidArgument("empty node address");
    if (node.vnodes < 1) return Status::InvalidArgument("vnodes must be >= 1");
    if (!(node.capacity > 0.0)) {
      return Status::InvalidArgument("node capacity must be > 0");
    }
    // Ring::AddNode refuses more points, which Start() would not report.
    if (std::round(node.vnodes * node.capacity) > hashring::kMaxVnodes) {
      return Status::InvalidArgument("vnodes * capacity must be <= kMaxVnodes");
    }
    has_seed = has_seed || node.is_seed;
  }
  if (!has_seed && nodes.size() > 1) {
    return Status::InvalidArgument("multi-node cluster needs >= 1 seed node");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].address == nodes[j].address) {
        return Status::InvalidArgument("duplicate node address: " + nodes[i].address);
      }
    }
  }
  return Status::OK();
}

ClusterConfig ClusterConfig::Uniform(int count, int seeds, int vnodes) {
  ClusterConfig config;
  config.nodes.reserve(count);
  for (int i = 0; i < count; ++i) {
    NodeSpec spec;
    spec.address = "db" + std::to_string(i + 1) + ":19870";
    spec.vnodes = vnodes;
    spec.is_seed = i < seeds;
    config.nodes.push_back(std::move(spec));
  }
  return config;
}

}  // namespace hotman::cluster
