#include "hashring/ring.h"

#include "hashring/ketama.h"

namespace hotman::hashring {

bool Range::Contains(std::uint32_t point) const {
  if (start == end) return true;  // whole ring
  if (start < end) return point >= start && point < end;
  // Wrapping arc.
  return point >= start || point < end;
}

Status Ring::AddNode(const NodeId& node, int vnodes) {
  if (vnodes < 1 || vnodes > kMaxVnodes) {
    return Status::InvalidArgument("vnodes must be in [1, kMaxVnodes]");
  }
  if (vnode_counts_.count(node) > 0) {
    return Status::AlreadyExists("node already on ring: " + node);
  }
  for (std::uint32_t p : VirtualPoints(node, vnodes)) {
    // Extremely rare point collisions are resolved by deterministic linear
    // probing so that ring contents depend only on the membership set.
    while (points_.count(p) > 0) ++p;
    points_.emplace(p, node);
  }
  vnode_counts_.emplace(node, vnodes);
  return Status::OK();
}

Status Ring::RemoveNode(const NodeId& node) {
  auto it = vnode_counts_.find(node);
  if (it == vnode_counts_.end()) {
    return Status::NotFound("node not on ring: " + node);
  }
  for (auto point_it = points_.begin(); point_it != points_.end();) {
    if (point_it->second == node) {
      point_it = points_.erase(point_it);
    } else {
      ++point_it;
    }
  }
  vnode_counts_.erase(it);
  return Status::OK();
}

bool Ring::HasNode(const NodeId& node) const { return vnode_counts_.count(node) > 0; }

std::uint32_t Ring::HashKey(std::string_view key) { return KetamaHash(key); }

Result<NodeId> Ring::PrimaryFor(std::string_view key) const {
  if (points_.empty()) return Status::NotFound("ring is empty");
  const std::uint32_t h = HashKey(key);
  auto it = points_.upper_bound(h);
  if (it == points_.end()) it = points_.begin();  // wrap to the ring's start
  return it->second;
}

std::vector<NodeId> Ring::PreferenceList(std::string_view key, std::size_t n) const {
  return PreferenceListForPoint(HashKey(key), n);
}

std::vector<NodeId> Ring::PreferenceListForPoint(std::uint32_t point,
                                                 std::size_t n) const {
  std::vector<NodeId> result;
  if (points_.empty() || n == 0) return result;
  result.reserve(std::min(n, vnode_counts_.size()));
  auto it = points_.upper_bound(point);
  for (std::size_t steps = 0; steps < points_.size(); ++steps) {
    if (it == points_.end()) it = points_.begin();
    const NodeId& candidate = it->second;
    bool seen = false;
    for (const NodeId& chosen : result) {
      if (chosen == candidate) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      result.push_back(candidate);
      if (result.size() == n) break;
    }
    ++it;
  }
  return result;
}

std::vector<Range> Ring::RangesOwnedBy(const NodeId& node) const {
  std::vector<Range> ranges;
  if (points_.empty() || vnode_counts_.count(node) == 0) return ranges;
  if (points_.size() == 1) {
    // A single virtual point owns the whole ring.
    ranges.push_back(Range{points_.begin()->first, points_.begin()->first});
    return ranges;
  }
  auto prev = std::prev(points_.end());
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    if (it->second == node) {
      ranges.push_back(Range{prev->first, it->first});
    }
    prev = it;
  }
  return ranges;
}

int Ring::VnodeCount(const NodeId& node) const {
  auto it = vnode_counts_.find(node);
  return it == vnode_counts_.end() ? 0 : it->second;
}

std::vector<NodeId> Ring::Nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(vnode_counts_.size());
  for (const auto& [id, count] : vnode_counts_) nodes.push_back(id);
  return nodes;
}

}  // namespace hotman::hashring
