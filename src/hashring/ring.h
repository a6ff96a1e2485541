#ifndef HOTMAN_HASHRING_RING_H_
#define HOTMAN_HASHRING_RING_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hotman::hashring {

/// Identifier of a physical storage node ("host:port" style string).
using NodeId = std::string;

/// Most virtual points one node may hold on a ring: 512 times the default
/// of 128. A weight that arrives from outside (a client_join, a peer's
/// node_added or gossiped vnodes entry) is refused above it, before any
/// point is reserved.
inline constexpr int kMaxVnodes = 65536;

/// A half-open arc [start, end) of the 32-bit hash ring, walking clockwise.
/// Keys hash into the arc ending at a virtual point `end` and are owned by
/// that point (Eq. (1): the first node position strictly greater than the
/// key's position). When start == end the arc covers the whole ring.
struct Range {
  std::uint32_t start = 0;  ///< inclusive
  std::uint32_t end = 0;    ///< exclusive

  /// True when `point` lies inside this arc (clockwise, wrap-aware).
  bool Contains(std::uint32_t point) const;

  friend bool operator==(const Range& a, const Range& b) {
    return a.start == b.start && a.end == b.end;
  }
};

/// The consistent-hash ring with the paper's revised virtual-node method.
///
/// Each physical node contributes `vnodes` points on the 32-bit ring (more
/// powerful node => more virtual nodes). A key is placed on the first
/// virtual point at or clockwise-after its hash (the paper's Eq. (1):
/// min n such that md5(n) > md5(X), wrapping at the top). Replica placement
/// walks further clockwise collecting *distinct physical* successors.
class Ring {
 public:
  /// Adds `node` with `vnodes` virtual points (1 <= vnodes <= kMaxVnodes).
  /// Fails with AlreadyExists if present.
  Status AddNode(const NodeId& node, int vnodes);

  /// Removes `node` and all its virtual points; NotFound if absent.
  Status RemoveNode(const NodeId& node);

  bool HasNode(const NodeId& node) const;

  /// Hash used for key placement (Ketama / MD5-low-word).
  static std::uint32_t HashKey(std::string_view key);

  /// The physical node owning `key`, or NotFound on an empty ring.
  Result<NodeId> PrimaryFor(std::string_view key) const;

  /// Up to `n` distinct physical nodes, starting at the key's primary and
  /// walking clockwise — the replica preference list. Fewer are returned if
  /// the ring has fewer than `n` physical nodes.
  std::vector<NodeId> PreferenceList(std::string_view key, std::size_t n) const;

  /// Same as PreferenceList but starting from a precomputed ring point.
  std::vector<NodeId> PreferenceListForPoint(std::uint32_t point, std::size_t n) const;

  /// Arcs of the ring whose primary owner is `node` (one per virtual point,
  /// unmerged). Empty when the node is absent.
  std::vector<Range> RangesOwnedBy(const NodeId& node) const;

  std::size_t NumPhysicalNodes() const { return vnode_counts_.size(); }
  std::size_t NumVirtualNodes() const { return points_.size(); }

  /// Virtual-point count configured for `node` (0 when absent).
  int VnodeCount(const NodeId& node) const;

  /// All physical node ids, sorted.
  std::vector<NodeId> Nodes() const;

  /// The raw point map (ring position -> owning physical node).
  const std::map<std::uint32_t, NodeId>& points() const { return points_; }

 private:
  std::map<std::uint32_t, NodeId> points_;
  std::map<NodeId, int> vnode_counts_;
};

}  // namespace hotman::hashring

#endif  // HOTMAN_HASHRING_RING_H_
