#include "hashring/migration.h"

#include <set>

namespace hotman::hashring {

namespace {

/// Primary owner of the arc beginning at `point` under `ring` (the node of
/// the first virtual point strictly greater than `point`, wrapping).
const NodeId* OwnerAt(const Ring& ring, std::uint32_t point) {
  const auto& points = ring.points();
  if (points.empty()) return nullptr;
  auto it = points.upper_bound(point);
  if (it == points.end()) it = points.begin();
  return &it->second;
}

std::uint64_t ArcLength(std::uint32_t start, std::uint32_t end) {
  if (start == end) return std::uint64_t{1} << 32;  // whole ring
  if (start < end) return end - start;
  return (std::uint64_t{1} << 32) - start + end;
}

/// The elementary-arc walk every planner shares: calls `emit(start, end)`
/// for every arc delimited by the union of both rings' virtual points
/// (including the wrapping arc).
template <typename Emit>
void ForEachElementaryArc(const Ring& before, const Ring& after, Emit emit) {
  std::set<std::uint32_t> cuts;
  for (const auto& [p, node] : before.points()) cuts.insert(p);
  for (const auto& [p, node] : after.points()) cuts.insert(p);
  if (cuts.empty()) return;

  auto it = cuts.begin();
  std::uint32_t first = *it;
  std::uint32_t prev = first;
  for (++it; it != cuts.end(); ++it) {
    emit(prev, *it);
    prev = *it;
  }
  if (cuts.size() == 1) {
    emit(first, first);  // single point: whole ring
  } else {
    emit(prev, first);
  }
}

/// Appends {range, source, target}, merging with the previous step when the
/// arcs are adjacent and the endpoints match.
void AppendStep(std::vector<ReplicaMigrationStep>* steps, Range range,
                const NodeId& source, const NodeId& target) {
  for (ReplicaMigrationStep& prior : *steps) {
    if (prior.source == source && prior.target == target &&
        prior.range.end == range.start) {
      prior.range.end = range.end;
      return;
    }
  }
  steps->push_back(ReplicaMigrationStep{range, source, target});
}

}  // namespace

std::vector<MigrationStep> PlanMigration(const Ring& before, const Ring& after) {
  std::vector<MigrationStep> steps;
  if (before.points().empty() || after.points().empty()) return steps;
  ForEachElementaryArc(before, after, [&](std::uint32_t start, std::uint32_t end) {
    // Owner is constant on [start, end); sample at `start`.
    const NodeId* from = OwnerAt(before, start);
    const NodeId* to = OwnerAt(after, start);
    if (from == nullptr || to == nullptr || *from == *to) return;
    steps.push_back(MigrationStep{Range{start, end}, *from, *to});
  });
  return steps;
}

std::vector<ReplicaMigrationStep> PlanReplicaMigration(const Ring& before,
                                                       const Ring& after,
                                                       std::size_t replication) {
  std::vector<ReplicaMigrationStep> steps;
  if (before.points().empty() || after.points().empty()) return steps;

  ForEachElementaryArc(
      before, after, [&](std::uint32_t start, std::uint32_t end) {
        // Preference lists are constant on [start, end); sample at `start`
        // (PreferenceListForPoint walks from the first point strictly
        // greater, the same convention as key ownership).
        const std::vector<NodeId> before_prefs =
            before.PreferenceListForPoint(start, replication);
        if (before_prefs.empty()) return;
        const std::vector<NodeId> after_prefs =
            after.PreferenceListForPoint(start, replication);
        for (const NodeId& target : after_prefs) {
          bool had = false;
          for (const NodeId& member : before_prefs) {
            if (member == target) had = true;
          }
          if (had) continue;
          // Deterministic streamer: the first before-member that survives
          // into the after ring (on a join every before-member survives; on
          // a removal the departed node is skipped). Falls back to the old
          // primary so a plan is still emitted for replication == 1.
          const NodeId* source = nullptr;
          for (const NodeId& member : before_prefs) {
            if (member != target && after.HasNode(member)) {
              source = &member;
              break;
            }
          }
          if (source == nullptr && before_prefs.front() != target) {
            source = &before_prefs.front();
          }
          if (source == nullptr) continue;
          AppendStep(&steps, Range{start, end}, *source, target);
        }
      });
  return steps;
}

std::vector<ReplicaMigrationStep> PlanDecommission(const Ring& ring,
                                                   const NodeId& leaving,
                                                   std::size_t replication) {
  std::vector<ReplicaMigrationStep> steps;
  if (!ring.HasNode(leaving) || ring.NumPhysicalNodes() < 2) return steps;
  Ring after = ring;
  (void)after.RemoveNode(leaving);

  ForEachElementaryArc(ring, after, [&](std::uint32_t start, std::uint32_t end) {
    const std::vector<NodeId> before_prefs =
        ring.PreferenceListForPoint(start, replication);
    bool held = false;
    for (const NodeId& member : before_prefs) {
      if (member == leaving) held = true;
    }
    if (!held) return;
    const std::vector<NodeId> after_prefs =
        after.PreferenceListForPoint(start, replication);
    for (const NodeId& target : after_prefs) {
      bool had = false;
      for (const NodeId& member : before_prefs) {
        if (member == target) had = true;
      }
      if (!had) AppendStep(&steps, Range{start, end}, leaving, target);
    }
  });
  return steps;
}

double MigratedFraction(const std::vector<MigrationStep>& steps) {
  std::uint64_t covered = 0;
  for (const MigrationStep& s : steps) covered += ArcLength(s.range.start, s.range.end);
  return static_cast<double>(covered) / static_cast<double>(std::uint64_t{1} << 32);
}

}  // namespace hotman::hashring
