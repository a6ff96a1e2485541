#ifndef HOTMAN_GOSSIP_NODE_STATE_H_
#define HOTMAN_GOSSIP_NODE_STATE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"

namespace hotman::gossip {

/// Well-known application-state keys (the fields of the paper's gossip
/// message template "HostAddress@VirtualNode;bootGeneration:...;heartbeat:
/// ...;load:..."; no node measures its load, so none gossips one).
inline constexpr const char* kStateHeartbeat = "heartbeat";
inline constexpr const char* kStateVnodes = "vnodes";
inline constexpr const char* kStateStatus = "status";  // NORMAL / LEAVING / REMOVED

/// One gossiped key-value with its version: "each state is appended a
/// version number. The greater of version number means newer states."
struct VersionedEntry {
  std::string value;
  std::int64_t version = 0;
};

/// Everything one endpoint asserts about itself. `generation` increments on
/// every (re)boot; state entries carry per-endpoint monotone versions.
class EndpointState {
 public:
  EndpointState() = default;
  explicit EndpointState(std::int64_t generation) : generation_(generation) {}

  std::int64_t generation() const { return generation_; }
  void set_generation(std::int64_t g) { generation_ = g; }

  /// Highest version among entries (the digest's "maxVersion").
  std::int64_t MaxVersion() const;

  /// Sets `key` with an explicit version (merge path).
  void SetEntry(const std::string& key, std::string value, std::int64_t version);

  const VersionedEntry* GetEntry(const std::string& key) const;

  /// Entries with version strictly greater than `after` (delta shipping).
  std::vector<std::pair<std::string, VersionedEntry>> EntriesAfter(
      std::int64_t after) const;

  const std::map<std::string, VersionedEntry>& entries() const { return entries_; }

  /// Merges `other` into this endpoint's view: a newer generation replaces
  /// wholesale; the same generation takes the per-key max version. Returns
  /// true when anything changed.
  bool Merge(const EndpointState& other);

 private:
  std::int64_t generation_ = 0;
  std::map<std::string, VersionedEntry> entries_;
};

/// The local node's full view of the cluster: its own state plus what it
/// has heard about every other endpoint, with liveness bookkeeping.
class NodeStateMap {
 public:
  /// Endpoint state, creating an empty record when unknown.
  EndpointState* GetOrCreate(const std::string& endpoint);
  const EndpointState* Get(const std::string& endpoint) const;

  /// Endpoints currently known (including the local one).
  std::vector<std::string> Endpoints() const;

  /// Records that fresh information about `endpoint` arrived at `now`
  /// (feeds the failure detector).
  void TouchLiveness(const std::string& endpoint, Micros now);

  /// Last time fresh state for `endpoint` arrived, or nullopt if never.
  std::optional<Micros> LastHeard(const std::string& endpoint) const;

  const std::map<std::string, EndpointState>& states() const { return states_; }

 private:
  std::map<std::string, EndpointState> states_;
  std::map<std::string, Micros> last_heard_;
};

}  // namespace hotman::gossip

#endif  // HOTMAN_GOSSIP_NODE_STATE_H_
