#ifndef HOTMAN_CLUSTER_REPLICA_STORE_H_
#define HOTMAN_CLUSTER_REPLICA_STORE_H_

#include <string>
#include <vector>

#include "core/record.h"
#include "docstore/database.h"

namespace hotman::cluster {

/// A stored record's last-write-wins version, copied out of the store.
struct StoredVersion {
  Micros ts = 0;
  std::string origin;

  core::Version view() const { return core::Version{ts, origin}; }
};

/// The per-node record store: a docstore collection holding the paper's
/// record schema with a unique index on `self-key` and last-write-wins
/// upsert semantics. Every access by `self-key` is one hash probe
/// (docstore::Collection::ReadUnique).
class ReplicaStore {
 public:
  ReplicaStore(docstore::Database* db, std::string collection);

  /// Creates the self-key unique index (idempotent).
  Status Init();

  /// LWW upsert: applies `record` unless the stored version for the same
  /// self-key supersedes it. Returns true when the incoming record was
  /// applied, false when the existing version won.
  Result<bool> Apply(const bson::Document& record);

  /// Current record for `self_key` — including tombstones (callers decide
  /// whether a tombstone means NotFound).
  Result<bson::Document> GetByKey(const std::string& self_key) const;

  /// The (_ts, _origin) version of the record for `self_key`, tombstones
  /// included, without copying the record.
  Result<StoredVersion> VersionOf(const std::string& self_key) const;

  /// Snapshot of every record (used by rebalancing scans).
  Result<std::vector<bson::Document>> AllRecords() const;

  /// Records excluding tombstones.
  Result<std::size_t> NumLiveRecords() const;

  /// Total records including tombstones.
  std::size_t NumRecords() const;

  /// Physically removes `self_key` (maintenance/purge path; normal deletes
  /// are logical isDel=1 updates).
  Status Purge(const std::string& self_key);

  docstore::Collection* collection() { return collection_; }

 private:
  docstore::Collection* collection_;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_REPLICA_STORE_H_
