#include "cluster/replica_store.h"

#include <optional>

namespace hotman::cluster {

ReplicaStore::ReplicaStore(docstore::Database* db, std::string collection)
    : collection_(db->GetCollection(collection)) {}

Status ReplicaStore::Init() {
  docstore::IndexSpec spec;
  spec.path = core::kFieldSelfKey;
  spec.unique = true;
  Status s = collection_->CreateIndex(spec);
  if (s.IsAlreadyExists()) return Status::OK();
  return s;
}

Result<bool> ReplicaStore::Apply(const bson::Document& record) {
  HOTMAN_RETURN_IF_ERROR(core::ValidateRecord(record));
  std::optional<bson::Value> superseded_id;
  Status held = collection_->ReadUnique(
      core::kFieldSelfKey, core::RecordSelfKey(record),
      [&record, &superseded_id](const bson::Document& current) {
        if (core::SupersedesLww(record, current)) {
          superseded_id = *current.Get(core::kFieldId);
        }
      });
  if (held.ok()) {
    if (!superseded_id.has_value()) return false;  // stored version wins
    // Replace: the superseding record carries its own _id.
    HOTMAN_RETURN_IF_ERROR(collection_->RemoveById(*superseded_id));
  }
  HOTMAN_RETURN_IF_ERROR(collection_->PutDocument(record));
  return true;
}

Result<bson::Document> ReplicaStore::GetByKey(const std::string& self_key) const {
  bson::Document record;
  HOTMAN_RETURN_IF_ERROR(collection_->ReadUnique(
      core::kFieldSelfKey, self_key,
      [&record](const bson::Document& stored) { record = stored; }));
  return record;
}

Result<StoredVersion> ReplicaStore::VersionOf(const std::string& self_key) const {
  StoredVersion version;
  HOTMAN_RETURN_IF_ERROR(collection_->ReadUnique(
      core::kFieldSelfKey, self_key, [&version](const bson::Document& stored) {
        const core::Version held = core::RecordVersion(stored);
        version = StoredVersion{held.ts, std::string(held.origin)};
      }));
  return version;
}

Result<std::vector<bson::Document>> ReplicaStore::AllRecords() const {
  return collection_->Find(bson::Document{});
}

Result<std::size_t> ReplicaStore::NumLiveRecords() const {
  bson::Document filter;
  filter.Append(core::kFieldIsDel, bson::Value("0"));
  return collection_->Count(filter);
}

std::size_t ReplicaStore::NumRecords() const { return collection_->NumDocuments(); }

Status ReplicaStore::Purge(const std::string& self_key) {
  bson::Value id;
  Status held = collection_->ReadUnique(
      core::kFieldSelfKey, self_key,
      [&id](const bson::Document& stored) { id = *stored.Get(core::kFieldId); });
  if (held.IsNotFound()) return Status::OK();  // idempotent
  return collection_->RemoveById(id);
}

}  // namespace hotman::cluster
