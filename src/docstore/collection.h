#ifndef HOTMAN_DOCSTORE_COLLECTION_H_
#define HOTMAN_DOCSTORE_COLLECTION_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bson/document.h"
#include "bson/object_id.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "docstore/index.h"
#include "docstore/planner.h"

namespace hotman::docstore {

/// Options for Collection::Find.
struct FindOptions {
  std::optional<bson::Document> projection;
  std::optional<bson::Document> sort;
  std::int64_t skip = 0;
  std::int64_t limit = -1;  ///< -1 = unlimited
};

/// Options for Collection::Update.
struct UpdateOptions {
  bool multi = false;   ///< update every match instead of the first
  bool upsert = false;  ///< insert when nothing matches
};

/// Outcome of Collection::Update.
struct UpdateResult {
  std::size_t matched = 0;
  std::size_t modified = 0;
  std::optional<bson::Value> upserted_id;
};

/// Physical change notification (journal / replication hook).
struct ChangeEvent {
  enum class Kind { kPut, kRemove };
  Kind kind = Kind::kPut;
  std::string collection;
  bson::Document document;  ///< kPut: full new state; kRemove: {"_id": id}
};

using ChangeListener = std::function<void(const ChangeEvent&)>;

/// A collection of BSON documents with a primary `_id` index, optional
/// secondary indexes, and MongoDB-style CRUD. Thread-safe.
///
/// This is the engine the paper deploys per node ("MongoDB database is
/// responsible for data persistence") providing "complex query functions
/// like relational databases".
///
/// Reads (FindById/Find/ReadUnique/Count/Explain and the stats accessors) take mu_ in
/// shared mode and run concurrently; mutations take it exclusively. The
/// change listener only fires from mutation paths, so a shared holder can
/// never re-enter the journal (see DESIGN.md "Read-path concurrency").
class Collection {
 public:
  /// `id_generator` supplies `_id`s for inserts that lack one; it must
  /// outlive the collection (typically owned by the Database).
  Collection(std::string name, bson::ObjectIdGenerator* id_generator);

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  const std::string& name() const { return name_; }

  /// Inserts `doc`, generating `_id` when absent. Fails with AlreadyExists
  /// if the `_id` (or a unique index key) already exists. Returns the `_id`.
  Result<bson::Value> Insert(bson::Document doc) HOTMAN_EXCLUDES(mu_);

  /// Point lookup by `_id`.
  Result<bson::Document> FindById(const bson::Value& id) const
      HOTMAN_EXCLUDES(mu_);

  /// All documents matching `filter`, honouring projection/sort/skip/limit.
  Result<std::vector<bson::Document>> Find(const bson::Document& filter,
                                           const FindOptions& options = {}) const
      HOTMAN_EXCLUDES(mu_);

  /// First match, or nullopt.
  Result<std::optional<bson::Document>> FindOne(const bson::Document& filter) const;

  /// Point read by unique key: runs `read` on the document whose unique
  /// index on `path` holds the string `key`, under the shared lock, with no
  /// filter, plan or copy. NotFound when no document holds `key` or no
  /// unique index covers `path`. `read` must not call into the collection.
  Status ReadUnique(std::string_view path, const std::string& key,
                    const std::function<void(const bson::Document&)>& read) const
      HOTMAN_EXCLUDES(mu_);

  /// Applies `update` (operator or replacement form) to matching documents.
  Result<UpdateResult> Update(const bson::Document& filter,
                              const bson::Document& update,
                              const UpdateOptions& options = {}) HOTMAN_EXCLUDES(mu_);

  /// Removes matching documents; returns how many were removed.
  Result<std::size_t> Remove(const bson::Document& filter, bool multi = true)
      HOTMAN_EXCLUDES(mu_);

  /// Number of documents matching `filter` ({} = all).
  Result<std::size_t> Count(const bson::Document& filter) const
      HOTMAN_EXCLUDES(mu_);

  /// Builds a secondary index over `spec.path` (back-filling existing
  /// documents); fails if an index on the path exists or a unique
  /// constraint is violated by current data.
  Status CreateIndex(const IndexSpec& spec) HOTMAN_EXCLUDES(mu_);

  /// Drops the index on `path`; NotFound when absent.
  Status DropIndex(const std::string& path) HOTMAN_EXCLUDES(mu_);

  /// Access path the planner would choose for `filter` (for tests/examples).
  Result<QueryPlan> Explain(const bson::Document& filter) const
      HOTMAN_EXCLUDES(mu_);

  /// Physical upsert by `_id` used by replication, journal replay and the
  /// cluster layer: replaces the document wholesale (indexes maintained).
  Status PutDocument(bson::Document doc) HOTMAN_EXCLUDES(mu_);

  /// Physical delete by `_id`; OK even when absent (idempotent replay).
  Status RemoveById(const bson::Value& id) HOTMAN_EXCLUDES(mu_);

  /// Registers the journal/replication hook (single listener).
  void SetChangeListener(ChangeListener listener) HOTMAN_EXCLUDES(mu_);

  std::size_t NumDocuments() const HOTMAN_EXCLUDES(mu_);
  std::vector<IndexSpec> Indexes() const HOTMAN_EXCLUDES(mu_);

  /// Approximate total encoded size of all documents (bytes).
  std::size_t DataSizeBytes() const HOTMAN_EXCLUDES(mu_);

 private:
  /// Ids of candidate documents under `plan` (kFullScan -> all ids).
  std::vector<bson::Value> CandidatesLocked(const QueryPlan& plan) const
      HOTMAN_REQUIRES_SHARED(mu_);

  /// Specs of current secondary indexes; caller must hold mu_ (any mode).
  std::vector<IndexSpec> IndexSpecsLocked() const HOTMAN_REQUIRES_SHARED(mu_);

  Status InsertLocked(bson::Document doc, const bson::Value& id)
      HOTMAN_REQUIRES(mu_);
  Status RemoveDocLocked(const bson::Value& id) HOTMAN_REQUIRES(mu_);
  void NotifyPut(const bson::Document& doc) HOTMAN_REQUIRES(mu_);
  void NotifyRemove(const bson::Value& id) HOTMAN_REQUIRES(mu_);

  std::string name_;
  bson::ObjectIdGenerator* id_generator_;
  mutable SharedMutex mu_;
  std::map<bson::Value, bson::Document, ValueLess> docs_ HOTMAN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_ HOTMAN_GUARDED_BY(mu_);
  ChangeListener listener_ HOTMAN_GUARDED_BY(mu_);
  std::size_t data_bytes_ HOTMAN_GUARDED_BY(mu_) = 0;
};

}  // namespace hotman::docstore

#endif  // HOTMAN_DOCSTORE_COLLECTION_H_
