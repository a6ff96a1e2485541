#include "docstore/collection.h"

#include <algorithm>

#include "bson/codec.h"
#include "query/projection.h"
#include "query/sort.h"
#include "query/update.h"

namespace hotman::docstore {

Collection::Collection(std::string name, bson::ObjectIdGenerator* id_generator)
    : name_(std::move(name)), id_generator_(id_generator) {}

Result<bson::Value> Collection::Insert(bson::Document doc) {
  bson::Value id;
  if (const bson::Value* existing = doc.Get("_id"); existing != nullptr) {
    id = *existing;
  } else {
    id = bson::Value(id_generator_->Next());
    // _id leads the document, MongoDB style.
    bson::Document with_id;
    with_id.Append("_id", id);
    for (const bson::Field& f : doc) with_id.Append(f.name, f.value);
    doc = std::move(with_id);
  }
  WriterMutexLock lock(&mu_);
  HOTMAN_RETURN_IF_ERROR(InsertLocked(std::move(doc), id));
  return id;
}

Status Collection::InsertLocked(bson::Document doc, const bson::Value& id) {
  // Store before indexing: a unique index points at the stored document,
  // and docs_'s nodes never move.
  auto [it, inserted] = docs_.try_emplace(id, std::move(doc));
  if (!inserted) {
    return Status::AlreadyExists("duplicate _id in collection " + name_);
  }
  const bson::Document& stored = it->second;
  for (auto& index : indexes_) {
    Status s = index->Insert(id, stored);
    if (!s.ok()) {
      // Roll back entries added to earlier indexes.
      for (auto& prior : indexes_) {
        if (prior.get() == index.get()) break;
        prior->Remove(id, stored);
      }
      docs_.erase(it);
      return s;
    }
  }
  data_bytes_ += bson::EncodedSize(stored);
  NotifyPut(stored);
  return Status::OK();
}

Result<bson::Document> Collection::FindById(const bson::Value& id) const {
  // Shared lock: point reads run concurrently. The returned copy is cheap —
  // bson::Binary payloads are shared_ptr-backed, so copying a document is
  // O(fields), not O(payload bytes).
  ReaderMutexLock lock(&mu_);
  auto it = docs_.find(id);
  if (it == docs_.end()) return Status::NotFound("no document with given _id");
  return it->second;
}

std::vector<bson::Value> Collection::CandidatesLocked(const QueryPlan& plan) const {
  std::vector<bson::Value> ids;
  switch (plan.kind) {
    case QueryPlan::Kind::kPrimaryLookup:
      if (plan.bounds.eq.has_value() && docs_.count(*plan.bounds.eq) > 0) {
        ids.reserve(1);
        ids.push_back(*plan.bounds.eq);
      }
      return ids;
    case QueryPlan::Kind::kIndexScan:
      for (const auto& index : indexes_) {
        if (index->spec().path == plan.index_path) {
          return index->RangeLookup(plan.bounds);
        }
      }
      [[fallthrough]];  // index vanished (shouldn't happen under the lock)
    case QueryPlan::Kind::kFullScan:
      ids.reserve(docs_.size());
      for (const auto& [id, doc] : docs_) ids.push_back(id);
      return ids;
  }
  return ids;
}

Result<std::vector<bson::Document>> Collection::Find(const bson::Document& filter,
                                                     const FindOptions& options) const {
  auto matcher = query::Matcher::Compile(filter);
  if (!matcher.ok()) return matcher.status();

  std::optional<query::Projection> projection;
  if (options.projection.has_value()) {
    auto compiled = query::Projection::Compile(*options.projection);
    if (!compiled.ok()) return compiled.status();
    projection = std::move(*compiled);
  }
  std::optional<query::SortSpec> sort;
  if (options.sort.has_value()) {
    auto compiled = query::SortSpec::Compile(*options.sort);
    if (!compiled.ok()) return compiled.status();
    if (!compiled->empty()) sort = std::move(*compiled);
  }

  std::vector<bson::Document> results;
  // Without a sort, skip/limit apply in candidate order, so the window can
  // be enforced during the scan: filtered-out and skipped documents are
  // never copied, and a limit stops the scan early. With a sort every match
  // must be materialized first and the window applied after ordering.
  const bool window_in_scan = !sort.has_value();
  {
    ReaderMutexLock lock(&mu_);
    const QueryPlan plan = ChoosePlan(*matcher, IndexSpecsLocked());
    const std::vector<bson::Value> candidates = CandidatesLocked(plan);
    std::int64_t to_skip = window_in_scan ? options.skip : 0;
    std::size_t cap = candidates.size();
    if (window_in_scan && options.limit >= 0) {
      cap = std::min(cap, static_cast<std::size_t>(options.limit));
    }
    results.reserve(cap);
    for (const bson::Value& id : candidates) {
      auto it = docs_.find(id);
      if (it == docs_.end()) continue;
      if (!matcher->Matches(it->second)) continue;
      if (window_in_scan) {
        if (to_skip > 0) {
          --to_skip;
          continue;
        }
        if (options.limit >= 0 &&
            results.size() >= static_cast<std::size_t>(options.limit)) {
          break;
        }
      }
      results.push_back(it->second);
    }
  }

  if (sort.has_value()) {
    std::stable_sort(results.begin(), results.end(),
                     [&sort](const bson::Document& a, const bson::Document& b) {
                       return sort->Less(a, b);
                     });
    if (options.skip > 0) {
      if (static_cast<std::size_t>(options.skip) >= results.size()) {
        results.clear();
      } else {
        results.erase(results.begin(), results.begin() + options.skip);
      }
    }
    if (options.limit >= 0 &&
        results.size() > static_cast<std::size_t>(options.limit)) {
      results.resize(options.limit);
    }
  }
  if (projection.has_value()) {
    for (bson::Document& doc : results) doc = projection->Apply(doc);
  }
  return results;
}

Result<std::optional<bson::Document>> Collection::FindOne(
    const bson::Document& filter) const {
  FindOptions options;
  options.limit = 1;
  auto results = Find(filter, options);
  if (!results.ok()) return results.status();
  if (results->empty()) return std::optional<bson::Document>{};
  return std::optional<bson::Document>{std::move(results->front())};
}

Status Collection::ReadUnique(
    std::string_view path, const std::string& key,
    const std::function<void(const bson::Document&)>& read) const {
  ReaderMutexLock lock(&mu_);
  for (const auto& index : indexes_) {
    if (index->spec().path != path) continue;
    const bson::Document* doc = index->FindUnique(key);
    if (doc == nullptr) break;
    read(*doc);
    return Status::OK();
  }
  return Status::NotFound("no document with given unique key");
}

Result<UpdateResult> Collection::Update(const bson::Document& filter,
                                        const bson::Document& update,
                                        const UpdateOptions& options) {
  auto matcher = query::Matcher::Compile(filter);
  if (!matcher.ok()) return matcher.status();

  UpdateResult result;
  WriterMutexLock lock(&mu_);
  const QueryPlan plan = ChoosePlan(*matcher, IndexSpecsLocked());
  std::vector<bson::Value> matched_ids;
  for (const bson::Value& id : CandidatesLocked(plan)) {
    auto it = docs_.find(id);
    if (it == docs_.end() || !matcher->Matches(it->second)) continue;
    matched_ids.push_back(id);
    if (!options.multi) break;
  }

  if (matched_ids.empty()) {
    if (!options.upsert) return result;
    // Upsert: seed the new document from equality constraints, then apply.
    bson::Document seed;
    for (const std::string& path : matcher->ConstrainedPaths()) {
      query::FieldBounds b = matcher->BoundsFor(path);
      if (b.eq.has_value() && path.find('.') == std::string::npos) {
        seed.Set(path, *b.eq);
      }
    }
    HOTMAN_RETURN_IF_ERROR(query::ApplyUpdate(update, &seed));
    bson::Value id;
    if (const bson::Value* existing = seed.Get("_id"); existing != nullptr) {
      id = *existing;
    } else {
      id = bson::Value(id_generator_->Next());
      bson::Document with_id;
      with_id.Append("_id", id);
      for (const bson::Field& f : seed) with_id.Append(f.name, f.value);
      seed = std::move(with_id);
    }
    HOTMAN_RETURN_IF_ERROR(InsertLocked(std::move(seed), id));
    result.upserted_id = id;
    return result;
  }

  for (const bson::Value& id : matched_ids) {
    auto it = docs_.find(id);
    bson::Document updated = it->second;
    HOTMAN_RETURN_IF_ERROR(query::ApplyUpdate(update, &updated));
    ++result.matched;
    if (updated == it->second) continue;  // no-op update
    // Re-index: remove old entries, swap the new state in, add its entries
    // (indexes point at the stored document, never at a temporary).
    for (auto& index : indexes_) index->Remove(id, it->second);
    std::swap(it->second, updated);  // `updated` now holds the old state
    Status index_status;
    for (auto& index : indexes_) {
      index_status = index->Insert(id, it->second);
      if (!index_status.ok()) break;
    }
    if (!index_status.ok()) {
      // Restore the old state and its entries, and fail.
      for (auto& index : indexes_) index->Remove(id, it->second);
      std::swap(it->second, updated);
      for (auto& index : indexes_) index->Insert(id, it->second).ok();
      return index_status;
    }
    data_bytes_ += bson::EncodedSize(it->second);
    data_bytes_ -= bson::EncodedSize(updated);
    NotifyPut(it->second);
    ++result.modified;
  }
  return result;
}

Result<std::size_t> Collection::Remove(const bson::Document& filter, bool multi) {
  auto matcher = query::Matcher::Compile(filter);
  if (!matcher.ok()) return matcher.status();

  WriterMutexLock lock(&mu_);
  const QueryPlan plan = ChoosePlan(*matcher, IndexSpecsLocked());
  std::vector<bson::Value> doomed;
  for (const bson::Value& id : CandidatesLocked(plan)) {
    auto it = docs_.find(id);
    if (it == docs_.end() || !matcher->Matches(it->second)) continue;
    doomed.push_back(id);
    if (!multi) break;
  }
  for (const bson::Value& id : doomed) {
    HOTMAN_RETURN_IF_ERROR(RemoveDocLocked(id));
  }
  return doomed.size();
}

Status Collection::RemoveDocLocked(const bson::Value& id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return Status::OK();
  for (auto& index : indexes_) index->Remove(id, it->second);
  data_bytes_ -= bson::EncodedSize(it->second);
  docs_.erase(it);
  NotifyRemove(id);
  return Status::OK();
}

Result<std::size_t> Collection::Count(const bson::Document& filter) const {
  if (filter.empty()) {
    ReaderMutexLock lock(&mu_);
    return docs_.size();
  }
  auto results = Find(filter);
  if (!results.ok()) return results.status();
  return results->size();
}

Status Collection::CreateIndex(const IndexSpec& spec) {
  if (spec.path.empty() || spec.path == "_id") {
    return Status::InvalidArgument("cannot create index on _id (already primary)");
  }
  WriterMutexLock lock(&mu_);
  for (const auto& index : indexes_) {
    if (index->spec().path == spec.path) {
      return Status::AlreadyExists("index exists on path: " + spec.path);
    }
  }
  auto index = std::make_unique<SecondaryIndex>(spec);
  for (const auto& [id, doc] : docs_) {
    HOTMAN_RETURN_IF_ERROR(index->Insert(id, doc));
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Status Collection::DropIndex(const std::string& path) {
  WriterMutexLock lock(&mu_);
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if ((*it)->spec().path == path) {
      indexes_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no index on path: " + path);
}

Result<QueryPlan> Collection::Explain(const bson::Document& filter) const {
  auto matcher = query::Matcher::Compile(filter);
  if (!matcher.ok()) return matcher.status();
  ReaderMutexLock lock(&mu_);
  return ChoosePlan(*matcher, IndexSpecsLocked());
}

Status Collection::PutDocument(bson::Document doc) {
  const bson::Value* id = doc.Get("_id");
  if (id == nullptr) return Status::InvalidArgument("PutDocument requires _id");
  const bson::Value id_copy = *id;
  WriterMutexLock lock(&mu_);
  auto it = docs_.find(id_copy);
  if (it != docs_.end()) {
    for (auto& index : indexes_) index->Remove(id_copy, it->second);
    data_bytes_ -= bson::EncodedSize(it->second);
    docs_.erase(it);
  }
  return InsertLocked(std::move(doc), id_copy);
}

Status Collection::RemoveById(const bson::Value& id) {
  WriterMutexLock lock(&mu_);
  return RemoveDocLocked(id);
}

void Collection::SetChangeListener(ChangeListener listener) {
  WriterMutexLock lock(&mu_);
  listener_ = std::move(listener);
}

void Collection::NotifyPut(const bson::Document& doc) {
  if (!listener_) return;
  ChangeEvent event;
  event.kind = ChangeEvent::Kind::kPut;
  event.collection = name_;
  event.document = doc;
  listener_(event);
}

void Collection::NotifyRemove(const bson::Value& id) {
  if (!listener_) return;
  ChangeEvent event;
  event.kind = ChangeEvent::Kind::kRemove;
  event.collection = name_;
  event.document.Append("_id", id);
  listener_(event);
}

std::size_t Collection::NumDocuments() const {
  ReaderMutexLock lock(&mu_);
  return docs_.size();
}

std::vector<IndexSpec> Collection::Indexes() const {
  ReaderMutexLock lock(&mu_);
  return IndexSpecsLocked();
}

std::vector<IndexSpec> Collection::IndexSpecsLocked() const {
  std::vector<IndexSpec> specs;
  specs.reserve(indexes_.size());
  for (const auto& index : indexes_) specs.push_back(index->spec());
  return specs;
}

std::size_t Collection::DataSizeBytes() const {
  ReaderMutexLock lock(&mu_);
  return data_bytes_;
}

}  // namespace hotman::docstore
