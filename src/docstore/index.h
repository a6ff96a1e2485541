#ifndef HOTMAN_DOCSTORE_INDEX_H_
#define HOTMAN_DOCSTORE_INDEX_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bson/document.h"
#include "common/status.h"
#include "query/matcher.h"

namespace hotman::docstore {

/// Orders bson::Value by the canonical BSON comparison.
struct ValueLess {
  bool operator()(const bson::Value& a, const bson::Value& b) const {
    return a.Compare(b) < 0;
  }
};

/// Specification of a secondary index over one dotted field path.
struct IndexSpec {
  std::string path;
  bool unique = false;

  /// Index name, "path_1" MongoDB style.
  std::string Name() const { return path + "_1"; }
};

/// An ordered secondary index: maps indexed field value -> set of `_id`s.
///
/// Array fields are multi-key indexed (one entry per element), as in
/// MongoDB. Documents missing the field are indexed under null so that
/// `{field: null}` queries can use the index.
///
/// A unique index also keeps a hash table from each string key to the
/// stored document, so an exact string lookup (FindUnique) needs no tree
/// walk and no `_id` hop. Its entries point at the `doc` passed to Insert,
/// so that must be the collection's stored document, alive and in place
/// until Remove is called with it.
class SecondaryIndex {
 public:
  explicit SecondaryIndex(IndexSpec spec);

  const IndexSpec& spec() const { return spec_; }

  /// Adds `doc`'s entries. Fails with AlreadyExists on a unique violation
  /// (in which case nothing is inserted).
  Status Insert(const bson::Value& id, const bson::Document& doc);

  /// Removes `doc`'s entries (doc must be the previously inserted state).
  void Remove(const bson::Value& id, const bson::Document& doc);

  /// Unique indexes only: the stored document whose indexed value is the
  /// string `key`, or nullptr.
  const bson::Document* FindUnique(const std::string& key) const;

  /// All ids whose indexed value equals `key`.
  std::vector<bson::Value> Lookup(const bson::Value& key) const;

  /// All ids with indexed value inside the (possibly half-unbounded) range.
  std::vector<bson::Value> RangeLookup(const query::FieldBounds& bounds) const;

  std::size_t NumEntries() const { return entries_.size(); }

 private:
  /// Keys this index extracts from `doc` (multi-key for arrays; null when
  /// the field is missing).
  std::vector<bson::Value> ExtractKeys(const bson::Document& doc) const;

  IndexSpec spec_;
  std::multimap<bson::Value, bson::Value, ValueLess> entries_;
  std::unordered_map<std::string, const bson::Document*> by_string_;
};

}  // namespace hotman::docstore

#endif  // HOTMAN_DOCSTORE_INDEX_H_
