#include "docstore/index.h"

#include "query/path.h"

namespace hotman::docstore {

SecondaryIndex::SecondaryIndex(IndexSpec spec) : spec_(std::move(spec)) {}

std::vector<bson::Value> SecondaryIndex::ExtractKeys(const bson::Document& doc) const {
  std::vector<const bson::Value*> found;
  query::ResolvePath(doc, spec_.path, &found);
  std::vector<bson::Value> keys;
  if (found.empty()) {
    keys.emplace_back();  // missing field indexes as null
    return keys;
  }
  for (const bson::Value* v : found) {
    if (v->is_array()) {
      // Multi-key: one entry per element; empty arrays index as null.
      if (v->as_array().empty()) {
        keys.emplace_back();
      } else {
        for (const bson::Value& elem : v->as_array()) keys.push_back(elem);
      }
    } else {
      keys.push_back(*v);
    }
  }
  return keys;
}

Status SecondaryIndex::Insert(const bson::Value& id, const bson::Document& doc) {
  std::vector<bson::Value> keys = ExtractKeys(doc);
  if (spec_.unique) {
    for (const bson::Value& key : keys) {
      auto [lo, hi] = entries_.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second != id) {
          return Status::AlreadyExists("duplicate key in unique index " +
                                       spec_.Name());
        }
      }
    }
  }
  for (const bson::Value& key : keys) {
    entries_.emplace(key, id);
    if (spec_.unique && key.is_string()) by_string_[key.as_string()] = &doc;
  }
  return Status::OK();
}

void SecondaryIndex::Remove(const bson::Value& id, const bson::Document& doc) {
  for (const bson::Value& key : ExtractKeys(doc)) {
    if (spec_.unique && key.is_string()) {
      // A failed re-index removes keys another document may hold.
      auto held = by_string_.find(key.as_string());
      if (held != by_string_.end() && held->second == &doc) by_string_.erase(held);
    }
    auto [lo, hi] = entries_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        entries_.erase(it);
        break;  // one entry per extracted key
      }
    }
  }
}

const bson::Document* SecondaryIndex::FindUnique(const std::string& key) const {
  auto it = by_string_.find(key);
  return it == by_string_.end() ? nullptr : it->second;
}

std::vector<bson::Value> SecondaryIndex::Lookup(const bson::Value& key) const {
  std::vector<bson::Value> ids;
  auto [lo, hi] = entries_.equal_range(key);
  for (auto it = lo; it != hi; ++it) ids.push_back(it->second);
  return ids;
}

std::vector<bson::Value> SecondaryIndex::RangeLookup(
    const query::FieldBounds& bounds) const {
  if (bounds.eq.has_value()) return Lookup(*bounds.eq);

  auto it = entries_.begin();
  auto end = entries_.end();
  if (bounds.lower.has_value()) {
    it = bounds.lower_inclusive ? entries_.lower_bound(*bounds.lower)
                                : entries_.upper_bound(*bounds.lower);
  }
  std::vector<bson::Value> ids;
  for (; it != end; ++it) {
    if (bounds.upper.has_value()) {
      const int c = it->first.Compare(*bounds.upper);
      if (c > 0 || (c == 0 && !bounds.upper_inclusive)) break;
    }
    // Range scans only apply within the operand's canonical type bracket
    // (BSON range queries do not cross type brackets).
    const bson::Value& probe = bounds.lower.has_value() ? *bounds.lower : *bounds.upper;
    if (it->first.CanonicalRank() != probe.CanonicalRank()) continue;
    ids.push_back(it->second);
  }
  return ids;
}

}  // namespace hotman::docstore
