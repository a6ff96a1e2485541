#include "cluster/hinted_handoff.h"

#include "core/record.h"

namespace hotman::cluster {

void HintStore::Add(std::uint64_t id, const std::string& target,
                    bson::Document record, std::int64_t now) {
  hints_.emplace(id, Hint{id, target, std::move(record), now});
  ++total_added_;
}

std::vector<Hint> HintStore::ForTarget(const std::string& target) const {
  std::vector<Hint> out;
  for (const auto& [id, hint] : hints_) {
    if (hint.target == target) out.push_back(hint);
  }
  return out;
}

std::vector<std::string> HintStore::Targets() const {
  std::vector<std::string> out;
  for (const auto& [id, hint] : hints_) {
    bool seen = false;
    for (const std::string& t : out) {
      if (t == hint.target) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(hint.target);
  }
  return out;
}

bool HintStore::Remove(std::uint64_t id) {
  if (hints_.erase(id) == 0) return false;
  ++total_delivered_;
  return true;
}

const Hint* HintStore::Find(std::uint64_t id) const {
  auto it = hints_.find(id);
  return it == hints_.end() ? nullptr : &it->second;
}

bool HintStore::HasHintForKey(const std::string& self_key) const {
  for (const auto& [id, hint] : hints_) {
    if (core::RecordSelfKey(hint.record) == self_key) return true;
  }
  return false;
}

}  // namespace hotman::cluster
