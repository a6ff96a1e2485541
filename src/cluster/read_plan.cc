#include "cluster/read_plan.h"

#include "core/record.h"

namespace hotman::cluster {

namespace {

/// The LWW maximum over the ok, found replies (first sender on a tie), and
/// in `ok` how many replies succeeded.
const bson::Document* LwwWinner(const ReadReplies& replies, int* ok) {
  const bson::Document* winner = nullptr;
  for (const auto& [from, reply] : replies) {
    if (!reply.ok) continue;
    ++*ok;
    if (reply.found &&
        (winner == nullptr || core::SupersedesLww(reply.record, *winner))) {
      winner = &reply.record;
    }
  }
  return winner;
}

const ReadReply* ReplyOf(const ReadPlan& plan, const ReadReplies& replies,
                         int target) {
  auto it = replies.find(plan.targets[static_cast<std::size_t>(target)]);
  return it == replies.end() ? nullptr : &it->second;
}

}  // namespace

ReadPlan PrimaryReadPlan(std::vector<std::string> preference, Micros budget) {
  ReadPlan plan;
  plan.targets = std::move(preference);
  if (plan.targets.size() > 1) plan.targets.resize(1);
  plan.payload = 0;
  plan.budget = budget;
  plan.on_failure = ReadPlan::OnFailure::kDemote;
  return plan;
}

ReadPlan HotReadPlan(const std::string& replica, const std::string& primary,
                     Micros budget) {
  ReadPlan plan;
  plan.targets = {replica, primary};
  plan.needed = 2;
  plan.payload = 0;
  plan.verifier = 1;
  plan.budget = budget;
  plan.on_failure = ReadPlan::OnFailure::kDemote;
  return plan;
}

ReadDecision DecideRead(const ReadPlan& plan, const ReadReplies& replies,
                        bool timed_out) {
  if (plan.demotes()) {
    for (const auto& [from, reply] : replies) {
      if (!reply.ok || !reply.found) return {ReadVerdict::kDemote};
    }
    if (timed_out) return {ReadVerdict::kDemote};
    if (static_cast<int>(replies.size()) < plan.needed) return {ReadVerdict::kWait};
    const ReadReply* payload = ReplyOf(plan, replies, plan.payload);
    if (payload == nullptr) return {ReadVerdict::kWait};
    if (plan.verified()) {
      const ReadReply* digest = ReplyOf(plan, replies, plan.verifier);
      if (digest == nullptr) return {ReadVerdict::kWait};
      if (core::RecordVersion(payload->record) !=
          core::Version{digest->digest_ts, digest->digest_origin}) {
        return {ReadVerdict::kDemote};
      }
    }
    return {ReadVerdict::kServe, &payload->record};
  }
  int ok = 0;
  const bson::Document* winner = LwwWinner(replies, &ok);
  if (winner != nullptr && ok >= plan.needed) return {ReadVerdict::kServe, winner};
  const bool all_replied = replies.size() == plan.targets.size();
  if (!all_replied && !timed_out) return {ReadVerdict::kWait};
  if (ok >= plan.needed) return {ReadVerdict::kMiss};
  return {all_replied ? ReadVerdict::kUnavailable : ReadVerdict::kTimeout};
}

ReadRepair PlanReadRepair(const ReadPlan& plan, const ReadReplies& replies) {
  ReadRepair repair;
  if (plan.demotes()) return repair;
  int ok = 0;
  repair.winner = LwwWinner(replies, &ok);
  if (repair.winner == nullptr) return repair;
  for (std::size_t i = 0; i < plan.targets.size(); ++i) {
    auto it = replies.find(plan.targets[i]);
    if (it == replies.end() || !it->second.ok || !it->second.found ||
        core::SupersedesLww(*repair.winner, it->second.record)) {
      repair.targets.push_back(i);
    }
  }
  return repair;
}

}  // namespace hotman::cluster
