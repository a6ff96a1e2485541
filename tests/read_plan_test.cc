// The read decision table, without the simulator: DecideRead over each plan
// shape (primary fast read, hot read, R-quorum read) and the read-repair
// list derived from the same replies. One row per rule; a served row also
// checks the winner points at the right sender's reply, not at a copy.

#include "cluster/read_plan.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/record.h"

namespace hotman::cluster {
namespace {

constexpr Micros kBudget = 800 * kMicrosPerMilli;

ReadReply Found(Micros ts, const char* origin) {
  ReadReply reply;
  reply.ok = true;
  reply.found = true;
  reply.record = core::MakeRecord(bson::ObjectId(), "k", ToBytes("v"),
                                  /*is_copy=*/false, /*deleted=*/false, ts,
                                  origin);
  return reply;
}

ReadReply NotFound() {
  ReadReply reply;
  reply.ok = true;
  return reply;
}

ReadReply Failed() { return ReadReply{}; }

ReadReply Digest(Micros ts, const char* origin) {
  ReadReply reply;
  reply.ok = true;
  reply.found = true;
  reply.digest_ts = ts;
  reply.digest_origin = origin;
  return reply;
}

ReadPlan NoneDeadQuorum(std::vector<std::string> preference, int r) {
  return QuorumReadPlan(std::move(preference), r, kBudget,
                        [](const std::string&) { return false; });
}

/// Primary "a" alone.
ReadPlan Fast() { return PrimaryReadPlan({"a", "b", "c"}, kBudget / 2); }
/// Payload from replica "b", digest from primary "a".
ReadPlan Hot() { return HotReadPlan("b", "a", kBudget / 2); }
/// N=3, R=2 over "a", "b", "c".
ReadPlan Quorum() { return NoneDeadQuorum({"a", "b", "c"}, 2); }

struct DecideRow {
  const char* name;
  ReadPlan plan;
  std::vector<std::pair<std::string, ReadReply>> replies;
  bool timed_out;
  ReadVerdict want;
  const char* served_from;  ///< kServe rows: whose record is the answer
};

std::vector<DecideRow> DecideTable() {
  return {
      // Demote plans: the primary fast read.
      {"fast: primary failed demotes", Fast(), {{"a", Failed()}}, false,
       ReadVerdict::kDemote, nullptr},
      {"fast: primary not found demotes", Fast(), {{"a", NotFound()}}, false,
       ReadVerdict::kDemote, nullptr},
      {"fast: timeout demotes", Fast(), {}, true, ReadVerdict::kDemote,
       nullptr},
      {"fast: primary found serves", Fast(), {{"a", Found(10, "n1")}}, false,
       ReadVerdict::kServe, "a"},
      {"fast: no reply yet waits", Fast(), {}, false, ReadVerdict::kWait,
       nullptr},
      // Demote plans: the hot read.
      {"hot: payload failed demotes", Hot(), {{"b", Failed()}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: payload not found demotes", Hot(),
       {{"a", Digest(10, "n1")}, {"b", NotFound()}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: digest failed demotes", Hot(), {{"a", Failed()}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: digest not found demotes", Hot(),
       {{"a", NotFound()}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: digest not found alone demotes", Hot(), {{"a", NotFound()}},
       false, ReadVerdict::kDemote, nullptr},
      {"hot: timeout with payload only demotes", Hot(),
       {{"b", Found(10, "n1")}}, true, ReadVerdict::kDemote, nullptr},
      {"hot: digest equals payload serves the replica", Hot(),
       {{"a", Digest(10, "n1")}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kServe, "b"},
      {"hot: digest timestamp differs demotes", Hot(),
       {{"a", Digest(11, "n1")}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: digest origin differs demotes", Hot(),
       {{"a", Digest(10, "n2")}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kDemote, nullptr},
      {"hot: payload only waits", Hot(), {{"b", Found(10, "n1")}}, false,
       ReadVerdict::kWait, nullptr},
      {"hot: digest only waits", Hot(), {{"a", Digest(10, "n1")}}, false,
       ReadVerdict::kWait, nullptr},
      // Conclude plans (R = 2 of a, b, c).
      {"quorum: newest of R found replies serves", Quorum(),
       {{"a", Found(10, "n1")}, {"b", Found(20, "n1")}}, false,
       ReadVerdict::kServe, "b"},
      {"quorum: found plus ok not-found meets R and serves", Quorum(),
       {{"a", NotFound()}, {"b", Found(10, "n1")}}, false, ReadVerdict::kServe,
       "b"},
      {"quorum: origin breaks a timestamp tie", Quorum(),
       {{"a", Found(10, "n2")}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kServe, "a"},
      {"quorum: equal version serves the first sender by name", Quorum(),
       {{"c", Found(10, "n1")}, {"b", Found(10, "n1")}}, false,
       ReadVerdict::kServe, "b"},
      {"quorum: timeout with a winner and R ok serves", Quorum(),
       {{"a", Found(10, "n1")}, {"b", NotFound()}}, true, ReadVerdict::kServe,
       "a"},
      {"quorum: winner below R waits", Quorum(), {{"a", Found(10, "n1")}},
       false, ReadVerdict::kWait, nullptr},
      {"quorum: failures below R with a target silent waits", Quorum(),
       {{"a", Failed()}, {"b", Failed()}}, false, ReadVerdict::kWait, nullptr},
      {"quorum: all replied, R ok not found is a miss", Quorum(),
       {{"a", NotFound()}, {"b", NotFound()}, {"c", Failed()}}, false,
       ReadVerdict::kMiss, nullptr},
      {"quorum: timeout, R ok not found, one silent is a miss", Quorum(),
       {{"a", NotFound()}, {"b", NotFound()}}, true, ReadVerdict::kMiss,
       nullptr},
      {"quorum: all replied below R is unavailable", Quorum(),
       {{"a", Failed()}, {"b", Failed()}, {"c", NotFound()}}, false,
       ReadVerdict::kUnavailable, nullptr},
      {"quorum: all replied with a winner below R is unavailable", Quorum(),
       {{"a", Found(10, "n1")}, {"b", Failed()}, {"c", Failed()}}, false,
       ReadVerdict::kUnavailable, nullptr},
      {"quorum: timeout below R is a timeout", Quorum(),
       {{"a", Found(10, "n1")}}, true, ReadVerdict::kTimeout, nullptr},
      {"quorum: timeout with no reply is a timeout", Quorum(), {}, true,
       ReadVerdict::kTimeout, nullptr},
  };
}

TEST(ReadPlanTest, DecisionTable) {
  for (const DecideRow& row : DecideTable()) {
    SCOPED_TRACE(row.name);
    const ReadReplies replies(row.replies.begin(), row.replies.end());
    const ReadDecision decision = DecideRead(row.plan, replies, row.timed_out);
    EXPECT_EQ(decision.verdict, row.want);
    if (row.want == ReadVerdict::kServe) {
      EXPECT_EQ(decision.winner, &replies.at(row.served_from).record);
    } else {
      EXPECT_EQ(decision.winner, nullptr);
    }
  }
}

struct RepairRow {
  const char* name;
  ReadPlan plan;
  std::vector<std::pair<std::string, ReadReply>> replies;
  const char* winner_from;  ///< null: nothing to push
  std::set<std::string> repaired;
};

std::vector<RepairRow> RepairTable() {
  const std::vector<std::string> five = {"a", "b", "c", "d", "e"};
  return {
      {"missing, failed, not found and older are repaired",
       NoneDeadQuorum(five, 2),
       {{"a", Found(20, "n1")},
        {"b", Found(10, "n1")},
        {"c", NotFound()},
        {"d", Failed()}},
       "a",
       {"b", "c", "d", "e"}},
      {"the winner's sender is never repaired", Quorum(),
       {{"a", Found(10, "n1")}, {"b", Found(20, "n1")}, {"c", Found(10, "n1")}},
       "b",
       {"a", "c"}},
      {"an equal version is not repaired", Quorum(),
       {{"a", Found(10, "n1")}, {"b", Found(10, "n1")}, {"c", NotFound()}},
       "a",
       {"c"}},
      {"no found reply pushes nothing", Quorum(),
       {{"a", NotFound()}, {"b", Failed()}},
       nullptr,
       {}},
      {"a demote plan never repairs", Hot(),
       {{"a", Digest(20, "n1")}, {"b", Found(10, "n1")}},
       nullptr,
       {}},
  };
}

TEST(ReadPlanTest, RepairList) {
  for (const RepairRow& row : RepairTable()) {
    SCOPED_TRACE(row.name);
    const ReadReplies replies(row.replies.begin(), row.replies.end());
    const ReadRepair repair = PlanReadRepair(row.plan, replies);
    if (row.winner_from == nullptr) {
      EXPECT_EQ(repair.winner, nullptr);
    } else {
      EXPECT_EQ(repair.winner, &replies.at(row.winner_from).record);
    }
    std::set<std::string> repaired;
    for (std::size_t index : repair.targets) {
      repaired.insert(row.plan.targets.at(index));
    }
    EXPECT_EQ(repaired, row.repaired);
  }
}

TEST(ReadPlanTest, PlanShapes) {
  const ReadPlan fast = Fast();
  EXPECT_EQ(fast.targets, std::vector<std::string>({"a"}));
  EXPECT_TRUE(fast.demotes());
  EXPECT_FALSE(fast.verified());
  EXPECT_EQ(fast.budget, kBudget / 2);

  const ReadPlan hot = Hot();
  EXPECT_EQ(hot.targets, std::vector<std::string>({"b", "a"}));
  EXPECT_TRUE(hot.demotes());
  EXPECT_EQ(hot.targets[hot.payload], "b");
  EXPECT_EQ(hot.targets[hot.verifier], "a");

  const ReadPlan quorum = Quorum();
  EXPECT_FALSE(quorum.demotes());
  EXPECT_EQ(quorum.needed, 2);
  EXPECT_EQ(quorum.budget, kBudget);
}

TEST(ReadPlanTest, QuorumSkipsDeadTargetsButNeverBelowR) {
  const auto dead = [](std::set<std::string> names) {
    return [names](const std::string& target) { return names.count(target) > 0; };
  };
  EXPECT_EQ(QuorumReadPlan({"a", "b", "c"}, 2, kBudget, dead({"b"})).targets,
            std::vector<std::string>({"a", "c"}));
  EXPECT_EQ(
      QuorumReadPlan({"a", "b", "c"}, 2, kBudget, dead({"b", "c"})).targets,
      std::vector<std::string>({"a", "b", "c"}));
}

}  // namespace
}  // namespace hotman::cluster
