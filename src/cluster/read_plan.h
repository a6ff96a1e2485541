#ifndef HOTMAN_CLUSTER_READ_PLAN_H_
#define HOTMAN_CLUSTER_READ_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bson/document.h"
#include "common/clock.h"

namespace hotman::cluster {

/// One target's answer to a coordinated read. A payload read fills
/// `record`; a digest probe fills only the version fields.
struct ReadReply {
  bool ok = false;     ///< false: the target failed to serve (still an answer)
  bool found = false;  ///< the target holds the key
  bson::Document record;
  std::int64_t digest_ts = 0;
  std::string digest_origin;
};

/// Replies by sender. Name order settles LWW ties: on an equal version the
/// first sender wins.
using ReadReplies = std::map<std::string, ReadReply>;

/// How one coordinated read is issued and when it may answer. Three shapes
/// exist, built by the functions below: the R-quorum read, the primary
/// fast read and the hot read.
struct ReadPlan {
  /// What a failed or inconclusive reply set does.
  enum class OnFailure {
    kConclude,  ///< answer NotFound / Unavailable / Timeout
    kDemote,    ///< re-plan as a quorum read
  };
  static constexpr int kNone = -1;

  std::vector<std::string> targets;
  /// Successful replies a verdict needs: R for a quorum read, every target
  /// for a demote plan.
  int needed = 1;
  /// Target whose record is served; kNone serves the LWW winner.
  int payload = kNone;
  /// Target probed for a digest the payload's version must equal; kNone
  /// when the payload is served unverified.
  int verifier = kNone;
  Micros budget = 0;
  OnFailure on_failure = OnFailure::kConclude;

  bool demotes() const { return on_failure == OnFailure::kDemote; }
  bool verified() const { return verifier != kNone; }
};

/// The primary fast read: `preference.front()` alone serves the value.
ReadPlan PrimaryReadPlan(std::vector<std::string> preference, Micros budget);

/// The hot read: `replica` serves the payload, `primary` a digest of it.
ReadPlan HotReadPlan(const std::string& replica, const std::string& primary,
                     Micros budget);

/// The R-quorum read over `preference`. Targets `is_dead` reports are
/// skipped, unless fewer than R would remain: the detector can be wrong
/// during asymmetric partitions, and a contact list under R could never
/// gather the R confirmations the R+W>N intersection is built on.
template <typename IsDead>
ReadPlan QuorumReadPlan(std::vector<std::string> preference, int read_quorum,
                        Micros budget, IsDead is_dead) {
  const auto alive = std::count_if(
      preference.begin(), preference.end(),
      [&is_dead](const std::string& target) { return !is_dead(target); });
  if (alive >= read_quorum &&
      alive < static_cast<std::ptrdiff_t>(preference.size())) {
    std::erase_if(preference, is_dead);
  }
  ReadPlan plan;
  plan.targets = std::move(preference);
  plan.needed = read_quorum;
  plan.budget = budget;
  return plan;
}

enum class ReadVerdict { kWait, kServe, kMiss, kUnavailable, kTimeout, kDemote };

struct ReadDecision {
  ReadVerdict verdict = ReadVerdict::kWait;
  /// kServe only: the record to answer with, inside the replies.
  const bson::Document* winner = nullptr;
};

/// The whole read rule: whether `replies` (plus `timed_out`, the plan's
/// budget lapsing) let the read answer, and with what.
///
/// Demote plans answer only with a value every target vouches for. Any
/// failed or not-found reply, a version mismatch, or the timeout demotes;
/// they never conclude a miss or a failure themselves.
/// Conclude plans serve the LWW winner of the ok, found replies once R
/// replies succeeded; with every target answered (or the budget lapsed)
/// and no value, R successes conclude NotFound, fewer Unavailable (every
/// target answered) or Timeout.
///
/// Safety:
///  - Primary anchoring. A demote plan of one target reads the primary
///    alone. That is safe only because writes in strict mode (fast reads
///    on, hinted handoff off) need the primary among their W acks, so
///    {primary} meets every completed write set; the coordinator offers
///    the plan only for a key no write is unsettled on.
///  - Digest equality. The hot plan's payload comes from a rotated
///    replica, but it is served only when its (_ts, _origin) equals the
///    primary's digest, so the answer is the primary's version and the
///    anchoring argument carries over. A replica that lags or leads (a
///    repair or anti-entropy push in flight) demotes.
///  - Never conclude below R. A conclude plan answers nothing, not even a
///    miss, on fewer than R successful replies: not when the detector
///    shrank the contact list, not when every contacted target answered,
///    not at the timeout. Each of those once let a read miss the write
///    quorum during asymmetric partitions (bug 1 in
///    tests/chaos_seeds.txt).
ReadDecision DecideRead(const ReadPlan& plan, const ReadReplies& replies,
                        bool timed_out);

/// Read repair for a conclude plan whose targets all answered or whose
/// budget lapsed (§5.2.2, "some more replications are supplemented").
struct ReadRepair {
  /// The LWW winner to push; null when no reply found the key.
  const bson::Document* winner = nullptr;
  /// Indices into plan.targets whose reply is missing, failed, not found
  /// or LWW-older than the winner. Never the winner's own sender.
  std::vector<std::size_t> targets;
};

/// Empty for demote plans: they read one version and have nothing to
/// compare it with.
ReadRepair PlanReadRepair(const ReadPlan& plan, const ReadReplies& replies);

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_READ_PLAN_H_
