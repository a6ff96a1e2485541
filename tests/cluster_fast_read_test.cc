// Dirty-set fast read path (ISSUE 6): lifecycle of the per-key dirty
// entries, the single-replica hit path, and every documented fallback /
// demotion edge. All clusters here run in strict mode (R+W>N, hinted
// handoff off) — the only mode where the fast path engages, because
// primary-anchored writes are what make a one-replica read intersect
// every completed write quorum (see DESIGN.md).

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace hotman::cluster {
namespace {

ClusterConfig StrictFastConfig() {
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;  // R+W > N
  config.hinted_handoff = false;
  config.fast_reads = true;
  return config;
}

/// First key whose 3-node preference list does not include `node` — lets a
/// test crash or partition holders without severing its own coordinator.
std::string KeyNotHeldBy(StorageNode* coordinator, const std::string& node) {
  for (int i = 0;; ++i) {
    const std::string key = "fk" + std::to_string(i);
    const auto prefs = coordinator->ring().PreferenceList(key, 3);
    bool held = false;
    for (const auto& pref : prefs) held = held || pref == node;
    if (!held) return key;
  }
}

TEST(FastReadTest, DirtySetLifecycle) {
  Cluster cluster(StrictFastConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  // Never-written keys are clean.
  EXPECT_TRUE(coordinator->KeyIsClean("k"));
  EXPECT_EQ(coordinator->DirtyKeyCount(), 0u);

  // In-flight write: dirty from the moment the put is coordinated.
  bool put_ok = false;
  coordinator->CoordinatePut("k", ToBytes("v"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  EXPECT_FALSE(coordinator->KeyIsClean("k"));
  EXPECT_EQ(coordinator->DirtyKeyCount(), 1u);

  // All three holders ack: the write settled on all N, so the entry
  // retires immediately — no quiescence wait for the common case.
  cluster.RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  EXPECT_TRUE(coordinator->KeyIsClean("k"));
  EXPECT_EQ(coordinator->DirtyKeyCount(), 0u);
}

TEST(FastReadTest, UnsettledWriteStaysDirtyUntilQuiescence) {
  ClusterConfig config = StrictFastConfig();
  // Freeze membership so the crashed holder stays in the ring (this test
  // is about the dirty set, not long-failure repair).
  config.detector.dead_after = 3600 * kMicrosPerSecond;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  const std::string key = KeyNotHeldBy(coordinator, "db1:19870");
  const auto prefs = coordinator->ring().PreferenceList(key, 3);
  ASSERT_EQ(prefs.size(), 3u);

  // Crash a non-primary holder: the write still reaches W=2 (primary
  // included) but never settles on all N.
  ASSERT_TRUE(cluster.CrashNode(prefs[2]).ok());
  bool put_ok = false;
  coordinator->CoordinatePut(key, ToBytes("v"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  // 2s is past the timeout wave where the coordinator gives up on the
  // silent holder (~1.2s: put_timeout + put_timeout/2): the pending entry
  // is reaped and the dirty entry retires as *unsettled* — but the
  // quiescence clock has only just started.
  cluster.RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  EXPECT_FALSE(coordinator->KeyIsClean(key));

  // A read in the dirty window must refuse the fast path...
  auto stale_window = cluster.AggregateStats();
  bool got = false;
  coordinator->CoordinateGet(key, [&got](const Result<bson::Document>& value) {
    got = value.ok();
  });
  cluster.RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(got);
  auto after = cluster.AggregateStats();
  EXPECT_EQ(after.fast_read_hits, stale_window.fast_read_hits);
  EXPECT_GT(after.fast_read_fallbacks, stale_window.fast_read_fallbacks);

  // ...and once the quiescence window lapses with nothing in flight the
  // entry ages out.
  cluster.RunFor(kFastReadQuiescence + 2 * kMicrosPerSecond);
  EXPECT_TRUE(coordinator->KeyIsClean(key));
  EXPECT_EQ(coordinator->DirtyKeyCount(), 0u);
}

TEST(FastReadTest, CleanKeyReadHitsSingleReplica) {
  Cluster cluster(StrictFastConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  bool put_ok = false;
  coordinator->CoordinatePut("k", ToBytes("fresh"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  cluster.RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  ASSERT_TRUE(coordinator->KeyIsClean("k"));

  const auto before = cluster.AggregateStats();
  Result<bson::Document> read = Status::Unavailable("not yet");
  coordinator->CoordinateGet(
      "k", [&read](const Result<bson::Document>& value) { read = value; });
  cluster.RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(core::RecordValue(*read)), "fresh");

  const auto after = cluster.AggregateStats();
  EXPECT_EQ(after.fast_read_hits, before.fast_read_hits + 1);
  EXPECT_EQ(after.fast_read_demotions, before.fast_read_demotions);
  // The defining property: exactly one replica served the read, not R=2
  // (or the full N=3 fan-out the quorum path contacts).
  EXPECT_EQ(after.replica_gets_served, before.replica_gets_served + 1);
}

TEST(FastReadTest, ConcurrentWriteForcesQuorumRead) {
  Cluster cluster(StrictFastConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(cluster.PutSync("k", ToBytes("v0")).ok());
  cluster.RunFor(kFastReadQuiescence + kMicrosPerSecond);

  const auto before = cluster.AggregateStats();
  bool put_done = false, get_done = false;
  coordinator->CoordinatePut(
      "k", ToBytes("v1"), [&put_done](const Status& s) { put_done = s.ok(); });
  // Issued while the write is still in flight: the key is dirty, so the
  // read must take the quorum path (demotion-by-prevention).
  coordinator->CoordinateGet(
      "k", [&get_done](const Result<bson::Document>& value) {
        get_done = value.ok();
      });
  cluster.RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(put_done);
  EXPECT_TRUE(get_done);
  const auto after = cluster.AggregateStats();
  EXPECT_EQ(after.fast_read_hits, before.fast_read_hits);
  EXPECT_GT(after.fast_read_fallbacks, before.fast_read_fallbacks);
}

TEST(FastReadTest, SingleReplicaMissDemotesToQuorum) {
  // A one-replica miss is never authoritative: reading a key that does not
  // exist anywhere must demote to the quorum path and only then conclude
  // NotFound.
  Cluster cluster(StrictFastConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  Result<bson::Document> read = Status::Unavailable("not yet");
  coordinator->CoordinateGet(
      "ghost", [&read](const Result<bson::Document>& value) { read = value; });
  cluster.RunFor(3 * kMicrosPerSecond);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();

  const auto stats = cluster.AggregateStats();
  EXPECT_EQ(stats.fast_read_hits, 0u);
  EXPECT_EQ(stats.fast_read_demotions, 1u);
}

TEST(FastReadTest, SuspectedPrimaryFallsBackAtIssueTime) {
  ClusterConfig config = StrictFastConfig();
  config.detector.dead_after = 3600 * kMicrosPerSecond;  // freeze membership
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);
  const std::string key = KeyNotHeldBy(coordinator, "db1:19870");
  bool put_ok = false;
  coordinator->CoordinatePut(key, ToBytes("v"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  cluster.RunFor(kFastReadQuiescence + kMicrosPerSecond);
  ASSERT_TRUE(put_ok);

  // Silence the primary holder long enough for suspicion, not death.
  const auto prefs = coordinator->ring().PreferenceList(key, 3);
  cluster.network()->Disconnect(prefs[0]);
  cluster.RunFor(6 * kMicrosPerSecond);  // > suspect_after

  const auto before = cluster.AggregateStats();
  Result<bson::Document> read = Status::Unavailable("not yet");
  coordinator->CoordinateGet(
      key, [&read](const Result<bson::Document>& value) { read = value; });
  cluster.RunFor(3 * kMicrosPerSecond);
  // The quorum path still answers from the two reachable holders.
  ASSERT_TRUE(read.ok());
  const auto after = cluster.AggregateStats();
  EXPECT_EQ(after.fast_read_hits, before.fast_read_hits);
  EXPECT_GT(after.fast_read_fallbacks, before.fast_read_fallbacks);
}

TEST(FastReadTest, FastReadsStayOffInSloppyMode) {
  // With hinted handoff on, a completed write may bypass the primary via a
  // substitute, so anchoring does not hold and the fast path must refuse
  // to engage even for clean keys.
  ClusterConfig config = StrictFastConfig();
  config.hinted_handoff = true;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.PutSync("k", ToBytes("v")).ok());
  cluster.RunFor(kFastReadQuiescence + kMicrosPerSecond);
  auto value = cluster.GetSync("k");
  ASSERT_TRUE(value.ok());
  const auto stats = cluster.AggregateStats();
  EXPECT_EQ(stats.fast_read_hits, 0u);
  EXPECT_GT(stats.fast_read_fallbacks, 0u);
}

}  // namespace
}  // namespace hotman::cluster
