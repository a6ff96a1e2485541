#include "cluster/replica_store.h"

#include <gtest/gtest.h>

namespace hotman::cluster {
namespace {

class ReplicaStoreTest : public ::testing::Test {
 protected:
  ReplicaStoreTest() : clock_(0), db_("node", 1, &clock_), store_(&db_, "records") {
    EXPECT_TRUE(store_.Init().ok());
    gen_ = std::make_unique<bson::ObjectIdGenerator>(9, &clock_);
  }

  bson::Document Record(const std::string& key, const std::string& value,
                        Micros timestamp, const std::string& origin = "n1") {
    return core::MakeRecord(gen_->Next(), key, ToBytes(value), false, false,
                            timestamp, origin);
  }

  ManualClock clock_;
  docstore::Database db_;
  ReplicaStore store_;
  std::unique_ptr<bson::ObjectIdGenerator> gen_;
};

TEST_F(ReplicaStoreTest, InitIsIdempotent) {
  EXPECT_TRUE(store_.Init().ok());
  EXPECT_TRUE(store_.Init().ok());
}

TEST_F(ReplicaStoreTest, ApplyAndGet) {
  auto applied = store_.Apply(Record("k", "v1", 100));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied);
  auto record = store_.GetByKey("k");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(ToString(core::RecordValue(*record)), "v1");
  EXPECT_TRUE(store_.GetByKey("missing").status().IsNotFound());
}

TEST_F(ReplicaStoreTest, LwwNewerWins) {
  ASSERT_TRUE(store_.Apply(Record("k", "old", 100)).ok());
  auto applied = store_.Apply(Record("k", "new", 200));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied);
  EXPECT_EQ(ToString(core::RecordValue(*store_.GetByKey("k"))), "new");
  EXPECT_EQ(store_.NumRecords(), 1u);
}

TEST_F(ReplicaStoreTest, LwwOlderRejected) {
  ASSERT_TRUE(store_.Apply(Record("k", "current", 200)).ok());
  auto applied = store_.Apply(Record("k", "stale", 100));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(*applied);  // kept existing
  EXPECT_EQ(ToString(core::RecordValue(*store_.GetByKey("k"))), "current");
}

TEST_F(ReplicaStoreTest, ApplyIsIdempotent) {
  bson::Document record = Record("k", "v", 100);
  ASSERT_TRUE(store_.Apply(record).ok());
  auto again = store_.Apply(record);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);  // same timestamp+origin does not supersede itself
  EXPECT_EQ(store_.NumRecords(), 1u);
}

TEST_F(ReplicaStoreTest, TombstonesCountedButNotLive) {
  ASSERT_TRUE(store_.Apply(Record("a", "v", 100)).ok());
  bson::Document tombstone = core::MakeTombstone(gen_->Next(), "b", 100, "n1");
  ASSERT_TRUE(store_.Apply(tombstone).ok());
  EXPECT_EQ(store_.NumRecords(), 2u);
  EXPECT_EQ(*store_.NumLiveRecords(), 1u);
  // GetByKey surfaces the tombstone; callers decide what NotFound means.
  auto dead = store_.GetByKey("b");
  ASSERT_TRUE(dead.ok());
  EXPECT_TRUE(core::RecordIsDeleted(*dead));
}

TEST_F(ReplicaStoreTest, TombstoneSupersedesByLww) {
  ASSERT_TRUE(store_.Apply(Record("k", "v", 100)).ok());
  bson::Document tombstone = core::MakeTombstone(gen_->Next(), "k", 200, "n1");
  ASSERT_TRUE(store_.Apply(tombstone).ok());
  EXPECT_TRUE(core::RecordIsDeleted(*store_.GetByKey("k")));
  // A later write resurrects the key.
  ASSERT_TRUE(store_.Apply(Record("k", "reborn", 300)).ok());
  EXPECT_FALSE(core::RecordIsDeleted(*store_.GetByKey("k")));
}

TEST_F(ReplicaStoreTest, VersionOfReadsTheStoredVersion) {
  EXPECT_TRUE(store_.VersionOf("k").status().IsNotFound());
  ASSERT_TRUE(store_.Apply(Record("k", "v", 100, "n2")).ok());
  auto live = store_.VersionOf("k");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->ts, 100);
  EXPECT_EQ(live->origin, "n2");

  // A losing apply leaves the version; a winning one replaces it.
  ASSERT_FALSE(*store_.Apply(Record("k", "tie", 100, "n1")));
  EXPECT_EQ(store_.VersionOf("k")->origin, "n2");
  ASSERT_TRUE(*store_.Apply(Record("k", "new", 200, "n1")));
  auto won = store_.VersionOf("k");
  ASSERT_TRUE(won.ok());
  EXPECT_EQ(won->ts, 200);
  EXPECT_EQ(won->origin, "n1");

  // A tombstone has a version too.
  ASSERT_TRUE(*store_.Apply(core::MakeTombstone(gen_->Next(), "k", 300, "n3")));
  auto dead = store_.VersionOf("k");
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(dead->ts, 300);
  EXPECT_EQ(dead->origin, "n3");
}

TEST_F(ReplicaStoreTest, ApplyRejectsMalformedRecords) {
  bson::Document junk;
  junk.Append("x", bson::Value("y"));
  EXPECT_FALSE(store_.Apply(junk).ok());
}

TEST_F(ReplicaStoreTest, AllRecordsSnapshot) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_.Apply(Record("k" + std::to_string(i), "v", 100 + i)).ok());
  }
  auto all = store_.AllRecords();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);
}

TEST_F(ReplicaStoreTest, PurgePhysicallyRemoves) {
  ASSERT_TRUE(store_.Apply(Record("k", "v", 100)).ok());
  ASSERT_TRUE(store_.Purge("k").ok());
  EXPECT_EQ(store_.NumRecords(), 0u);
  EXPECT_TRUE(store_.GetByKey("k").status().IsNotFound());
  EXPECT_TRUE(store_.Purge("k").ok());  // idempotent
}

}  // namespace
}  // namespace hotman::cluster
