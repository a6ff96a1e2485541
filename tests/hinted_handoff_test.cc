#include "cluster/hinted_handoff.h"

#include <gtest/gtest.h>

namespace hotman::cluster {
namespace {

bson::Document Rec(const std::string& marker) {
  bson::Document doc;
  doc.Append("m", bson::Value(marker));
  return doc;
}

TEST(HintStoreTest, AddAndQueryByTarget) {
  HintStore hints;
  hints.Add(64, "db2", Rec("a"), 100);
  hints.Add(128, "db2", Rec("b"), 200);
  hints.Add(192, "db3", Rec("c"), 300);
  EXPECT_EQ(hints.PendingCount(), 3u);
  auto for_db2 = hints.ForTarget("db2");
  ASSERT_EQ(for_db2.size(), 2u);
  EXPECT_EQ(for_db2[0].target, "db2");
  EXPECT_EQ(for_db2[0].id, 64u);
  EXPECT_EQ(for_db2[1].id, 128u);
  EXPECT_EQ(hints.ForTarget("db3").size(), 1u);
  EXPECT_TRUE(hints.ForTarget("db9").empty());
}

TEST(HintStoreTest, TargetsDeduplicated) {
  HintStore hints;
  hints.Add(1, "db2", Rec("a"), 1);
  hints.Add(2, "db2", Rec("b"), 2);
  hints.Add(3, "db3", Rec("c"), 3);
  auto targets = hints.Targets();
  EXPECT_EQ(targets.size(), 2u);
}

TEST(HintStoreTest, RemoveOnAcknowledgedWriteBack) {
  HintStore hints;
  hints.Add(65, "db2", Rec("a"), 1);
  ASSERT_NE(hints.Find(65), nullptr);
  EXPECT_EQ(hints.Find(65)->target, "db2");
  EXPECT_TRUE(hints.Remove(65));
  EXPECT_FALSE(hints.Remove(65));
  EXPECT_EQ(hints.Find(65), nullptr);
  EXPECT_EQ(hints.PendingCount(), 0u);
  EXPECT_EQ(hints.total_added(), 1u);
  EXPECT_EQ(hints.total_delivered(), 1u);
}

TEST(HintStoreTest, DeliveryAttemptsDoNotRemove) {
  HintStore hints;
  hints.Add(1, "db2", Rec("a"), 1);
  // ForTarget is read-only: repeated delivery attempts keep the hint until
  // an ack arrives.
  (void)hints.ForTarget("db2");
  (void)hints.ForTarget("db2");
  EXPECT_EQ(hints.PendingCount(), 1u);
}

TEST(HintStoreTest, HintCarriesRecordAndTimestamp) {
  HintStore hints;
  hints.Add(1, "db2", Rec("payload"), 777);
  auto list = hints.ForTarget("db2");
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].record.Get("m")->as_string(), "payload");
  EXPECT_EQ(list[0].stored_at, 777);
}

}  // namespace
}  // namespace hotman::cluster
