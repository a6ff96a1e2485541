#include "docstore/collection.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace hotman::docstore {
namespace {

using bson::Array;
using bson::Document;
using bson::Value;

Document Doc(std::initializer_list<bson::Field> fields) { return Document(fields); }

class CollectionTest : public ::testing::Test {
 protected:
  CollectionTest() : clock_(1000), gen_(1, &clock_), coll_("items", &gen_) {}

  ManualClock clock_;
  bson::ObjectIdGenerator gen_;
  Collection coll_;
};

TEST_F(CollectionTest, InsertGeneratesIdWhenMissing) {
  auto id = coll_.Insert(Doc({{"name", Value("res")}}));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(id->is_object_id());
  auto doc = coll_.FindById(*id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->field(0).name, "_id");  // _id leads the document
  EXPECT_EQ(doc->Get("name")->as_string(), "res");
}

TEST_F(CollectionTest, InsertRespectsExplicitId) {
  auto id = coll_.Insert(Doc({{"_id", Value("custom")}, {"v", Value(std::int32_t{1})}}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, Value("custom"));
}

TEST_F(CollectionTest, DuplicateIdRejected) {
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("k")}})).ok());
  EXPECT_TRUE(coll_.Insert(Doc({{"_id", Value("k")}})).status().IsAlreadyExists());
  EXPECT_EQ(coll_.NumDocuments(), 1u);
}

TEST_F(CollectionTest, FindByIdNotFound) {
  EXPECT_TRUE(coll_.FindById(Value("ghost")).status().IsNotFound());
}

TEST_F(CollectionTest, FindWithFilter) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll_.Insert(Doc({{"n", Value(std::int32_t{i})},
                                  {"even", Value(i % 2 == 0)}}))
                    .ok());
  }
  auto evens = coll_.Find(Doc({{"even", Value(true)}}));
  ASSERT_TRUE(evens.ok());
  EXPECT_EQ(evens->size(), 5u);
  auto big = coll_.Find(Doc({{"n", Value(Doc({{"$gte", Value(std::int32_t{7})}}))}}));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->size(), 3u);
}

TEST_F(CollectionTest, FindSortSkipLimitProjection) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coll_.Insert(Doc({{"n", Value(std::int32_t{i})},
                                  {"junk", Value("x")}}))
                    .ok());
  }
  FindOptions options;
  options.sort = Doc({{"n", Value(std::int32_t{-1})}});
  options.skip = 2;
  options.limit = 3;
  options.projection = Doc({{"n", Value(std::int32_t{1})},
                            {"_id", Value(std::int32_t{0})}});
  auto results = coll_.Find(Document{}, options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].Get("n")->as_int32(), 7);  // 9,8 skipped
  EXPECT_EQ((*results)[2].Get("n")->as_int32(), 5);
  EXPECT_EQ((*results)[0].size(), 1u);  // projected down to n
}

TEST_F(CollectionTest, FindOne) {
  ASSERT_TRUE(coll_.Insert(Doc({{"k", Value("a")}})).ok());
  auto hit = coll_.FindOne(Doc({{"k", Value("a")}}));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->has_value());
  auto miss = coll_.FindOne(Doc({{"k", Value("zz")}}));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
}

TEST_F(CollectionTest, UpdateSingleAndMulti) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coll_.Insert(Doc({{"g", Value("x")}, {"n", Value(std::int32_t{i})}}))
                    .ok());
  }
  Document filter = Doc({{"g", Value("x")}});
  Document update = Doc({{"$inc", Value(Doc({{"n", Value(std::int32_t{100})}}))}});
  auto single = coll_.Update(filter, update);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->matched, 1u);
  EXPECT_EQ(single->modified, 1u);
  UpdateOptions multi;
  multi.multi = true;
  auto all = coll_.Update(filter, update, multi);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->matched, 4u);
  EXPECT_EQ(all->modified, 4u);
}

TEST_F(CollectionTest, UpdateNoopCountsMatchedNotModified) {
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("k")}, {"v", Value(std::int32_t{5})}}))
                  .ok());
  auto result = coll_.Update(Doc({{"_id", Value("k")}}),
                             Doc({{"$set", Value(Doc({{"v", Value(std::int32_t{5})}}))}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matched, 1u);
  EXPECT_EQ(result->modified, 0u);
}

TEST_F(CollectionTest, UpsertInsertsFromEqualityConstraints) {
  UpdateOptions options;
  options.upsert = true;
  auto result = coll_.Update(Doc({{"key", Value("new")}}),
                             Doc({{"$set", Value(Doc({{"v", Value(std::int32_t{1})}}))}}),
                             options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->upserted_id.has_value());
  auto found = coll_.FindOne(Doc({{"key", Value("new")}}));
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((**found).Get("v")->as_int32(), 1);
}

TEST_F(CollectionTest, UpsertNotTriggeredWhenMatched) {
  ASSERT_TRUE(coll_.Insert(Doc({{"key", Value("k")}})).ok());
  UpdateOptions options;
  options.upsert = true;
  auto result = coll_.Update(Doc({{"key", Value("k")}}),
                             Doc({{"$set", Value(Doc({{"v", Value(std::int32_t{2})}}))}}),
                             options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->upserted_id.has_value());
  EXPECT_EQ(coll_.NumDocuments(), 1u);
}

TEST_F(CollectionTest, RemoveMultiAndSingle) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(coll_.Insert(Doc({{"g", Value("x")}})).ok());
  }
  auto one = coll_.Remove(Doc({{"g", Value("x")}}), /*multi=*/false);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1u);
  auto rest = coll_.Remove(Doc({{"g", Value("x")}}));
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(*rest, 4u);
  EXPECT_EQ(coll_.NumDocuments(), 0u);
}

TEST_F(CollectionTest, CountWithAndWithoutFilter) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(coll_.Insert(Doc({{"n", Value(std::int32_t{i})}})).ok());
  }
  EXPECT_EQ(*coll_.Count(Document{}), 6u);
  EXPECT_EQ(*coll_.Count(Doc({{"n", Value(Doc({{"$lt", Value(std::int32_t{2})}}))}})),
            2u);
}

TEST_F(CollectionTest, UniqueIndexEnforced) {
  IndexSpec spec;
  spec.path = "email";
  spec.unique = true;
  ASSERT_TRUE(coll_.CreateIndex(spec).ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"email", Value("a@x")}})).ok());
  EXPECT_TRUE(coll_.Insert(Doc({{"email", Value("a@x")}})).status().IsAlreadyExists());
  // Failed insert must not leave the document behind.
  EXPECT_EQ(coll_.NumDocuments(), 1u);
}

TEST_F(CollectionTest, UniqueIndexAllowsUpdateOfSameDocument) {
  IndexSpec spec;
  spec.path = "email";
  spec.unique = true;
  ASSERT_TRUE(coll_.CreateIndex(spec).ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u1")}, {"email", Value("a@x")}})).ok());
  auto result =
      coll_.Update(Doc({{"_id", Value("u1")}}),
                   Doc({{"$set", Value(Doc({{"other", Value(std::int32_t{1})}}))}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->modified, 1u);
}

/// `_id` of the document ReadUnique finds under the unique index on `path`
/// for `key`, or "" when it finds none.
std::string IdOf(const Collection& coll, const std::string& path,
                 const std::string& key) {
  std::string id;
  Status s = coll.ReadUnique(path, key, [&id](const Document& doc) {
    id = doc.Get("_id")->as_string();
  });
  EXPECT_EQ(s.ok(), !id.empty()) << s.ToString();
  EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  return id;
}

TEST_F(CollectionTest, ReadUniqueFollowsEveryWrite) {
  ASSERT_TRUE(coll_.CreateIndex(IndexSpec{"email", true}).ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u1")}, {"email", Value("a@x")}})).ok());
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "u1");
  EXPECT_EQ(IdOf(coll_, "email", "nobody@x"), "");

  // A replace is read in full.
  ASSERT_TRUE(coll_.PutDocument(Doc({{"_id", Value("u1")},
                                     {"email", Value("a@x")},
                                     {"v", Value(std::int32_t{2})}}))
                  .ok());
  std::int32_t v = 0;
  ASSERT_TRUE(coll_.ReadUnique("email", "a@x", [&v](const Document& doc) {
                     v = doc.Get("v")->as_int32();
                   }).ok());
  EXPECT_EQ(v, 2);

  // An update of the indexed key moves the entry.
  ASSERT_TRUE(coll_.Update(Doc({{"_id", Value("u1")}}),
                           Doc({{"$set", Value(Doc({{"email", Value("b@x")}}))}}))
                  .ok());
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "");
  EXPECT_EQ(IdOf(coll_, "email", "b@x"), "u1");

  ASSERT_TRUE(coll_.RemoveById(Value("u1")).ok());
  EXPECT_EQ(IdOf(coll_, "email", "b@x"), "");

  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u2")}, {"email", Value("c@x")}})).ok());
  ASSERT_TRUE(coll_.Remove(Doc({{"email", Value("c@x")}})).ok());
  EXPECT_EQ(IdOf(coll_, "email", "c@x"), "");
}

TEST_F(CollectionTest, ReadUniqueSurvivesRejectedWrites) {
  // Two unique indexes: a write the second rejects is rolled back in the
  // first, which already took its entry.
  ASSERT_TRUE(coll_.CreateIndex(IndexSpec{"email", true}).ok());
  ASSERT_TRUE(coll_.CreateIndex(IndexSpec{"name", true}).ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u1")},
                                {"email", Value("a@x")},
                                {"name", Value("ann")}}))
                  .ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u2")},
                                {"email", Value("b@x")},
                                {"name", Value("bob")}}))
                  .ok());

  EXPECT_TRUE(coll_.Insert(Doc({{"_id", Value("u3")}, {"email", Value("a@x")}}))
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(coll_.Insert(Doc({{"_id", Value("u3")},
                                {"email", Value("new@x")},
                                {"name", Value("ann")}}))
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "u1");
  EXPECT_EQ(IdOf(coll_, "email", "new@x"), "");
  EXPECT_EQ(coll_.NumDocuments(), 2u);

  EXPECT_TRUE(coll_.Update(Doc({{"_id", Value("u2")}}),
                           Doc({{"$set", Value(Doc({{"email", Value("fresh@x")},
                                                    {"name", Value("ann")}}))}}))
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(IdOf(coll_, "email", "fresh@x"), "");
  EXPECT_EQ(IdOf(coll_, "email", "b@x"), "u2");
  EXPECT_EQ(IdOf(coll_, "name", "bob"), "u2");
  // The rollback must not drop the entry of the document that won.
  EXPECT_EQ(IdOf(coll_, "name", "ann"), "u1");
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "u1");
}

TEST_F(CollectionTest, ReadUniqueNeedsAUniqueIndex) {
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("u1")}, {"email", Value("a@x")}})).ok());
  ASSERT_TRUE(coll_.CreateIndex(IndexSpec{"email", false}).ok());
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "");
  ASSERT_TRUE(coll_.DropIndex("email").ok());

  // CreateIndex back-fills the hash table.
  ASSERT_TRUE(coll_.CreateIndex(IndexSpec{"email", true}).ok());
  EXPECT_EQ(IdOf(coll_, "email", "a@x"), "u1");
  ASSERT_TRUE(coll_.DropIndex("email").ok());
  EXPECT_TRUE(coll_.ReadUnique("email", "a@x", [](const Document&) {}).IsNotFound());
}

TEST_F(CollectionTest, CreateIndexBackfillsAndRejectsDuplicates) {
  ASSERT_TRUE(coll_.Insert(Doc({{"k", Value("v1")}})).ok());
  IndexSpec spec;
  spec.path = "k";
  ASSERT_TRUE(coll_.CreateIndex(spec).ok());
  EXPECT_TRUE(coll_.CreateIndex(spec).IsAlreadyExists());
  EXPECT_EQ(coll_.Indexes().size(), 1u);
  ASSERT_TRUE(coll_.DropIndex("k").ok());
  EXPECT_TRUE(coll_.DropIndex("k").IsNotFound());
}

TEST_F(CollectionTest, CreateUniqueIndexFailsOnExistingDuplicates) {
  ASSERT_TRUE(coll_.Insert(Doc({{"k", Value("same")}})).ok());
  ASSERT_TRUE(coll_.Insert(Doc({{"k", Value("same")}})).ok());
  IndexSpec spec;
  spec.path = "k";
  spec.unique = true;
  EXPECT_FALSE(coll_.CreateIndex(spec).ok());
}

TEST_F(CollectionTest, PutDocumentUpserts) {
  ASSERT_TRUE(coll_.PutDocument(Doc({{"_id", Value("k")}, {"v", Value(std::int32_t{1})}}))
                  .ok());
  ASSERT_TRUE(coll_.PutDocument(Doc({{"_id", Value("k")}, {"v", Value(std::int32_t{2})}}))
                  .ok());
  EXPECT_EQ(coll_.NumDocuments(), 1u);
  EXPECT_EQ(coll_.FindById(Value("k"))->Get("v")->as_int32(), 2);
  EXPECT_TRUE(coll_.PutDocument(Doc({{"no_id", Value("x")}})).IsInvalidArgument());
}

TEST_F(CollectionTest, RemoveByIdIdempotent) {
  ASSERT_TRUE(coll_.PutDocument(Doc({{"_id", Value("k")}})).ok());
  ASSERT_TRUE(coll_.RemoveById(Value("k")).ok());
  ASSERT_TRUE(coll_.RemoveById(Value("k")).ok());  // idempotent
  EXPECT_EQ(coll_.NumDocuments(), 0u);
}

TEST_F(CollectionTest, ChangeListenerSeesPutsAndRemoves) {
  std::vector<ChangeEvent> events;
  coll_.SetChangeListener([&events](const ChangeEvent& e) { events.push_back(e); });
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("k")}, {"v", Value(std::int32_t{1})}}))
                  .ok());
  ASSERT_TRUE(coll_.Update(Doc({{"_id", Value("k")}}),
                           Doc({{"$set", Value(Doc({{"v", Value(std::int32_t{2})}}))}}))
                  .ok());
  ASSERT_TRUE(coll_.RemoveById(Value("k")).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, ChangeEvent::Kind::kPut);
  EXPECT_EQ(events[1].kind, ChangeEvent::Kind::kPut);
  EXPECT_EQ(events[2].kind, ChangeEvent::Kind::kRemove);
  EXPECT_EQ(*events[2].document.Get("_id"), Value("k"));
}

TEST_F(CollectionTest, DataSizeTracksContents) {
  EXPECT_EQ(coll_.DataSizeBytes(), 0u);
  ASSERT_TRUE(coll_.Insert(Doc({{"_id", Value("k")}, {"v", Value("payload")}})).ok());
  const std::size_t after_insert = coll_.DataSizeBytes();
  EXPECT_GT(after_insert, 0u);
  ASSERT_TRUE(coll_.RemoveById(Value("k")).ok());
  EXPECT_EQ(coll_.DataSizeBytes(), 0u);
}

TEST_F(CollectionTest, InvalidFilterSurfacesError) {
  EXPECT_FALSE(coll_.Find(Doc({{"a", Value(Doc({{"$bogus", Value(std::int32_t{1})}}))}}))
                   .ok());
  EXPECT_FALSE(coll_.Remove(Doc({{"$bad", Value(Array{})}})).ok());
}

}  // namespace
}  // namespace hotman::docstore
