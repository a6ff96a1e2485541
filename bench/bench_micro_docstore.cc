// Microbenchmarks of the embedded document engine: inserts, point reads,
// filtered queries with and without a secondary index, and updates; and of
// the cluster's replica store on top of it, keyed by `self-key`.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "cluster/replica_store.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/record.h"
#include "docstore/collection.h"
#include "docstore/database.h"

namespace hotman::docstore {
namespace {

using bson::Document;
using bson::Value;

std::unique_ptr<Collection> Populated(int docs, bool with_index,
                                      bson::ObjectIdGenerator* gen) {
  auto collection = std::make_unique<Collection>("bench", gen);
  if (with_index) {
    benchmark::DoNotOptimize(
        collection->CreateIndex(IndexSpec{"kind", false}).ok());
  }
  for (int i = 0; i < docs; ++i) {
    Document doc;
    doc.Append("_id", Value("doc" + std::to_string(i)));
    doc.Append("kind", Value("k" + std::to_string(i % 20)));
    doc.Append("size", Value(std::int32_t{i}));
    benchmark::DoNotOptimize(collection->Insert(std::move(doc)).ok());
  }
  return collection;
}

void BM_Insert(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  Collection collection("bench", &gen);
  int i = 0;
  for (auto _ : state) {
    Document doc;
    doc.Append("kind", Value("k" + std::to_string(i % 20)));
    doc.Append("size", Value(std::int32_t{i++}));
    benchmark::DoNotOptimize(collection.Insert(std::move(doc)).ok());
  }
}
BENCHMARK(BM_Insert);

void BM_FindById(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  auto collection = Populated(10000, false, &gen);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        collection->FindById(Value("doc" + std::to_string(i++ % 10000))).ok());
  }
}
BENCHMARK(BM_FindById);

void BM_FilteredFind(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  const bool with_index = state.range(0) != 0;
  auto collection = Populated(10000, with_index, &gen);
  Document filter;
  filter.Append("kind", Value("k7"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection->Find(filter).ok());
  }
  state.SetLabel(with_index ? "INDEX(kind)" : "SCAN");
}
BENCHMARK(BM_FilteredFind)->Arg(0)->Arg(1);

void BM_RangeQueryIndexed(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  auto collection = Populated(10000, false, &gen);
  benchmark::DoNotOptimize(collection->CreateIndex(IndexSpec{"size", false}).ok());
  Document filter;
  Document range;
  range.Append("$gte", Value(std::int32_t{5000}));
  range.Append("$lt", Value(std::int32_t{5100}));
  filter.Append("size", Value(std::move(range)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection->Find(filter).ok());
  }
}
BENCHMARK(BM_RangeQueryIndexed);

void BM_UpdateById(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  auto collection = Populated(10000, false, &gen);
  Document update;
  Document inc;
  inc.Append("size", Value(std::int32_t{1}));
  update.Append("$inc", Value(std::move(inc)));
  int i = 0;
  for (auto _ : state) {
    Document filter;
    filter.Append("_id", Value("doc" + std::to_string(i++ % 10000)));
    benchmark::DoNotOptimize(collection->Update(filter, update).ok());
  }
}
BENCHMARK(BM_UpdateById);

void BM_PutDocumentUpsert(benchmark::State& state) {
  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  auto collection = Populated(10000, false, &gen);
  int i = 0;
  for (auto _ : state) {
    Document doc;
    doc.Append("_id", Value("doc" + std::to_string(i++ % 10000)));
    doc.Append("kind", Value("replaced"));
    benchmark::DoNotOptimize(collection->PutDocument(std::move(doc)).ok());
  }
}
BENCHMARK(BM_PutDocumentUpsert);

// A replica store as perfbench's TCP workloads fill each daemon's: 16 384
// paper-schema records keyed key00000.., values of `value_bytes` (1 KiB
// on tcp_read_mostly, 8 KiB on tcp_write_heavy).
class ReplicaBench {
 public:
  static constexpr std::size_t kRecords = 16384;

  explicit ReplicaBench(std::size_t value_bytes)
      : value_bytes_(value_bytes), gen_(1, &clock_), db_("bench", 1, &clock_),
        store_(&db_, "records") {
    benchmark::DoNotOptimize(store_.Init().ok());
    for (std::size_t i = 0; i < kRecords; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%05zu", i);
      keys_.emplace_back(key);
      benchmark::DoNotOptimize(store_.Apply(RecordOf(i)).ok());
    }
  }

  cluster::ReplicaStore& store() { return store_; }

  /// The key of the next uniformly drawn record.
  const std::string& NextKey() { return keys_[rng_.Uniform(kRecords)]; }

  /// `n` records, each newer than every one before it, of drawn keys.
  std::vector<Document> NewerRecords(std::size_t n) {
    std::vector<Document> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(RecordOf(rng_.Uniform(kRecords)));
    }
    return records;
  }

 private:
  Document RecordOf(std::size_t i) {
    return core::MakeRecord(gen_.Next(), keys_[i], Bytes(value_bytes_, 'v'),
                            /*is_copy=*/true, /*deleted=*/false, ts_++,
                            "db1:19870");
  }

  std::size_t value_bytes_;
  ManualClock clock_{0};
  bson::ObjectIdGenerator gen_;
  Database db_;
  cluster::ReplicaStore store_;
  std::vector<std::string> keys_;
  Rng rng_{34};
  Micros ts_ = 1;
};

void BM_ReplicaStoreGetByKey(benchmark::State& state) {
  ReplicaBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto record = bench.store().GetByKey(bench.NextKey());
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_ReplicaStoreGetByKey)->Arg(1024)->Arg(8192);

void BM_ReplicaStoreVersionOf(benchmark::State& state) {
  ReplicaBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto version = bench.store().VersionOf(bench.NextKey());
    benchmark::DoNotOptimize(version);
  }
}
BENCHMARK(BM_ReplicaStoreVersionOf)->Arg(1024)->Arg(8192);

// Every apply wins last-write-wins, as a coordinated put's copies do. The
// records are built in untimed batches.
void BM_ReplicaStoreApply(benchmark::State& state) {
  ReplicaBench bench(static_cast<std::size_t>(state.range(0)));
  std::vector<Document> newer;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == newer.size()) {
      state.PauseTiming();
      newer = bench.NewerRecords(1024);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(bench.store().Apply(newer[next++]).ok());
  }
}
BENCHMARK(BM_ReplicaStoreApply)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace hotman::docstore
