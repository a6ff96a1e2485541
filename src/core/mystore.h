#ifndef HOTMAN_CORE_MYSTORE_H_
#define HOTMAN_CORE_MYSTORE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/cache_pool.h"
#include "cluster/cluster.h"
#include "cluster/heat_tracker.h"
#include "core/record.h"
#include "rest/request.h"
#include "rest/router.h"
#include "rest/token_db.h"

namespace hotman::core {

/// Top-level configuration: the four modules of Fig. 1.
struct MyStoreConfig {
  cluster::ClusterConfig cluster = cluster::ClusterConfig::PaperSetup();
  sim::FailureConfig failures = sim::FailureConfig::None();

  int cache_servers = 4;                                ///< §6.1 deployment
  std::size_t cache_bytes_per_server = std::size_t{1} << 30;  ///< 1 GB each

  /// Front-side heat tracking over client keys: hot keys get pinned in the
  /// cache pool (and unpinned again once their heat decays), so a flash
  /// crowd cannot have its one working-set entry evicted by cold churn.
  cluster::HeatConfig cache_heat;

  std::uint64_t seed = 42;
};

/// The MyStore system: user interface (RESTful), distribution module
/// (round-robin router), cache module (key-hash-balanced LRU servers) and
/// the data storage module (the NWR cluster over the embedded document
/// store).
class MyStore {
 public:
  explicit MyStore(MyStoreConfig config);
  ~MyStore();

  MyStore(const MyStore&) = delete;
  MyStore& operator=(const MyStore&) = delete;

  /// Boots the storage cluster; must be called before any operation.
  Status Start();

  // --- native asynchronous API (workload drivers) ---------------------------

  using GetCb = std::function<void(const Result<Bytes>&)>;
  using MutateCb = std::function<void(const Status&)>;

  /// GET: "locates unstructured data with the key in cache or database (if
  /// it gets a cache miss, it will switch to database and the returned
  /// value will be inserted to cache)."
  void GetAsync(const std::string& key, GetCb cb);

  /// POST with key: "the data item in cache and database will be updated."
  void PostAsync(const std::string& key, Bytes value, MutateCb cb);

  /// DELETE: "the item with this key will be deleted from cache and set to
  /// be unavailable in database" (logical isDel tombstone).
  void DeleteAsync(const std::string& key, MutateCb cb);

  // --- blocking convenience (examples / tests) -------------------------------

  Result<Bytes> Get(const std::string& key);
  Status Post(const std::string& key, Bytes value);
  /// POST without key: "it will create a new item in database and return a
  /// key value to user; this key will be set to cache."
  Result<std::string> PostNew(Bytes value);
  Status Delete(const std::string& key);

  // --- REST surface -----------------------------------------------------------

  /// Dispatches a request through the distribution module, unauthenticated
  /// (HandleSigned is the authenticated path).
  rest::Response Handle(const rest::Request& request);

  /// Authenticated dispatch: validates the Fig. 2 URI signature for `user`
  /// before handling.
  rest::Response HandleSigned(const std::string& user, const rest::Request& request);

  /// Whole-system observability snapshot, also served at `GET /stats`:
  ///   {"cluster":{counters,gauges,histograms},"cache":{...},
  ///    "router":{...},"traces":[...]}
  std::string StatsJson();

  // --- module access -----------------------------------------------------------

  cluster::Cluster* storage() { return cluster_.get(); }
  cache::CachePool* cache_pool() { return cache_.get(); }
  /// Keys currently pinned in the cache pool by the heat tracker (sorted).
  std::vector<std::string> HotPinnedKeys() const {
    return {pinned_keys_.begin(), pinned_keys_.end()};
  }
  const cluster::HeatTracker& front_heat() const { return front_heat_; }
  rest::TokenDb* token_db() { return tokens_.get(); }
  rest::Router* router() { return router_.get(); }
  const MyStoreConfig& config() const { return config_; }

  /// Runs the simulated cluster for `duration` (time passes only when
  /// someone pumps the loop).
  void RunFor(Micros duration) { cluster_->RunFor(duration); }

 private:
  rest::Response HandleOnWorker(int worker, const rest::Request& request);

  /// Counts one client operation on `key` against the front-side heat
  /// sketch; every kHeatRefreshOps operations the pin set is refreshed.
  void NoteHeat(const std::string& key);
  /// Re-derives the pin set from the sketch: keys that cooled (or decayed
  /// out entirely) are unpinned, currently-hot cached keys are pinned.
  void RefreshHotPins();
  /// Admission bias: pins `key` immediately when the sketch already flags
  /// it hot (called right after a cache insert).
  void MaybePinHot(const std::string& key);

  MyStoreConfig config_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cache::CachePool> cache_;
  std::unique_ptr<rest::TokenDb> tokens_;
  std::unique_ptr<rest::Router> router_;
  std::unique_ptr<bson::ObjectIdGenerator> key_generator_;

  cluster::HeatTracker front_heat_;
  std::set<std::string> pinned_keys_;
  std::uint64_t heat_ops_since_refresh_ = 0;
};

}  // namespace hotman::core

#endif  // HOTMAN_CORE_MYSTORE_H_
