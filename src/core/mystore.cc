#include "core/mystore.h"

#include <cstdio>

#include "common/metrics.h"
#include "rest/signature.h"

namespace hotman::core {

namespace {

/// Client operations between pin-set refreshes. Small enough that a flash
/// crowd gets pinned within a beat of ramping; large enough that the
/// refresh scan stays off the per-op path.
constexpr std::uint64_t kHeatRefreshOps = 128;

/// REST worker slots (spawn-fcgi logical processes).
constexpr int kRestWorkers = 8;

}  // namespace

MyStore::MyStore(MyStoreConfig config)
    : config_(std::move(config)), front_heat_(config_.cache_heat) {
  cluster_ = std::make_unique<cluster::Cluster>(config_.cluster, config_.seed,
                                                config_.failures);
  cache_ = std::make_unique<cache::CachePool>(config_.cache_servers,
                                              config_.cache_bytes_per_server);
  tokens_ = std::make_unique<rest::TokenDb>(cluster_->loop()->clock());
  router_ = std::make_unique<rest::Router>(
      kRestWorkers, [this](int worker, const rest::Request& request) {
        return HandleOnWorker(worker, request);
      });
  key_generator_ = std::make_unique<bson::ObjectIdGenerator>(
      0xFACADEull, cluster_->loop()->clock());
}

MyStore::~MyStore() = default;

Status MyStore::Start() { return cluster_->Start(); }

void MyStore::NoteHeat(const std::string& key) {
  front_heat_.Record(key, cluster_->loop()->Now());
  if (++heat_ops_since_refresh_ >= kHeatRefreshOps) {
    heat_ops_since_refresh_ = 0;
    RefreshHotPins();
  }
}

void MyStore::RefreshHotPins() {
  const Micros now = cluster_->loop()->Now();
  // Unpin first: a pinned key that cooled down — or decayed out of the
  // sketch entirely — loses its pin here, so decay bounds every pin's
  // lifetime and a flash crowd cannot leak pinned bytes forever.
  for (auto it = pinned_keys_.begin(); it != pinned_keys_.end();) {
    if (!front_heat_.IsHot(*it, now)) {
      cache_->Unpin(*it);
      it = pinned_keys_.erase(it);
    } else {
      ++it;
    }
  }
  for (const cluster::HeatEntry& entry : front_heat_.Snapshot(now).top) {
    if (!front_heat_.IsHot(entry.key, now)) continue;
    if (cache_->Pin(entry.key)) pinned_keys_.insert(entry.key);
  }
}

void MyStore::MaybePinHot(const std::string& key) {
  if (!front_heat_.IsHot(key, cluster_->loop()->Now())) return;
  if (cache_->Pin(key)) pinned_keys_.insert(key);
}

void MyStore::GetAsync(const std::string& key, GetCb cb) {
  NoteHeat(key);
  Bytes cached;
  if (cache_->Get(key, &cached)) {
    cb(std::move(cached));
    return;
  }
  cluster_->Get(key, [this, key, cb = std::move(cb)](
                         const Result<bson::Document>& record) {
    if (!record.ok()) {
      cb(record.status());
      return;
    }
    if (RecordIsDeleted(*record)) {
      cb(Status::NotFound("key deleted: " + key));
      return;
    }
    Bytes value = RecordValue(*record);
    cache_->Put(key, value);  // read-through insert
    MaybePinHot(key);         // admission bias: hot keys stick immediately
    cb(std::move(value));
  });
}

void MyStore::PostAsync(const std::string& key, Bytes value, MutateCb cb) {
  NoteHeat(key);
  cluster_->Put(key, value, [this, key, value, cb = std::move(cb)](const Status& s) {
    if (s.ok()) {
      cache_->Put(key, value);  // write-through on success
      MaybePinHot(key);
    }
    cb(s);
  });
}

void MyStore::DeleteAsync(const std::string& key, MutateCb cb) {
  NoteHeat(key);
  cache_->Erase(key);
  pinned_keys_.erase(key);
  cluster_->Delete(key, std::move(cb));
}

Result<Bytes> MyStore::Get(const std::string& key) {
  NoteHeat(key);
  Bytes cached;
  if (cache_->Get(key, &cached)) return cached;
  auto value = cluster_->GetSync(key);
  if (value.ok()) {
    cache_->Put(key, *value);
    MaybePinHot(key);
  }
  return value;
}

Status MyStore::Post(const std::string& key, Bytes value) {
  NoteHeat(key);
  Status s = cluster_->PutSync(key, value);
  if (s.ok()) {
    cache_->Put(key, std::move(value));
    MaybePinHot(key);
  }
  return s;
}

Result<std::string> MyStore::PostNew(Bytes value) {
  const std::string key = key_generator_->Next().ToHex();
  HOTMAN_RETURN_IF_ERROR(Post(key, std::move(value)));
  return key;
}

Status MyStore::Delete(const std::string& key) {
  NoteHeat(key);
  cache_->Erase(key);
  pinned_keys_.erase(key);
  return cluster_->DeleteSync(key);
}

rest::Response MyStore::Handle(const rest::Request& request) {
  return router_->Dispatch(request);
}

rest::Response MyStore::HandleSigned(const std::string& user,
                                     const rest::Request& request) {
  rest::Response response;
  auto token_it = request.query.find("token");
  auto sig_it = request.query.find("signature");
  if (token_it == request.query.end() || sig_it == request.query.end()) {
    response.code = rest::StatusCode::kUnauthorized;
    response.error = "missing token/signature";
    return response;
  }
  auto secret = tokens_->SecretKeyOf(user);
  if (!secret.ok()) {
    response.code = rest::StatusCode::kUnauthorized;
    response.error = secret.status().ToString();
    return response;
  }
  // The signature covers the URI *without* the auth parameters.
  rest::Request unsigned_request = request;
  unsigned_request.query.erase("token");
  unsigned_request.query.erase("signature");
  if (!rest::VerifySignature(token_it->second, unsigned_request.Uri(), *secret,
                             sig_it->second)) {
    response.code = rest::StatusCode::kUnauthorized;
    response.error = "bad signature";
    return response;
  }
  Status consumed = tokens_->ConsumeToken(user, token_it->second);
  if (!consumed.ok()) {
    response.code = rest::StatusCode::kUnauthorized;
    response.error = consumed.ToString();
    return response;
  }
  return Handle(unsigned_request);
}

std::string MyStore::StatsJson() {
  std::string out = "{\"cluster\":" + cluster_->StatsJson();
  out += ",\"cache\":{\"servers\":" + std::to_string(cache_->num_servers());
  out += ",\"hits\":" + std::to_string(cache_->TotalHits());
  out += ",\"misses\":" + std::to_string(cache_->TotalMisses());
  out += ",\"pinned\":" + std::to_string(cache_->TotalPinned());
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f", cache_->HitRate());
  out += ",\"hit_rate\":";
  out += rate;
  out += "}";
  out += ",\"router\":" + router_->StatsJson();
  out += ",\"traces\":[";
  bool first = true;
  for (const metrics::TraceRecord& trace : cluster_->RecentTraces()) {
    if (!first) out += ',';
    first = false;
    out += trace.ToJson();
  }
  out += "]}";
  return out;
}

rest::Response MyStore::HandleOnWorker(int /*worker*/, const rest::Request& request) {
  rest::Response response;
  // Observability endpoint: a reserved path, not a data resource.
  if (request.method == rest::Method::kGet && request.path == "/stats") {
    response.code = rest::StatusCode::kOk;
    response.body = ToBytes(StatsJson());
    return response;
  }
  const std::string key = request.ResourceKey();
  switch (request.method) {
    case rest::Method::kGet: {
      if (key.empty()) {
        response.code = rest::StatusCode::kBadRequest;
        response.error = "GET requires a key";
        return response;
      }
      auto value = Get(key);
      if (!value.ok()) {
        response.code = value.status().IsNotFound()
                            ? rest::StatusCode::kNotFound
                            : rest::StatusCode::kServiceUnavailable;
        response.error = value.status().ToString();
        return response;
      }
      response.code = rest::StatusCode::kOk;
      response.body = std::move(*value);
      return response;
    }
    case rest::Method::kPost: {
      if (key.empty() || key == "data") {
        auto new_key = PostNew(request.body);
        if (!new_key.ok()) {
          response.code = rest::StatusCode::kServiceUnavailable;
          response.error = new_key.status().ToString();
          return response;
        }
        response.code = rest::StatusCode::kCreated;
        response.body = ToBytes(*new_key);
        return response;
      }
      Status s = Post(key, request.body);
      if (!s.ok()) {
        response.code = rest::StatusCode::kServiceUnavailable;
        response.error = s.ToString();
        return response;
      }
      response.code = rest::StatusCode::kOk;
      return response;
    }
    case rest::Method::kDelete: {
      if (key.empty()) {
        response.code = rest::StatusCode::kBadRequest;
        response.error = "DELETE must have a key";
        return response;
      }
      Status s = Delete(key);
      if (!s.ok() && !s.IsNotFound()) {
        response.code = rest::StatusCode::kServiceUnavailable;
        response.error = s.ToString();
        return response;
      }
      response.code = rest::StatusCode::kNoContent;
      return response;
    }
  }
  response.code = rest::StatusCode::kBadRequest;
  return response;
}

}  // namespace hotman::core
