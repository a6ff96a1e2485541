#include "probes.h"

#include <string_view>

#include "bson/codec.h"
#include "bson/object_id.h"
#include "cluster/messages.h"
#include "cluster/replica_store.h"
#include "common.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/record.h"
#include "docstore/database.h"
#include "hashring/ring.h"
#include "net/frame.h"

namespace perfbench {
namespace {

using namespace hotman;  // NOLINT(google-build-using-namespace)

constexpr int kBatches = 101;
constexpr int kBatchCalls = 32;
constexpr int kCalls = kBatches * kBatchCalls;

/// Median over kBatches of the mean wall microseconds per call in a batch of
/// kBatchCalls calls; `fn(i)` makes call i of kCalls.
template <typename Fn>
double MicrosPerCall(Fn&& fn) {
  std::vector<double> per_call;
  int i = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = WallClock::now();
    for (int k = 0; k < kBatchCalls; ++k) fn(i++);
    per_call.push_back(MicrosBetween(start, WallClock::now()) / kBatchCalls);
  }
  return Median(per_call);
}

}  // namespace

std::string RunLayerProbes(const ProbeShape& shape, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  bson::ObjectIdGenerator ids(7, SystemClock::Default());
  const std::string origin = shape.ring_nodes.front();
  std::vector<std::size_t> picks(kCalls);
  for (std::size_t& p : picks) p = rng.Uniform(shape.keys.size());
  std::size_t sink = 0;  // keeps results observable

  // Records exactly as a coordinator builds them, newer than the preload.
  Micros ts = 1;
  auto record_of = [&](std::size_t i) {
    const std::string& key = shape.keys[i];
    return core::MakeRecord(ids.Next(), key,
                            MakeValue(key, kPreloadWriter, 0, shape.value_bytes),
                            /*is_copy=*/true, /*deleted=*/false, ts++, origin);
  };

  // bson: the put_replica body at the workload's value size.
  cluster::PutReplicaMsg put;
  put.req = 1;
  put.record = record_of(picks[0]);
  const bson::Document body = cluster::EncodePutReplica(put);
  std::string encoded;
  const double bson_encode = MicrosPerCall([&](int) {
    encoded.clear();
    bson::Encode(body, &encoded);
    sink += encoded.size();
  });
  const double bson_decode = MicrosPerCall([&](int) {
    bson::Document doc;
    sink += bson::Decode(encoded, &doc).ok() ? doc.size() : 0;
  });

  // net: one put_replica frame, encoded and read back through FrameReader.
  net::Message msg;
  msg.from = origin;
  msg.to = shape.ring_nodes.back();
  msg.type = cluster::kMsgPutReplica;
  msg.body = body;
  std::string frame;
  const double frame_encode = MicrosPerCall([&](int) {
    frame.clear();
    net::EncodeFrame(msg, &frame);
    sink += frame.size();
  });
  net::FrameReader reader;
  const double frame_decode = MicrosPerCall([&](int) {
    reader.Append(frame);
    net::Message out;
    bool complete = false;
    sink += reader.Next(&out, &complete).ok() && complete ? out.body.size() : 0;
  });

  // docstore: LWW upserts and key lookups on a store holding every key.
  docstore::Database db("perfbench", 1, SystemClock::Default());
  cluster::ReplicaStore store(&db, "records");
  Status init = store.Init();
  for (std::size_t i = 0; i < shape.keys.size() && init.ok(); ++i) {
    init = store.Apply(record_of(i)).status();
  }
  std::vector<bson::Document> newer;
  newer.reserve(kCalls);
  for (const std::size_t p : picks) newer.push_back(record_of(p));
  const double apply = MicrosPerCall([&](int i) {
    sink += store.Apply(newer[static_cast<std::size_t>(i)]).ok() ? 1 : 0;
  });
  const double get_by_key = MicrosPerCall([&](int i) {
    sink += store.GetByKey(shape.keys[picks[static_cast<std::size_t>(i)]]).ok() ? 1 : 0;
  });

  // hashring: the coordinator's replica placement.
  hashring::Ring ring;
  for (const std::string& node : shape.ring_nodes) {
    ring.AddNode(node, shape.vnodes).ok();
  }
  const double preference = MicrosPerCall([&](int i) {
    sink += ring.PreferenceList(shape.keys[picks[static_cast<std::size_t>(i)]],
                                static_cast<std::size_t>(shape.replicas))
                .size();
  });

  return JsonObject()
      .Num("net.encode_frame_us", frame_encode)
      .Num("net.decode_frame_us", frame_decode)
      .Num("bson.encode_record_us", bson_encode)
      .Num("bson.decode_record_us", bson_decode)
      .Num("docstore.apply_us", apply)
      .Num("docstore.get_by_key_us", get_by_key)
      .Num("hashring.preference_list_us", preference)
      .Int("probe_sink", static_cast<std::int64_t>(sink % 1000003))
      .Int("probe_store_ok", init.ok() ? 1 : 0)
      .Done();
}

}  // namespace perfbench
