// Golden chaos history hashes: CI's six smoke configurations, seeds 1-10.
//
// A chaos run is bit-deterministic, so its history hash pins the whole
// simulated schedule: message order, timer order, every read and write
// outcome. A refactor that must not change behaviour keeps every row
// below; a change that alters sim behaviour on purpose re-records the
// table and says why in CHANGES.md.
//
// Re-record a row with:
//   chaos_runner --seeds=1-10 --profile=P [--fast-reads] [--shards=2]

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos/harness.h"

namespace hotman::chaos {
namespace {

enum class Config {
  kQuorum,
  kQuorumFastReads,
  kConvergence,
  kConvergenceShards2,
  kMembership,
  kSkew,
};

const char* Name(Config config) {
  switch (config) {
    case Config::kQuorum: return "quorum";
    case Config::kQuorumFastReads: return "quorum --fast-reads";
    case Config::kConvergence: return "convergence";
    case Config::kConvergenceShards2: return "convergence --shards=2";
    case Config::kMembership: return "membership";
    case Config::kSkew: return "skew";
  }
  return "?";
}

// Same option mapping as tools/chaos_runner.cc for these flags.
ChaosOptions OptionsFor(Config config, std::uint64_t seed) {
  switch (config) {
    case Config::kQuorum: return ChaosOptions::QuorumProfile(seed);
    case Config::kQuorumFastReads: {
      ChaosOptions options = ChaosOptions::QuorumProfile(seed);
      options.fast_reads = true;
      return options;
    }
    case Config::kConvergence: return ChaosOptions::ConvergenceProfile(seed);
    case Config::kConvergenceShards2: {
      ChaosOptions options = ChaosOptions::ConvergenceProfile(seed);
      options.shards = 2;
      return options;
    }
    case Config::kMembership: return ChaosOptions::MembershipProfile(seed);
    case Config::kSkew: return ChaosOptions::SkewProfile(seed);
  }
  return ChaosOptions::QuorumProfile(seed);
}

struct Golden {
  Config config;
  std::uint64_t seed;
  const char* hash;
};

// Skew seeds 3, 7 and 9 include a hot-read demotion.
constexpr Golden kGolden[] = {
    {Config::kQuorum, 1, "0c5d83d7a44654d6e5ae126b9f4d97fb"},
    {Config::kQuorum, 2, "56f20fbe5df64ed7264b32a3382996dc"},
    {Config::kQuorum, 3, "f8ca71392769961a6ff4c9f5904eb045"},
    {Config::kQuorum, 4, "846f2e98cef25172972bd50501f87523"},
    {Config::kQuorum, 5, "0e7ded571921d58b0bc7b106435939be"},
    {Config::kQuorum, 6, "f767067b716d2d47319baeedf26eaafc"},
    {Config::kQuorum, 7, "824f390098222de31e9b9d0b084207ea"},
    {Config::kQuorum, 8, "623c66dd4ff15e17c37d916f45043da3"},
    {Config::kQuorum, 9, "22619a5390df494c7ab0f7f5ff8ad6f9"},
    {Config::kQuorum, 10, "3d703d7f6b5e71a6665ed854c449314c"},
    {Config::kQuorumFastReads, 1, "28b6b250f649be0b1613dbf56581a9d6"},
    {Config::kQuorumFastReads, 2, "a6624557e9b8d00a9ac222881e05d02c"},
    {Config::kQuorumFastReads, 3, "86ef9ac2840b92d5bb8d7d41fa55cc21"},
    {Config::kQuorumFastReads, 4, "68b3c274f6ecf466afc568c11eda4f52"},
    {Config::kQuorumFastReads, 5, "f6e46b97958988d877cce1f501152968"},
    {Config::kQuorumFastReads, 6, "26d6de1ea67c0df5976ba83053055a1b"},
    {Config::kQuorumFastReads, 7, "4af620de5f4aa19a4b0e1648f636824c"},
    {Config::kQuorumFastReads, 8, "e5a71407625cc36db11c136aafb5b56a"},
    {Config::kQuorumFastReads, 9, "a1df4852172dbb001a8f226d1225d1d2"},
    {Config::kQuorumFastReads, 10, "23a1a387eb69923358bbebde5933a375"},
    {Config::kConvergence, 1, "59efff6b045b25c95f82a55c140fd490"},
    {Config::kConvergence, 2, "4a6862482066ad1c4f6bb8be6bb63ade"},
    {Config::kConvergence, 3, "f3b391a0157b7528167fa1ed3ce7b1f8"},
    {Config::kConvergence, 4, "199b8e0fb8e957e7e5bd4075f92a2c4a"},
    {Config::kConvergence, 5, "014f9a487135e46ea07b4032ed6a2324"},
    {Config::kConvergence, 6, "2cc39f60f215493c3b5207d5826c1c2a"},
    {Config::kConvergence, 7, "99eb1f0fa4d7f088e9117e43fc6bd064"},
    {Config::kConvergence, 8, "a16b59e004039c3a9792dac25633c888"},
    {Config::kConvergence, 9, "6ac7e9a28ab493ace491013889b89235"},
    {Config::kConvergence, 10, "90f3d20a26532359cb621692dd0a16bb"},
    {Config::kConvergenceShards2, 1, "59efff6b045b25c95f82a55c140fd490"},
    {Config::kConvergenceShards2, 2, "4a6862482066ad1c4f6bb8be6bb63ade"},
    {Config::kConvergenceShards2, 3, "f3b391a0157b7528167fa1ed3ce7b1f8"},
    {Config::kConvergenceShards2, 4, "199b8e0fb8e957e7e5bd4075f92a2c4a"},
    {Config::kConvergenceShards2, 5, "014f9a487135e46ea07b4032ed6a2324"},
    {Config::kConvergenceShards2, 6, "2cc39f60f215493c3b5207d5826c1c2a"},
    {Config::kConvergenceShards2, 7, "99eb1f0fa4d7f088e9117e43fc6bd064"},
    {Config::kConvergenceShards2, 8, "a16b59e004039c3a9792dac25633c888"},
    {Config::kConvergenceShards2, 9, "6ac7e9a28ab493ace491013889b89235"},
    {Config::kConvergenceShards2, 10, "90f3d20a26532359cb621692dd0a16bb"},
    {Config::kMembership, 1, "eaee495c3c797435fa3049b7d87ef48d"},
    {Config::kMembership, 2, "2341636a1442c11ee3a57c13ef115060"},
    {Config::kMembership, 3, "473d1b03c9cad2e2762e9a1ef1abbb9c"},
    {Config::kMembership, 4, "b1bdbd522760feaccb82e182a42eab34"},
    {Config::kMembership, 5, "c9da98744edd97a52a87f7f652f4dfa6"},
    {Config::kMembership, 6, "8d450e6d1e35d88d6e2ac2852bc9c2c7"},
    {Config::kMembership, 7, "888bb0097bfc9aacaba34bcca2680a42"},
    {Config::kMembership, 8, "3b55766fd7c3ba5a2272e5e8ab6388f0"},
    {Config::kMembership, 9, "9c31fef1c0e49e3b95804851940d2616"},
    {Config::kMembership, 10, "4c1338fc618ab75e8fde4e3c732c1905"},
    {Config::kSkew, 1, "9aae578959a31ab418e020e33a9522c7"},
    {Config::kSkew, 2, "d11e963c841ae09a49b0196d330539ac"},
    {Config::kSkew, 3, "e86c0f3a3aab9e607a53af55e0f00340"},
    {Config::kSkew, 4, "0ded55c2767173bd7b6120730742bedb"},
    {Config::kSkew, 5, "19bd362faf47cd20af0c4af46f0490cf"},
    {Config::kSkew, 6, "0564d30b66dd10c8b9d4b16d95ccd7b3"},
    {Config::kSkew, 7, "ef521ad28e2cc49cd3a4c2ff13db50a8"},
    {Config::kSkew, 8, "e502ec301fc44fb641a98443e70d0856"},
    {Config::kSkew, 9, "4b09284c10490b63bc26e44ef9212d8b"},
    {Config::kSkew, 10, "024636fad3ac45200a323c694f8ef06c"},
};

TEST(ChaosGolden, SmokeConfigurationsReproducePinnedHashes) {
  for (const Golden& golden : kGolden) {
    const ChaosResult result = RunChaos(OptionsFor(golden.config, golden.seed));
    EXPECT_EQ(result.history_hash, golden.hash)
        << "chaos_runner --seed=" << golden.seed
        << " --profile=" << Name(golden.config);
    EXPECT_TRUE(result.ok()) << Name(golden.config) << " seed " << golden.seed
                             << ": " << result.report.Summary();
  }
}

}  // namespace
}  // namespace hotman::chaos
