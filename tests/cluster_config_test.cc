#include "cluster/config.h"

#include <gtest/gtest.h>

namespace hotman::cluster {
namespace {

TEST(ClusterConfigTest, PaperSetupIsValid) {
  ClusterConfig config = ClusterConfig::PaperSetup();
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.nodes.size(), 5u);
  EXPECT_EQ(config.replication_factor, 3);
  EXPECT_EQ(config.write_quorum, 2);
  EXPECT_EQ(config.read_quorum, 1);
  EXPECT_TRUE(config.nodes[0].is_seed);
  EXPECT_FALSE(config.nodes[1].is_seed);
}

TEST(ClusterConfigTest, UniformGeneratesDistinctAddresses) {
  ClusterConfig config = ClusterConfig::Uniform(4, 2, 64);
  ASSERT_EQ(config.nodes.size(), 4u);
  EXPECT_EQ(config.nodes[0].address, "db1:19870");
  EXPECT_EQ(config.nodes[3].address, "db4:19870");
  EXPECT_TRUE(config.nodes[1].is_seed);
  EXPECT_FALSE(config.nodes[2].is_seed);
  EXPECT_EQ(config.nodes[0].vnodes, 64);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ClusterConfigTest, QuorumArithmeticValidated) {
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.write_quorum = 4;  // > N = 3
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.write_quorum = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.write_quorum = 2;
  config.read_quorum = 9;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.read_quorum = 1;
  config.replication_factor = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(ClusterConfigTest, MembershipValidated) {
  ClusterConfig config;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // no nodes

  config = ClusterConfig::Uniform(3, /*seeds=*/0);
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // no seed

  config = ClusterConfig::Uniform(1, /*seeds=*/0);
  EXPECT_TRUE(config.Validate().ok());  // single node needs no seed
  // Single node can't hold W=2 though; N is a replication *target*.
  EXPECT_EQ(config.replication_factor, 3);

  config = ClusterConfig::Uniform(3);
  config.nodes[1].address = config.nodes[0].address;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // duplicate

  config = ClusterConfig::Uniform(3);
  config.nodes[2].vnodes = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  // A node's ring weight, capacity-scaled, is bounded like any other.
  config = ClusterConfig::Uniform(3);
  config.nodes[2].vnodes = hashring::kMaxVnodes + 1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.nodes[2].vnodes = hashring::kMaxVnodes;
  EXPECT_TRUE(config.Validate().ok());
  config.nodes[2].capacity = 2.0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(ClusterConfigTest, HighConsistencyAndHighAvailabilityPresets) {
  // §5.2.2: "If the system needs high consistency, then configures N = W
  // and R = 1 ... If the system needs high availability, configures W = 1."
  ClusterConfig consistent = ClusterConfig::Uniform(5);
  consistent.write_quorum = consistent.replication_factor;
  consistent.read_quorum = 1;
  EXPECT_TRUE(consistent.Validate().ok());

  ClusterConfig available = ClusterConfig::Uniform(5);
  available.write_quorum = 1;
  available.read_quorum = 1;
  EXPECT_TRUE(available.Validate().ok());
}

}  // namespace
}  // namespace hotman::cluster
