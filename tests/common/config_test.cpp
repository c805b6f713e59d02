#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "cluster/env.hpp"
#include "common/error.hpp"

namespace lots {
namespace {

TEST(Config, DefaultsAreValid) {
  Config c;
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, RejectsBadNprocs) {
  Config c;
  c.nprocs = 0;
  EXPECT_THROW(c.validate(), UsageError);
  c.nprocs = 257;  // paper §5: designed to support up to 256 processes
  EXPECT_THROW(c.validate(), UsageError);
  c.nprocs = 256;
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, RejectsUnalignedDmm) {
  Config c;
  c.dmm_bytes = c.page_bytes * 4 + 1;
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, RejectsTinyDmm) {
  Config c;
  c.dmm_bytes = c.page_bytes * 2;
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, RejectsNonPow2Page) {
  Config c;
  c.page_bytes = 3000;
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, RejectsNegativeTimeScale) {
  Config c;
  c.net.time_scale = -1.0;
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, DiskBudgetNeedsASpillTarget) {
  // Past the local disk budget clean copies spill to the next rank's
  // disk; a one-rank run has no such rank.
  Config c;
  c.nprocs = 1;
  c.disk_capacity_bytes = 1u << 20;
  EXPECT_THROW(c.validate(), UsageError);
  c.nprocs = 2;
  EXPECT_NO_THROW(c.validate());
  c.nprocs = 1;
  c.disk_capacity_bytes = 0;  // unlimited: nothing ever spills
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, ReplicationIsTheCopyCount) {
  Config c;
  c.replication = 1;  // R counts copies: one copy is no replication at all
  EXPECT_THROW(c.validate(), UsageError);
  for (const int r : {0, 2, 3}) {
    c.replication = r;
    EXPECT_NO_THROW(c.validate()) << "R=" << r;
  }
  c.replication = -1;
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, KillSpecParsesEveryKillPoint) {
  using When = KillPoint::When;
  const auto pts = cluster::parse_kill_spec(
      "2:barrier:2,1:mid-barrier:3,3:in-recovery,0:after-recovery:2,1:barrier", 4);
  ASSERT_EQ(pts.size(), 5u);
  const KillPoint want[] = {{2, When::kBarrier, 2},
                            {1, When::kMidBarrier, 3},
                            {3, When::kInRecovery, 1},
                            {0, When::kAfterRecovery, 2},
                            {1, When::kBarrier, 1}};
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].rank, want[i].rank) << "point " << i;
    EXPECT_EQ(pts[i].when, want[i].when) << "point " << i;
    EXPECT_EQ(pts[i].n, want[i].n) << "point " << i;
  }

  // The worker side reads the same spec from LOTS_KILL.
  Config c;
  ::setenv(cluster::kEnvKill, "1:barrier:2,2:barrier:2", 1);
  EXPECT_TRUE(cluster::configure_robustness_from_env(c));
  ::unsetenv(cluster::kEnvKill);
  ASSERT_EQ(c.kill_points.size(), 2u);
  EXPECT_EQ(c.kill_points[1].rank, 2);
  EXPECT_EQ(c.kill_points[1].n, 2u);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, KillSpecRejectsMalformedInput) {
  for (const char* spec : {"1:sometime:2",      // unknown kind
                           "4:barrier:2",       // rank >= nprocs
                           "-1:barrier:2",      // negative rank
                           "1:barrier:0",       // n = 0 on a barrier kind
                           "1:mid-barrier:0",   // ... and on the mid-barrier kind
                           "1:barrier:2x",      // trailing junk in N
                           "1:barrier:2:3",     // trailing field
                           "1:barrier:2,",      // trailing comma
                           "x:barrier",         // non-numeric rank
                           "1"}) {              // no kind at all
    EXPECT_THROW(cluster::parse_kill_spec(spec, 4), UsageError) << spec;
  }
  Config c;
  c.kill_points = {{4, KillPoint::When::kBarrier, 1}};
  EXPECT_THROW(c.validate(), UsageError);
  c.kill_points = {{1, KillPoint::When::kBarrier, 0}};
  EXPECT_THROW(c.validate(), UsageError);
}

TEST(Config, LauncherEnvIntegersAreStrict) {
  Config c;
  ::setenv(cluster::kEnvThreads, "2x", 1);
  EXPECT_THROW(cluster::configure_threads_from_env(c), UsageError);
  ::unsetenv(cluster::kEnvThreads);

  ::setenv(cluster::kEnvCoordPort, "4000", 1);
  for (const auto& [var, bad] : {std::pair{cluster::kEnvNprocs, "4x"},
                                 std::pair{cluster::kEnvFaultSeed, "seven"}}) {
    ::setenv(cluster::kEnvNprocs, "4", 1);
    ::setenv(var, bad, 1);
    EXPECT_THROW(cluster::configure_from_env(c), UsageError) << var << "=" << bad;
    ::unsetenv(cluster::kEnvFaultSeed);
  }
  ::setenv(cluster::kEnvNprocs, "4", 1);
  ::setenv(cluster::kEnvFaultSeed, "9", 1);
  EXPECT_TRUE(cluster::configure_from_env(c));
  EXPECT_EQ(c.nprocs, 4);
  EXPECT_EQ(c.cluster.fault_seed, 9u);
  for (const char* var : {cluster::kEnvCoordPort, cluster::kEnvNprocs, cluster::kEnvFaultSeed}) {
    ::unsetenv(var);
  }
}

TEST(NetModel, CostIsLatencyPlusSerialization) {
  NetModel m;
  m.latency_us = 100;
  m.bandwidth_MBps = 10;  // 10 bytes per microsecond
  EXPECT_DOUBLE_EQ(m.cost_us(0), 100.0);
  EXPECT_DOUBLE_EQ(m.cost_us(1000), 200.0);
}

TEST(DiskModel, ZeroThroughputMeansUnmodeled) {
  DiskModel d;
  EXPECT_DOUBLE_EQ(d.cost_us(1 << 20), 0.0);
  d.throughput_MBps = 50;
  d.seek_us = 8000;
  EXPECT_GT(d.cost_us(1 << 20), 8000.0);
}

}  // namespace
}  // namespace lots
