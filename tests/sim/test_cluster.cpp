#include "sim/cluster.h"

#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "sim/profile.h"

namespace dras::sim {
namespace {

using dras::testing::make_job;

TEST(Cluster, StartsIdle) {
  Cluster cluster(100);
  EXPECT_EQ(cluster.total_nodes(), 100);
  EXPECT_EQ(cluster.free_nodes(), 100);
  EXPECT_EQ(cluster.used_nodes(), 0);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
}

TEST(Cluster, RejectsNonPositiveSize) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
  EXPECT_THROW(Cluster(-5), std::invalid_argument);
}

TEST(Cluster, AllocateAndRelease) {
  Cluster cluster(10);
  const Job job = make_job(1, 0, 6, 100);
  EXPECT_TRUE(cluster.allocate(job, 0.0));
  EXPECT_EQ(cluster.free_nodes(), 4);
  EXPECT_EQ(cluster.running_count(), 1u);
  const auto rec = cluster.release(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->size, 6);
  EXPECT_EQ(cluster.free_nodes(), 10);
}

TEST(Cluster, AllocationFailsWhenTooBig) {
  Cluster cluster(10);
  EXPECT_TRUE(cluster.allocate(make_job(1, 0, 8, 100), 0.0));
  EXPECT_FALSE(cluster.allocate(make_job(2, 0, 3, 100), 0.0));
  EXPECT_EQ(cluster.free_nodes(), 2);  // unchanged by the failure
}

TEST(Cluster, ReleaseUnknownJobReturnsNullopt) {
  Cluster cluster(10);
  EXPECT_FALSE(cluster.release(99).has_value());
}

TEST(Cluster, RunningRecordTracksEstimatedAndActualEnd) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 2, /*runtime=*/50, /*estimate=*/80), 100.0);
  const RunningJob* rec = cluster.find_running(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->start, 100.0);
  EXPECT_DOUBLE_EQ(rec->estimated_end, 180.0);
  EXPECT_DOUBLE_EQ(rec->actual_end, 150.0);
}

// Earliest starts and estimated releases are planned through the
// availability profile; with no reservation it reads the cluster alone.

TEST(Cluster, EarliestStartNowWhenFits) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 4, 100), 0.0);
  const AvailabilityProfile profile(cluster, {}, 5.0);
  EXPECT_DOUBLE_EQ(profile.earliest_start(6, 50.0), 5.0);
}

TEST(Cluster, EarliestStartWaitsForReleases) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 6, 100), 0.0);   // est end 100
  cluster.allocate(make_job(2, 0, 4, 200), 0.0);   // est end 200
  // free=0 now; after job1 ends: 6 free; after job2: 10 free.
  const AvailabilityProfile profile(cluster, {}, 0.0);
  EXPECT_DOUBLE_EQ(profile.earliest_start(6, 50.0), 100.0);
  EXPECT_DOUBLE_EQ(profile.earliest_start(8, 50.0), 200.0);
}

TEST(Cluster, EarliestStartUsesEstimatesNotActuals) {
  Cluster cluster(4);
  cluster.allocate(make_job(1, 0, 4, /*runtime=*/10, /*estimate=*/100), 0.0);
  const AvailabilityProfile profile(cluster, {}, 0.0);
  EXPECT_DOUBLE_EQ(profile.earliest_start(4, 50.0), 100.0);
}

TEST(Cluster, ReleasedByCountsEstimatedReleases) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 3, 100), 0.0);
  cluster.allocate(make_job(2, 0, 4, 200), 0.0);
  const AvailabilityProfile profile(cluster, {}, 0.0);
  const auto released_by = [&](Time t) {
    return profile.available_at(t) - cluster.free_nodes();
  };
  EXPECT_EQ(released_by(50.0), 0);
  EXPECT_EQ(released_by(100.0), 3);
  EXPECT_EQ(released_by(250.0), 7);
}

TEST(Cluster, EncodeNodesLayout) {
  Cluster cluster(5);
  cluster.allocate(make_job(1, 0, 2, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(10.0, rows);
  ASSERT_EQ(rows.size(), 5u);
  // Busy nodes first, with release delta 90.
  EXPECT_EQ(rows[0].available, 0.0f);
  EXPECT_FLOAT_EQ(rows[0].release_delta, 90.0f);
  EXPECT_EQ(rows[1].available, 0.0f);
  // Free nodes afterwards with zero delta (§III-A).
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(rows[i].available, 1.0f);
    EXPECT_EQ(rows[i].release_delta, 0.0f);
  }
}

TEST(Cluster, EncodeNodesOrdersByReleaseTime) {
  Cluster cluster(4);
  cluster.allocate(make_job(1, 0, 1, 300), 0.0);
  cluster.allocate(make_job(2, 0, 1, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(0.0, rows);
  EXPECT_FLOAT_EQ(rows[0].release_delta, 100.0f);
  EXPECT_FLOAT_EQ(rows[1].release_delta, 300.0f);
}

TEST(Cluster, EncodeNodesClampsPastDueReleases) {
  Cluster cluster(2);
  cluster.allocate(make_job(1, 0, 1, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(500.0, rows);  // "now" is past the estimated end
  EXPECT_FLOAT_EQ(rows[0].release_delta, 0.0f);
}

TEST(Cluster, ClearResetsEverything) {
  Cluster cluster(8);
  cluster.allocate(make_job(1, 0, 8, 100), 0.0);
  cluster.clear();
  EXPECT_EQ(cluster.free_nodes(), 8);
  EXPECT_EQ(cluster.running_count(), 0u);
}

TEST(Cluster, UtilizationReflectsUsage) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 5, 100), 0.0);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.5);
}

}  // namespace
}  // namespace dras::sim
