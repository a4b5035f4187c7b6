// The classic EASY legality rule (tests/sim/easy_reference.h) on
// hand-built states, each also checked against the simulator's rule at
// every depth: the job fits and the availability profile stays
// satisfiable for its estimate.
#include "easy_reference.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../test_helpers.h"
#include "sim/profile.h"

namespace dras::sim {
namespace {

using dras::testing::make_job;
using reference::backfill_candidates;

/// The simulator's start rule against one reservation.
bool profile_legal(const Cluster& cluster, const Reservation& reservation,
                   const Job& job, Time now) {
  if (job.id == reservation.job) return false;
  const AvailabilityProfile profile(
      cluster, std::span<const Reservation>(&reservation, 1), now);
  return cluster.fits(job.size) &&
         profile.can_start_now(job.size, job.runtime_estimate);
}

/// EASY's verdict, after checking that the profile agrees.
bool backfill_legal(const Cluster& cluster, const Reservation& reservation,
                    const Job& job, Time now) {
  const bool easy = reference::backfill_legal(cluster, reservation, job, now);
  EXPECT_EQ(profile_legal(cluster, reservation, job, now), easy)
      << "job " << job.id << " at t=" << now;
  return easy;
}

class BackfillTest : public ::testing::Test {
 protected:
  // 10-node machine: 6 nodes busy until t=100 (estimated), 4 free.
  // Reservation: 10 nodes at t=100 for job 50 (estimate 50).
  BackfillTest() : cluster_(10) {
    cluster_.allocate(make_job(1, 0, 6, 100), 0.0);
    reservation_ = Reservation{50, 10, 100.0, 50.0};
  }
  Cluster cluster_;
  Reservation reservation_;
};

TEST_F(BackfillTest, ShortJobFittingFreeNodesIsLegal) {
  // 4 nodes, finishes by t=100 -> cannot delay the reservation.
  const Job job = make_job(2, 0, 4, 50, 80);
  EXPECT_TRUE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST_F(BackfillTest, JobTooBigForFreeNodesIsIllegal) {
  const Job job = make_job(2, 0, 5, 10, 10);
  EXPECT_FALSE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST_F(BackfillTest, LongJobDelayingReservationIsIllegal) {
  // 4 nodes but estimated to run past t=100; at t=100 the machine would
  // only have 10 - 4 = 6 nodes for a 10-node reservation.
  const Job job = make_job(2, 0, 4, 200, 200);
  EXPECT_FALSE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST_F(BackfillTest, EstimateNotActualGovernsLegality) {
  // Actual runtime is short, but the estimate crosses the reservation;
  // EASY must use the estimate.
  const Job job = make_job(2, 0, 4, /*runtime=*/10, /*estimate=*/500);
  EXPECT_FALSE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST_F(BackfillTest, ReservedJobItselfNeverBackfills) {
  const Job job = make_job(50, 0, 2, 10, 10);
  EXPECT_FALSE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST_F(BackfillTest, BoundaryFinishExactlyAtReservationIsLegal) {
  const Job job = make_job(2, 0, 4, 100, 100);  // ends exactly at t=100
  EXPECT_TRUE(backfill_legal(cluster_, reservation_, job, 0.0));
}

TEST(BackfillExtraNodes, LongJobOnSpareNodesIsLegal) {
  // 10 nodes, 2 busy until 100; reservation needs 6 at t=100.
  // A long 2-node job leaves 10 - 2 - 2 = 6... releases by 100: 2.
  // free(8) - size(2) + released(2) = 8 >= 6 -> legal even though it runs
  // past the reserved start (it uses nodes the reservation does not need).
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 2, 100), 0.0);
  const Reservation reservation{50, 6, 100.0, 50.0};
  const Job job = make_job(2, 0, 2, 1000, 1000);
  EXPECT_TRUE(backfill_legal(cluster, reservation, job, 0.0));
}

TEST(BackfillExtraNodes, ExactCoverBoundary) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 2, 100), 0.0);
  const Reservation reservation{50, 8, 100.0, 50.0};
  // free 8, released by 100: 2.  A long 2-node job: 8 - 2 + 2 = 8 >= 8 OK.
  EXPECT_TRUE(backfill_legal(cluster, reservation,
                             make_job(2, 0, 2, 1000, 1000), 0.0));
  // A long 3-node job: 8 - 3 + 2 = 7 < 8 -> illegal.
  EXPECT_FALSE(backfill_legal(cluster, reservation,
                              make_job(3, 0, 3, 1000, 1000), 0.0));
}

TEST_F(BackfillTest, CandidatesPreserveArrivalOrderAndFilter) {
  Job a = make_job(2, 0, 4, 50, 50);    // legal
  Job b = make_job(3, 1, 5, 10, 10);    // too big for free nodes
  Job c = make_job(4, 2, 2, 30, 30);    // legal
  Job d = make_job(5, 3, 4, 500, 500);  // would delay reservation
  const std::vector<Job*> queue = {&a, &b, &c, &d};
  const auto candidates =
      backfill_candidates(cluster_, reservation_, queue, 0.0);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->id, 2);
  EXPECT_EQ(candidates[1]->id, 4);
  std::vector<Job*> by_profile;
  for (Job* job : queue)
    if (profile_legal(cluster_, reservation_, *job, 0.0))
      by_profile.push_back(job);
  EXPECT_EQ(by_profile, candidates);
}

TEST(BackfillStale, ProfileCountsReleasesUpToNowNotUpToAPastStart) {
  // The one state where the rules differ: a reservation whose start has
  // passed while jobs overran their estimates (checkpoint I/O under fault
  // injection).  10 nodes; job 1 (6 nodes, est end 100) and job 2
  // (2 nodes, est end 120) are both still running at now = 150; the
  // reservation wants 8 nodes from t = 100.
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 6, 100), 0.0);
  cluster.allocate(make_job(2, 0, 2, 120), 0.0);
  const Reservation stale{50, 8, 100.0, 50.0};
  const Job job = make_job(3, 0, 2, 10, 10);
  // EASY: free 2 - 2 + released by t=100 (6) = 6 < 8.
  EXPECT_FALSE(reference::backfill_legal(cluster, stale, job, 150.0));
  // Profile: free 2 + overdue releases 8 - claim 8 = 2 >= 2.
  EXPECT_TRUE(profile_legal(cluster, stale, job, 150.0));
}

}  // namespace
}  // namespace dras::sim
