// Property and fuzz tests for the simulator substrate.
#include <gtest/gtest.h>

#include <map>

#include "../test_helpers.h"
#include "sched/fcfs_easy.h"
#include "sched/priority_sched.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::sim {
namespace {

using dras::testing::LambdaScheduler;

// --- EASY guarantee: a reservation is never delayed ----------------------
//
// Whenever a reservation (job j, start t_r) is created, job j must start
// no later than t_r, whatever gets backfilled afterwards.  This is the
// correctness property of the availability profile + the sticky
// reservation ledger.

class EasyGuarantee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EasyGuarantee, ReservedStartNeverExceedsReservedTime) {
  workload::WorkloadModel model = workload::theta_mini_workload();
  workload::GenerateOptions gen;
  gen.num_jobs = 400;
  gen.seed = GetParam();
  gen.load_scale = 1.3;  // saturated: plenty of reservations
  const Trace trace = workload::generate_trace(model, gen);

  Simulator sim(model.system_nodes);
  std::map<JobId, Time> promised;  // job -> latest reserved start promised
  sim.set_action_observer([&](const SchedulingContext& ctx, const Job& job) {
    if (ctx.reservation().active() && ctx.reservation().get().job == job.id)
      promised[job.id] = ctx.reservation().get().start;
  });
  sched::FcfsEasy fcfs;
  const auto result = sim.run(trace, fcfs);

  ASSERT_FALSE(promised.empty()) << "workload produced no reservations";
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  for (const auto& [id, reserved_start] : promised) {
    ASSERT_TRUE(by_id.contains(id));
    EXPECT_LE(by_id.at(id).start, reserved_start + 1e-6)
        << "job " << id << " was delayed past its reservation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EasyGuarantee,
                         ::testing::Values(3u, 7u, 11u, 19u, 23u));

// --- Fuzz: adversarial policies cannot corrupt the simulator -------------

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, RandomActionStormKeepsInvariants) {
  workload::WorkloadModel model = workload::theta_mini_workload();
  workload::GenerateOptions gen;
  gen.num_jobs = 200;
  gen.seed = GetParam();
  const Trace trace = workload::generate_trace(model, gen);

  util::Rng rng(GetParam() * 977 + 13);
  LambdaScheduler chaos([&](SchedulingContext& ctx) {
    // A burst of arbitrary actions, many illegal: bogus ids, reserves of
    // fitting jobs, backfills without reservations, double starts.
    for (int i = 0; i < 20; ++i) {
      const auto roll = rng.uniform_index(6);
      JobId id = kInvalidJob;
      if (!ctx.queue().empty())
        id = ctx.queue()[rng.uniform_index(ctx.queue().size())]->id;
      if (roll == 5) id = static_cast<JobId>(rng.uniform_index(1000000));
      switch (roll % 3) {
        case 0: (void)ctx.start_now(id); break;
        case 1: (void)ctx.reserve(id); break;
        case 2: (void)ctx.backfill(id); break;
      }
    }
  });

  Simulator sim(model.system_nodes);
  const auto result = sim.run(trace, chaos);

  // Whatever the policy did: completed jobs have consistent timestamps
  // and the machine was never over-allocated.
  std::vector<std::pair<double, int>> deltas;
  for (const JobRecord& rec : result.jobs) {
    EXPECT_GE(rec.start, rec.submit);
    EXPECT_GE(rec.end, rec.start);
    deltas.emplace_back(rec.start, rec.size);
    deltas.emplace_back(rec.end, -rec.size);
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  int in_use = 0;
  for (const auto& [time, delta] : deltas) {
    in_use += delta;
    EXPECT_LE(in_use, model.system_nodes);
  }
  EXPECT_LE(result.jobs.size(), trace.size());
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// --- Sticky reservation semantics ----------------------------------------

TEST(StickyReservation, AutoStartsWhenItFits) {
  using dras::testing::make_job;
  Simulator sim(4);
  bool reserved_once = false;
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      (void)ctx.start_now(1);
      return;
    }
    if (!reserved_once && !ctx.reservation().active()) {
      reserved_once = ctx.reserve(2);
    }
    // Crucially: never start job 2 explicitly — the environment must.
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 1, 4, 50)};
  const auto result = sim.run(trace, policy);
  ASSERT_EQ(result.jobs.size(), 2u);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 100.0);
  EXPECT_EQ(by_id.at(2).mode, ExecMode::Reserved);
}

TEST(StickyReservation, PersistsAcrossInstances) {
  using dras::testing::make_job;
  Simulator sim(4);
  int active_instances = 0;
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      (void)ctx.start_now(1);
      (void)ctx.reserve(2);
      return;
    }
    if (ctx.reservation().active()) {
      ++active_instances;
      EXPECT_EQ(ctx.reservation().get().job, 2);
      // A second reservation is rejected while one is outstanding.
      EXPECT_FALSE(ctx.reserve(3));
    }
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 0, 4, 50),
                       make_job(3, 10, 4, 50), make_job(4, 20, 4, 50)};
  (void)sim.run(trace, policy);
  EXPECT_GE(active_instances, 2);  // instances at t=10 and t=20
}

TEST(StickyReservation, EarlyCompletionStartsReservedJobEarly) {
  using dras::testing::make_job;
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  // Estimate 1000 but actual 50: the reserved job must start at t=50.
  const Trace trace = {make_job(1, 0, 4, 50, 1000), make_job(2, 1, 4, 10)};
  const auto result = sim.run(trace, fcfs);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 50.0);
}

}  // namespace
}  // namespace dras::sim
