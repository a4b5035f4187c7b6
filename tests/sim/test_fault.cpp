// Fault-injection engine (sim/fault.h + the Simulator fault paths):
// zero-MTBF identity with the fault-free simulator, deterministic
// failure streams, kill/requeue/resubmit/drop semantics, checkpoint
// I/O interference on the shared channel, and scheduler survival.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "../test_helpers.h"
#include "sched/bin_packing.h"
#include "sched/fcfs_easy.h"
#include "sched/priority_sched.h"
#include "sched/random_policy.h"
#include "sim/simulator.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::sim {
namespace {

using dras::testing::make_job;

Trace model_trace(std::size_t jobs, std::uint64_t seed) {
  workload::GenerateOptions options;
  options.num_jobs = jobs;
  options.seed = seed;
  return workload::generate_trace(workload::theta_mini_workload(), options);
}

/// A fault config that certainly kills jobs: per-node MTBF of 400 s on a
/// 16-node machine is one failure every 25 s on average.
FaultConfig heavy_faults() {
  FaultConfig config;
  config.mtbf = 400.0;
  config.repair_time = 50.0;
  config.ckpt_interval = 100.0;
  config.ckpt_seconds_per_node = 1.0;
  config.io_bandwidth = 1.0;
  config.seed = 7;
  return config;
}

bool records_equal(const JobRecord& a, const JobRecord& b) {
  return a.id == b.id && a.size == b.size && a.priority == b.priority &&
         a.submit == b.submit && a.start == b.start && a.end == b.end &&
         a.mode == b.mode && a.requeues == b.requeues &&
         a.wasted_node_seconds == b.wasted_node_seconds;
}

TEST(RequeuePolicy, ToStringAndParseRoundTrip) {
  for (const auto policy : {RequeuePolicy::Requeue, RequeuePolicy::Resubmit,
                            RequeuePolicy::Drop})
    EXPECT_EQ(parse_requeue_policy(to_string(policy)), policy);
  EXPECT_THROW((void)parse_requeue_policy("vanish"), std::invalid_argument);
}

TEST(FaultConfig, DefaultIsDisabled) {
  const FaultConfig config;
  EXPECT_FALSE(config.failures_active());
  EXPECT_FALSE(config.checkpoints_active());
  EXPECT_FALSE(config.enabled());
}

TEST(FaultConfig, ZeroMtbfWithSeedStaysDisabled) {
  // The --mtbf 0 contract: a config whose knobs are all neutral must not
  // enable the fault engine no matter what seed rides along.
  FaultConfig config;
  config.seed = 424242;
  config.repair_time = 60.0;
  EXPECT_FALSE(config.enabled());
}

TEST(FaultStats, MergeAccumulates) {
  FaultStats a{1, 2, 3, 4, 5.0};
  const FaultStats b{10, 20, 30, 40, 50.0};
  a.merge(b);
  EXPECT_EQ(a, (FaultStats{11, 22, 33, 44, 55.0}));
}

// The acceptance contract: --mtbf 0 is byte-identical to the pre-fault
// simulator.  Same trace, same policy, one simulator with a disabled
// fault config installed — every job record must match exactly.
TEST(SimulatorFaults, DisabledConfigIsIdenticalToFaultFree) {
  const Trace trace = model_trace(80, 11);
  sched::FcfsEasy fcfs_a;
  sched::FcfsEasy fcfs_b;

  Simulator plain(272);
  const auto baseline = plain.run(trace, fcfs_a);

  Simulator configured(272);
  FaultConfig disabled;
  disabled.seed = 999;  // a seed alone must not change anything
  configured.set_fault_config(disabled);
  const auto result = configured.run(trace, fcfs_b);

  EXPECT_EQ(result.faults, FaultStats{});
  ASSERT_EQ(result.jobs.size(), baseline.jobs.size());
  for (std::size_t i = 0; i < result.jobs.size(); ++i)
    EXPECT_TRUE(records_equal(result.jobs[i], baseline.jobs[i])) << i;
  EXPECT_EQ(result.unfinished_jobs, baseline.unfinished_jobs);
  EXPECT_DOUBLE_EQ(result.utilization, baseline.utilization);
  EXPECT_DOUBLE_EQ(result.makespan, baseline.makespan);
}

// Same (config, trace, policy) triple twice -> identical outcome, the
// reproducibility half of the determinism contract.
TEST(SimulatorFaults, SameSeedReproducesExactly) {
  const Trace trace = model_trace(40, 5);
  FaultConfig config = heavy_faults();
  // Scaled for the 272-node machine: one failure every ~25 sim-minutes.
  // Much heavier and the largest jobs are killed faster than they can
  // bank a checkpoint — a livelock, not a scheduling problem.
  config.mtbf = 400000.0;

  SimulationResult results[2];
  for (auto& result : results) {
    sched::FcfsEasy fcfs;
    Simulator simulator(272);
    simulator.set_fault_config(config);
    result = simulator.run(trace, fcfs);
  }
  EXPECT_EQ(results[0].faults, results[1].faults);
  ASSERT_EQ(results[0].jobs.size(), results[1].jobs.size());
  for (std::size_t i = 0; i < results[0].jobs.size(); ++i)
    EXPECT_TRUE(records_equal(results[0].jobs[i], results[1].jobs[i])) << i;
  EXPECT_GT(results[0].faults.node_failures, 0u);
}

// A long job under heavy failures: kills happen, requeues preserve the
// job's identity and submit time, checkpoints bound the lost work, and
// the job still completes.
TEST(SimulatorFaults, KillRequeuePreservesIdentityAndAccountsWaste) {
  Simulator simulator(16);
  simulator.set_fault_config(heavy_faults());
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 4, 2000)};
  const auto result = simulator.run(trace, fcfs);

  EXPECT_EQ(result.unfinished_jobs, 0u);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& record = result.jobs[0];
  EXPECT_EQ(record.id, 1);
  // Expected kills ~ 2000 s * (1/400 per node-second) * 4/16 hit share
  // = 20; the probability of zero at this seed is e^-20.
  EXPECT_GT(result.faults.node_failures, 0u);
  EXPECT_GT(result.faults.job_kills, 0u);
  EXPECT_EQ(result.faults.requeues, result.faults.job_kills);
  EXPECT_GT(result.faults.checkpoints, 0u);
  EXPECT_EQ(record.requeues, static_cast<int>(result.faults.requeues));
  // Requeue keeps the original submit time: waits accumulate.
  EXPECT_DOUBLE_EQ(record.submit, 0.0);
  // Work was destroyed and accounted, and the completing incarnation
  // finished later than a fault-free run would have.
  EXPECT_GT(result.faults.wasted_node_seconds, 0.0);
  EXPECT_DOUBLE_EQ(record.wasted_node_seconds,
                   result.faults.wasted_node_seconds);
  EXPECT_GT(record.end, 2000.0);
}

TEST(SimulatorFaults, ResubmitRestampsSubmitTime) {
  FaultConfig config = heavy_faults();
  config.requeue = RequeuePolicy::Resubmit;
  Simulator simulator(16);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 4, 2000)}, fcfs);

  EXPECT_EQ(result.unfinished_jobs, 0u);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_GT(result.faults.job_kills, 0u);
  // Resubmit re-stamps the submit time at the last kill.
  EXPECT_GT(result.jobs[0].submit, 0.0);
}

TEST(SimulatorFaults, DropLeavesKilledJobUnfinished) {
  FaultConfig config = heavy_faults();
  config.requeue = RequeuePolicy::Drop;
  config.ckpt_interval = 0.0;  // no durable progress to soften the loss
  Simulator simulator(16);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 4, 2000)}, fcfs);

  EXPECT_GT(result.faults.job_kills, 0u);
  EXPECT_EQ(result.faults.requeues, 0u);
  EXPECT_EQ(result.unfinished_jobs, 1u);
  EXPECT_TRUE(result.jobs.empty());
}

// Checkpoint I/O with no failures is fully deterministic: a 350 s job
// checkpointing every 100 compute-seconds writes 3 checkpoints of
// size * ckpt_seconds_per_node channel-seconds each, and every write
// pauses compute.
TEST(SimulatorFaults, CheckpointIoStretchesRuntimeDeterministically) {
  FaultConfig config;
  config.ckpt_interval = 100.0;
  config.ckpt_seconds_per_node = 2.0;
  config.io_bandwidth = 1.0;
  Simulator simulator(8);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 4, 350)}, fcfs);

  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.faults.checkpoints, 3u);
  // 350 s compute + 3 checkpoints x (4 nodes * 2 s / 1.0) = 374 s.
  EXPECT_DOUBLE_EQ(result.jobs[0].end, 374.0);
  EXPECT_EQ(result.faults.node_failures, 0u);
  EXPECT_EQ(result.faults.job_kills, 0u);
}

// Two jobs hitting the checkpoint boundary together serialize on the
// shared channel: the second writer queues behind the first and ends
// exactly one transfer later.
TEST(SimulatorFaults, ConcurrentCheckpointsContendOnSharedChannel) {
  FaultConfig config;
  config.ckpt_interval = 100.0;
  config.ckpt_seconds_per_node = 2.0;
  config.io_bandwidth = 1.0;
  Simulator simulator(8);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run(
      {make_job(1, 0, 4, 350), make_job(2, 0, 4, 350)}, fcfs);

  ASSERT_EQ(result.jobs.size(), 2u);
  std::map<JobId, JobRecord> by_id;
  for (const auto& record : result.jobs) by_id[record.id] = record;
  EXPECT_EQ(result.faults.checkpoints, 6u);
  // Job 1 writes first at every boundary: 350 + 3 * 8 = 374.
  EXPECT_DOUBLE_EQ(by_id[1].end, 374.0);
  // Job 2 queues behind job 1's first write (8 s) and then stays offset:
  // 350 + 3 * 8 + 8 = 382.
  EXPECT_DOUBLE_EQ(by_id[2].end, 382.0);
}

TEST(SimulatorFaults, FasterIoChannelShrinksTheStretch) {
  FaultConfig config;
  config.ckpt_interval = 100.0;
  config.ckpt_seconds_per_node = 2.0;
  config.io_bandwidth = 4.0;
  Simulator simulator(8);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 4, 350)}, fcfs);
  ASSERT_EQ(result.jobs.size(), 1u);
  // Transfers shrink to 4 * 2 / 4 = 2 s: 350 + 3 * 2 = 356.
  EXPECT_DOUBLE_EQ(result.jobs[0].end, 356.0);
}

// Heterogeneous groups: only the group with a positive MTBF fails.
TEST(SimulatorFaults, GroupsOverrideTheGlobalMtbf) {
  FaultConfig config = heavy_faults();
  config.mtbf = 0.0;
  config.groups = {{16, 400.0}};
  EXPECT_TRUE(config.failures_active());
  Simulator simulator(16);
  simulator.set_fault_config(config);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 4, 2000)}, fcfs);
  EXPECT_GT(result.faults.node_failures, 0u);
  EXPECT_EQ(result.unfinished_jobs, 0u);
}

// Every scheduler in the heuristic roster must survive kill/requeue and
// drive its workload to completion under heavy fault injection.
TEST(SimulatorFaults, HeuristicRosterSurvivesFaultInjection) {
  const Trace trace = model_trace(50, 3);
  FaultConfig config = heavy_faults();
  config.mtbf = 200000.0;  // 272 nodes: ~1 failure / 12 sim-minutes

  sched::FcfsEasy fcfs;
  sched::BinPacking bin_packing;
  sched::RandomPolicy random(99);
  auto sjf = sched::PriorityScheduler(sched::make_sjf());
  Scheduler* roster[] = {&fcfs, &bin_packing, &random, &sjf};
  for (Scheduler* policy : roster) {
    Simulator simulator(272);
    simulator.set_fault_config(config);
    const auto result = simulator.run(trace, *policy);
    EXPECT_EQ(result.unfinished_jobs, 0u) << policy->name();
    EXPECT_GT(result.faults.node_failures, 0u) << policy->name();
  }
}

// --- Reservations under faults at every depth ------------------------------
//
// Checkpointing jobs can overrun their estimates and failures take nodes
// away, so a reservation's planned start can pass without its job
// starting, and the profile can count overdue releases that are not free
// nodes yet.

TEST(FaultedReservations, EveryDepthDrainsUnderFaults) {
  // Backfill candidates must fit the free nodes: SJF's backfill loop
  // ignores a refused backfill, so one unfit candidate spun it forever
  // (a 64-node job with 63 nodes free).  At depth 8, FCFS deadlocked on
  // stale reservations whose claims overlapped past the machine.
  const Trace trace = model_trace(50, 3);
  FaultConfig config = heavy_faults();
  config.mtbf = 200000.0;
  for (const int depth : {1, 2, 3, 8}) {
    sched::FcfsEasy fcfs;
    auto sjf = sched::PriorityScheduler(sched::make_sjf());
    Scheduler* roster[] = {&fcfs, &sjf};
    for (Scheduler* policy : roster) {
      Simulator simulator(272, depth);
      simulator.set_fault_config(config);
      const auto result = simulator.run(trace, *policy);
      EXPECT_EQ(result.unfinished_jobs, 0u)
          << policy->name() << " at depth " << depth;
    }
  }
}

TEST(FaultedReservations, StaleReservationsAreReplanned) {
  // A reservation whose start passes without its job starting is planned
  // afresh around the others before the policy runs, so no policy ever
  // sees a stale one.
  const Trace trace = model_trace(50, 3);
  FaultConfig config = heavy_faults();
  config.mtbf = 200000.0;
  Simulator simulator(272, /*reservation_depth=*/8);
  simulator.set_fault_config(config);
  std::size_t instances_with_reservations = 0;
  std::size_t replans = 0;  // a reservation's start only moves on re-plan
  std::map<JobId, Time> promised;
  const auto track = [&](const SchedulingContext& ctx) {
    for (const Reservation& r : ctx.reservation().all()) {
      const auto [it, fresh] = promised.emplace(r.job, r.start);
      if (!fresh && it->second != r.start) {
        ++replans;
        it->second = r.start;
      }
    }
  };
  simulator.set_action_observer(
      [&](const SchedulingContext& ctx, const Job& job) {
        if (job.started()) promised.erase(job.id);  // a kill may re-reserve
        track(ctx);
      });
  sched::FcfsEasy fcfs;
  dras::testing::LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.reservation().active()) ++instances_with_reservations;
    for (const Reservation& r : ctx.reservation().all())
      EXPECT_GE(r.start, ctx.now()) << "job " << r.job;
    track(ctx);
    fcfs.schedule(ctx);
  });
  const auto result = simulator.run(trace, policy);
  EXPECT_EQ(result.unfinished_jobs, 0u);
  EXPECT_GT(instances_with_reservations, 0u);
  EXPECT_GT(replans, 0u) << "the scenario no longer strands a reservation";
}

}  // namespace
}  // namespace dras::sim
