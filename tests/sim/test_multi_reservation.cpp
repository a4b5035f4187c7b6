// Tests for the reservation-depth extension (conservative-style
// backfilling with several outstanding reservations).
#include <gtest/gtest.h>

#include <map>

#include "../test_helpers.h"
#include "core/dras_agent.h"
#include "core/presets.h"
#include "easy_reference.h"
#include "sched/fair_share.h"
#include "sched/fcfs_easy.h"
#include "sched/priority_sched.h"
#include "sim/simulator.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::sim {
namespace {

using dras::testing::LambdaScheduler;
using dras::testing::make_job;

std::map<JobId, JobRecord> run_fcfs(Simulator& sim, const Trace& trace) {
  sched::FcfsEasy fcfs;
  const auto result = sim.run(trace, fcfs);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  return by_id;
}

TEST(MultiReservation, DepthTwoReservesTwoBlockedJobs) {
  Simulator sim(4, /*reservation_depth=*/2);
  int max_outstanding = 0;
  sim.set_action_observer([&](const SchedulingContext& ctx, const Job&) {
    max_outstanding = std::max(
        max_outstanding, static_cast<int>(ctx.reservation().count()));
  });
  // Machine busy until 100; two whole-machine jobs queue behind.
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 1, 4, 50),
                       make_job(3, 2, 4, 50)};
  sched::FcfsEasy fcfs;
  const auto result = sim.run(trace, fcfs);
  EXPECT_EQ(max_outstanding, 2);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 100.0);
  EXPECT_DOUBLE_EQ(by_id.at(3).start, 150.0);
  EXPECT_EQ(by_id.at(2).mode, ExecMode::Reserved);
  EXPECT_EQ(by_id.at(3).mode, ExecMode::Reserved);
}

TEST(MultiReservation, SecondReservationPlansAfterFirst) {
  // 4-node machine busy until 100.  Reserved: job2 (4 nodes, 50s est) at
  // t=100, then job3 (4 nodes) must be planned at t=150, not t=100.
  Simulator sim(4, 2);
  std::map<JobId, Time> reserved_start;
  sim.set_action_observer([&](const SchedulingContext& ctx, const Job& job) {
    for (const auto& r : ctx.reservation().all())
      if (r.job == job.id) reserved_start[job.id] = r.start;
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 1, 4, 50, 50),
                       make_job(3, 2, 4, 50, 50)};
  (void)run_fcfs(sim, trace);
  ASSERT_TRUE(reserved_start.contains(2));
  ASSERT_TRUE(reserved_start.contains(3));
  EXPECT_DOUBLE_EQ(reserved_start.at(2), 100.0);
  EXPECT_DOUBLE_EQ(reserved_start.at(3), 150.0);
}

TEST(MultiReservation, BackfillCannotDelayAnyReservation) {
  // 6 nodes; 4 busy until 100.  Reservations: job2 (6 nodes, est 100) at
  // t=100, job3 (2 nodes, est 400) at t=200.  Candidate job4 (2 nodes,
  // est 250) would finish at ~252: it fits the idle nodes now and dodges
  // job2's whole-machine claim?  No: [100,200) claims all 6 nodes, so a
  // job running past t=100 on 2 nodes is illegal.
  Simulator sim(6, 2);
  bool checked = false;
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      ASSERT_TRUE(ctx.start_now(1));
      return;
    }
    if (checked || ctx.queue().size() < 3) return;
    checked = true;
    ASSERT_TRUE(ctx.reserve(2));
    ASSERT_TRUE(ctx.reserve(3));
    // Long job spanning the whole-machine claim: rejected.
    EXPECT_FALSE(ctx.backfill(4));
    EXPECT_FALSE(ctx.start_now(4));
    // Short job ending before the first claim: legal.
    EXPECT_TRUE(ctx.backfill(5));
  });
  const Trace trace = {make_job(1, 0, 4, 100),       // running
                       make_job(2, 1, 6, 100, 100),  // reservation 1
                       make_job(3, 1, 2, 400, 400),  // reservation 2
                       make_job(4, 2, 2, 250, 250),  // illegal backfill
                       make_job(5, 2, 2, 90, 90)};   // legal backfill
  (void)sim.run(trace, policy);
  EXPECT_TRUE(checked);
}

TEST(MultiReservation, AutoStartSkipsJobThatWouldStealFromOthers) {
  // 4 nodes.  Reservation A: whole machine at t=100 (est 100).
  // Reservation B: 2 nodes at t=200.  At t=100 both A and B *fit* if
  // considered alone; starting B first (2 nodes, est 500) would push A.
  // The auto-starter must start A (its claim window is first) and hold B.
  Simulator sim(4, 2);
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      ASSERT_TRUE(ctx.start_now(1));
      ASSERT_TRUE(ctx.reserve(2));
      ASSERT_TRUE(ctx.reserve(3));
    }
  });
  const Trace trace = {make_job(1, 0, 4, 100),
                       make_job(2, 0, 4, 100, 100),    // A
                       make_job(3, 0, 2, 500, 500)};   // B
  const auto result = sim.run(trace, policy);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 100.0);
  EXPECT_DOUBLE_EQ(by_id.at(3).start, 200.0);
}

// --- Depth 1 against the classic EASY arithmetic ---------------------------
//
// The simulator plans every depth through the AvailabilityProfile.  At
// depth 1 that must reproduce EASY (easy_reference.h) on every state a
// policy sees: at each scheduling instance and after each action, the
// context's backfill candidates equal the reference's, and every new
// reservation starts where the reference's earliest start puts it.  The
// rules may differ only on a stale reservation (start < now).

struct EasyDiff {
  std::size_t candidate_checks = 0;  ///< States with an active reservation.
  std::size_t reserve_checks = 0;
  std::size_t mismatches = 0;
};

void check_candidates(const SchedulingContext& ctx, EasyDiff& diff) {
  const auto got = ctx.backfill_candidates();
  if (!ctx.reservation().active()) {
    EXPECT_TRUE(got.empty());
    return;
  }
  ++diff.candidate_checks;
  const Reservation& r = ctx.reservation().get();
  const auto want = reference::backfill_candidates(ctx.cluster(), r,
                                                   ctx.queue(), ctx.now());
  if (got == want) return;
  ++diff.mismatches;
  if (r.start < ctx.now()) return;  // stale: the rules may differ
  ADD_FAILURE() << "candidates differ at t=" << ctx.now()
                << " (reservation for job " << r.job << " at t=" << r.start
                << "): profile " << got.size() << ", EASY " << want.size();
}

/// Runs `inner`, checking every state it sees against the reference.
class EasyDiffScheduler final : public Scheduler {
 public:
  EasyDiffScheduler(Scheduler& inner, EasyDiff& diff)
      : inner_(inner), diff_(diff) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void begin_episode() override { inner_.begin_episode(); }
  void end_episode() override { inner_.end_episode(); }
  void schedule(SchedulingContext& ctx) override {
    check_candidates(ctx, diff_);
    inner_.schedule(ctx);
  }

 private:
  Scheduler& inner_;
  EasyDiff& diff_;
};

EasyDiff run_easy_diff(Scheduler& policy, const Trace& trace,
                       const FaultConfig& faults) {
  EasyDiff diff;
  Simulator sim(272, /*reservation_depth=*/1);
  sim.set_fault_config(faults);
  sim.set_action_observer([&](const SchedulingContext& ctx, const Job& job) {
    if (!job.started() && ctx.is_reserved(job.id)) {
      // A reserve action: the ledger holds only this job's reservation.
      ++diff.reserve_checks;
      EXPECT_EQ(ctx.reservation().get().start,
                reference::earliest_start(ctx.cluster(), job.size,
                                          ctx.now()))
          << "job " << job.id << " at t=" << ctx.now();
    }
    check_candidates(ctx, diff);
  });
  EasyDiffScheduler checked(policy, diff);
  const auto result = sim.run(trace, checked);
  EXPECT_EQ(result.unfinished_jobs, 0u);
  return diff;
}

TEST(MultiReservation, DepthOneMatchesClassicEasySemantics) {
  workload::GenerateOptions gen;
  gen.num_jobs = 300;
  gen.seed = 5;
  gen.load_scale = 1.3;  // saturated: plenty of reservations
  const auto trace = workload::generate_trace(
      workload::theta_mini_workload(), gen);
  // DRAS runs a shorter trace: every decision is a network forward, and
  // the nn kernels' OpenMP teams crawl when tests share the cores.
  gen.num_jobs = 100;
  const auto short_trace = workload::generate_trace(
      workload::theta_mini_workload(), gen);
  FaultConfig faults;
  faults.mtbf = 200000.0;  // 272 nodes: ~1 failure / 12 sim-minutes
  faults.repair_time = 50.0;
  faults.ckpt_interval = 1800.0;
  faults.ckpt_seconds_per_node = 1.0;
  faults.io_bandwidth = 1.0;
  faults.seed = 7;

  for (const bool faulted : {false, true}) {
    sched::FcfsEasy fcfs;
    auto sjf = sched::make_sjf();
    sched::UserRoundRobin user_rr;
    sched::DeficitRoundRobin drr;
    sched::WeightedFairQueuing wfq;
    core::DrasAgent dras(
        core::theta_mini().agent_config(core::AgentKind::PG, 5));
    dras.set_training(false);  // only its choices matter here
    Scheduler* roster[] = {&fcfs, &sjf, &user_rr, &drr, &wfq, &dras};
    for (Scheduler* policy : roster) {
      SCOPED_TRACE(::testing::Message()
                   << policy->name() << (faulted ? " faulted" : ""));
      const EasyDiff diff =
          run_easy_diff(*policy, policy == &dras ? short_trace : trace,
                        faulted ? faults : FaultConfig{});
      EXPECT_GT(diff.candidate_checks, 0u);
      EXPECT_GT(diff.reserve_checks, 0u);
      // check_candidates fails any mismatch but a stale one; without
      // faults there is none of those either.
      if (!faulted) {
        EXPECT_EQ(diff.mismatches, 0u);
      }
    }
  }
}

TEST(MultiReservation, DeeperLedgerNeverDelaysReservedStarts) {
  // Property: under FCFS, every reservation promise is honoured at any
  // depth (the generalised EASY guarantee).
  workload::GenerateOptions gen;
  gen.num_jobs = 300;
  gen.seed = 11;
  gen.load_scale = 1.4;
  const auto trace = workload::generate_trace(
      workload::theta_mini_workload(), gen);
  for (const int depth : {1, 2, 4}) {
    Simulator sim(272, depth);
    std::map<JobId, Time> promised;
    sim.set_action_observer(
        [&](const SchedulingContext& ctx, const Job& job) {
          for (const auto& r : ctx.reservation().all())
            if (r.job == job.id) promised[job.id] = r.start;
        });
    sched::FcfsEasy fcfs;
    const auto result = sim.run(trace, fcfs);
    std::map<JobId, JobRecord> by_id;
    for (const auto& rec : result.jobs) by_id[rec.id] = rec;
    for (const auto& [id, start] : promised) {
      ASSERT_TRUE(by_id.contains(id)) << "depth " << depth;
      EXPECT_LE(by_id.at(id).start, start + 1e-6)
          << "depth " << depth << " job " << id;
    }
  }
}

TEST(MultiReservation, DrasAgentRunsAtDepthTwo) {
  dras::core::DrasConfig cfg;
  cfg.kind = dras::core::AgentKind::PG;
  cfg.total_nodes = 8;
  cfg.window = 4;
  cfg.fc1 = 16;
  cfg.fc2 = 8;
  cfg.time_scale = 1000.0;
  cfg.seed = 5;
  dras::core::DrasAgent agent(cfg);
  sim::Trace trace;
  for (int i = 0; i < 60; ++i)
    trace.push_back(make_job(i, i * 10.0, 1 + (i * 5) % 8, 80));
  Simulator sim(8, 2);
  const auto result = sim.run(trace, agent);
  EXPECT_EQ(result.unfinished_jobs, 0u);
}

}  // namespace
}  // namespace dras::sim
