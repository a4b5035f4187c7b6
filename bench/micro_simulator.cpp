// Micro-benchmarks for the simulator substrate: event throughput under
// FCFS/EASY, the availability profile (construction, earliest start, a
// backfill-candidate scan), state encoding, and the knapsack DP of the
// Optimization baseline.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/state_encoder.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sim/profile.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace {

const dras::sim::Trace& mini_trace() {
  static const dras::sim::Trace trace = [] {
    dras::workload::GenerateOptions options;
    options.num_jobs = 2000;
    options.seed = 1;
    return dras::workload::generate_trace(
        dras::workload::theta_mini_workload(), options);
  }();
  return trace;
}

void BM_SimulatorFcfsEasy(benchmark::State& state) {
  const auto model = dras::workload::theta_mini_workload();
  std::size_t jobs = 0;
  for (auto _ : state) {
    dras::sim::Simulator sim(model.system_nodes);
    dras::sched::FcfsEasy fcfs;
    const auto result = sim.run(mini_trace(), fcfs);
    benchmark::DoNotOptimize(result.utilization);
    jobs += result.jobs.size();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorFcfsEasy)->Unit(benchmark::kMillisecond);

/// A 4360-node machine running up to `running` random jobs, >128 nodes free.
dras::sim::Cluster busy_cluster(std::int64_t running) {
  dras::sim::Cluster cluster(4360);
  dras::util::Rng rng(3);
  dras::sim::JobId id = 0;
  while (cluster.free_nodes() > 128 &&
         static_cast<std::int64_t>(cluster.running_count()) < running) {
    dras::sim::Job job;
    job.id = id++;
    job.size = static_cast<int>(1 + rng.uniform_index(64));
    job.runtime_estimate = rng.uniform(100.0, 10000.0);
    job.runtime_actual = job.runtime_estimate;
    if (!cluster.allocate(job, 0.0)) break;
  }
  return cluster;
}

void BM_ProfileBuild(benchmark::State& state) {
  const auto cluster = busy_cluster(state.range(0));
  for (auto _ : state) {
    const dras::sim::AvailabilityProfile profile(cluster, {}, 0.0);
    benchmark::DoNotOptimize(profile.steps().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfileBuild)->Arg(16)->Arg(64)->Arg(256);

void BM_ProfileEarliestStart(benchmark::State& state) {
  const auto cluster = busy_cluster(state.range(0));
  const dras::sim::AvailabilityProfile profile(cluster, {}, 0.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(profile.earliest_start(4000, 5000.0));
}
BENCHMARK(BM_ProfileEarliestStart)->Arg(16)->Arg(64)->Arg(256);

void BM_StateEncodeWindow(benchmark::State& state) {
  // Encode a full Theta-scale window state: 2W+N rows.
  const auto preset_nodes = 4360;
  dras::sim::Simulator sim(preset_nodes);
  // Use a probe scheduler to grab a context mid-simulation.
  std::vector<float> encoded;
  dras::core::StateEncoder encoder(preset_nodes, 86400.0);
  class Probe final : public dras::sim::Scheduler {
   public:
    Probe(benchmark::State& state, dras::core::StateEncoder& encoder,
          std::vector<float>& out)
        : state_(state), encoder_(encoder), out_(out) {}
    std::string_view name() const override { return "probe"; }
    void schedule(dras::sim::SchedulingContext& ctx) override {
      if (done_ || ctx.queue().size() < 50) {
        // Keep the machine busy so the queue builds up.
        if (!ctx.queue().empty() &&
            ctx.cluster().fits(ctx.queue().front()->size))
          ctx.start_now(ctx.queue().front()->id);
        return;
      }
      done_ = true;
      const std::span<dras::sim::Job* const> window(ctx.queue().data(), 50);
      for (auto _ : state_) {
        encoder_.encode_window(ctx, window, 50, out_);
        benchmark::DoNotOptimize(out_.data());
      }
    }
   private:
    benchmark::State& state_;
    dras::core::StateEncoder& encoder_;
    std::vector<float>& out_;
    bool done_ = false;
  };

  dras::workload::GenerateOptions options;
  options.num_jobs = 400;
  options.seed = 2;
  options.load_scale = 8.0;  // flood the queue
  const auto trace = dras::workload::generate_trace(
      dras::workload::theta_workload(), options);
  Probe probe(state, encoder, encoded);
  (void)sim.run(trace, probe);
}
BENCHMARK(BM_StateEncodeWindow)->Unit(benchmark::kMicrosecond);

void BM_KnapsackDP(benchmark::State& state) {
  const auto items = state.range(0);
  dras::util::Rng rng(5);
  std::vector<int> weights;
  std::vector<double> values;
  for (std::int64_t i = 0; i < items; ++i) {
    weights.push_back(static_cast<int>(1 + rng.uniform_index(512)));
    values.push_back(rng.uniform(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dras::sched::KnapsackOpt::solve_knapsack(weights, values, 4360));
  }
}
BENCHMARK(BM_KnapsackDP)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_BackfillCandidates(benchmark::State& state) {
  // One profile per scan, then the simulator's rule per queued job (the
  // work of SchedulingContext::backfill_candidates).
  dras::sim::Cluster cluster(4360);
  dras::util::Rng rng(7);
  dras::sim::JobId id = 0;
  // Half-busy machine.
  while (cluster.free_nodes() > 2000) {
    dras::sim::Job job;
    job.id = id++;
    job.size = 128;
    job.runtime_estimate = rng.uniform(100.0, 10000.0);
    job.runtime_actual = job.runtime_estimate;
    (void)cluster.allocate(job, 0.0);
  }
  const dras::sim::Reservation reservation{9999, 4000, 8000.0, 5000.0};
  std::vector<dras::sim::Job> waiting(256);
  for (auto& job : waiting) {
    job.id = id++;
    job.size = static_cast<int>(1 + rng.uniform_index(1024));
    job.runtime_estimate = rng.uniform(100.0, 20000.0);
    job.runtime_actual = job.runtime_estimate;
  }
  std::vector<const dras::sim::Job*> candidates;
  for (auto _ : state) {
    const dras::sim::AvailabilityProfile profile(
        cluster, std::span<const dras::sim::Reservation>(&reservation, 1),
        0.0);
    candidates.clear();
    for (const auto& job : waiting)
      if (cluster.fits(job.size) &&
          profile.can_start_now(job.size, job.runtime_estimate))
        candidates.push_back(&job);
    benchmark::DoNotOptimize(candidates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BackfillCandidates)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
