// train-theta-mini: DRAS-PG training through Trainer::run with a
// data-parallel RolloutPool, validation off, sampled theta-mini jobsets.
//
// Why: the networks are small and cache-resident, so the time goes to
// `nn` forward/backward/Adam, `core` state encoding and the `rollout` /
// `exec` round machinery (clone, run slots, reduce in slot order); the
// simulator is a minor share.  A round waits for its slowest slot, and
// each slot's kernels may open their own OpenMP team inside a pool
// worker, so CPU utilisation and the peak thread count are recorded to
// expose oversubscription.  The program keeps its default threading.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/presets.h"
#include "obs/metrics.h"
#include "recorded.h"
#include "rollout/rollout_pool.h"
#include "train/curriculum.h"
#include "train/trainer.h"
#include "util/format.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace perfbench {

using dras::util::format;

namespace {

constexpr std::size_t kEpisodes = 16;      // per training run
constexpr std::size_t kJobsPerSet = 100;   // per sampled jobset
constexpr std::size_t kSourceJobs = 4000;  // trace the jobsets sample
/// Episodes per round: the math knob of the rollout engine, fixed so the
/// final parameters do not depend on the machine.  Workers only change
/// speed (rollout_pool.h), and are min(kBatch, nproc).
constexpr std::size_t kBatch = 4;

struct Setup {
  std::vector<dras::train::Jobset> jobsets;
  dras::core::DrasConfig config;
};

Setup make_setup(std::uint64_t seed) {
  Setup setup;
  dras::workload::GenerateOptions source_options;
  source_options.num_jobs = kSourceJobs;
  source_options.seed = dras::util::derive_seed(seed, "train-source");
  const dras::sim::Trace source = dras::workload::generate_trace(
      dras::workload::theta_mini_workload(), source_options);
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    setup.jobsets.push_back(dras::train::Jobset{
        format("sampled-{}", e), dras::train::JobsetPhase::Sampled,
        dras::workload::sampled_jobset(
            source, kJobsPerSet,
            dras::util::derive_seed(seed, format("train-set-{}", e)))});
  }
  setup.config = dras::core::theta_mini().agent_config(
      dras::core::AgentKind::PG, dras::util::derive_seed(seed, "train-agent"));
  return setup;
}

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU time: every worker and kernel thread.
  std::uint64_t digest = 0;
  bool losses_finite = true;
  std::vector<double> episode_s;  ///< Per-episode (rollout slot) wall.
};

/// One training run from scratch; only Trainer::run is timed.
RunResult train_once(const Setup& setup, SpanRecorder* spans) {
  dras::core::DrasAgent agent(setup.config);
  dras::rollout::RolloutOptions pool_options;
  pool_options.workers = std::min<std::size_t>(kBatch, nproc());
  pool_options.batch = kBatch;
  dras::rollout::RolloutPool pool(pool_options);
  dras::train::Curriculum curriculum(setup.jobsets);
  dras::train::TrainerOptions trainer_options;
  trainer_options.validate_each_episode = false;
  dras::train::Trainer trainer(agent, dras::core::theta_mini().nodes, {},
                               trainer_options);
  dras::train::RunOptions run_options;
  run_options.rollout = &pool;

  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto episodes = trainer.run(curriculum, run_options);
  const auto end = Clock::now();
  const double cpu_end = process_cpu_seconds();
  if (spans != nullptr) spans->add("train.run", 0, start, end);

  RunResult result;
  result.wall_s = seconds_between(start, end);
  result.cpu_s = cpu_end - cpu_start;
  for (const auto& episode : episodes) {
    result.losses_finite = result.losses_finite && std::isfinite(episode.loss);
    result.episode_s.push_back(episode.wall_seconds);
  }
  result.losses_finite =
      result.losses_finite && episodes.size() == setup.jobsets.size();
  const auto params = agent.network().parameters();
  Digest digest;
  digest.add_bytes(params.data(), params.size() * sizeof(float));
  result.digest = digest.value();
  return result;
}

/// Samples the process thread count while alive (traced runs only).
class ThreadSampler {
 public:
  ThreadSampler()
      : thread_([this] {
          while (!stop_.load()) {
            peak_.store(std::max(peak_.load(), thread_count()));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  [[nodiscard]] int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

}  // namespace

std::uint64_t train_reference_digest(std::uint64_t seed) {
  return train_once(make_setup(seed), nullptr).digest;
}

Outcome run_train_theta_mini(const Options& options, SpanRecorder* spans) {
  Outcome out;
  const auto recorded = recorded_digest("train-theta-mini", options.seed);
  std::cout << format(
      "train-theta-mini: {} episodes x {} jobs, batch {}, workers {}, seed "
      "{}, parameter digest {}\n",
      kEpisodes, kJobsPerSet, kBatch, std::min<std::size_t>(kBatch, nproc()),
      options.seed, recorded ? "recorded" : "not recorded for this seed");

  // Set-up is the jobset generation before each training run; setup_s
  // is its median CPU time.
  std::vector<double> setup_s;
  const auto prepare = [&] {
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    Setup setup = make_setup(options.seed);
    const auto end = Clock::now();
    setup_s.push_back(process_cpu_seconds() - cpu_start);
    if (spans != nullptr) spans->add("workload.generate", 0, start, end);
    return setup;
  };

  // Warm-up run, untimed, with the obs registry on: it counts the agent's
  // decisions (one action-path forward each) and updates.  Timed runs are
  // byte-identical repeats (checked by the parameter digest), so they make
  // the same decisions.
  auto& registry = dras::obs::Registry::global();
  registry.reset_values();
  dras::obs::set_enabled(true);
  const RunResult warm = train_once(prepare(), nullptr);
  dras::obs::set_enabled(false);
  const double decisions =
      static_cast<double>(registry.hdr("nn.forward_us").count());
  const double updates =
      static_cast<double>(registry.counter("rollout.updates_reduced").value());
  const std::uint64_t reference = recorded.value_or(warm.digest);
  const auto check = [&](const RunResult& run) {
    const bool ok = run.losses_finite && run.digest == reference;
    if (!ok)
      std::cout << format(
          "train-theta-mini: parameter digest {} (expected {}), losses {}\n",
          run.digest, reference, run.losses_finite ? "finite" : "NOT finite");
    out.check(ok);
  };
  check(warm);
  if (decisions <= 0) throw std::runtime_error("no agent decisions counted");

  // Per timed run: decisions per CPU second (with the steal it saw) and
  // per wall second; every episode's wall time.
  StealWindows cpu_rate;
  std::vector<double> rate, episode_ms;
  const double budget =
      spans != nullptr ? options.seconds / 2 : options.seconds;
  const auto start = Clock::now();
  do {
    const Setup setup = prepare();
    const CpuTicks before = cpu_ticks();
    const RunResult run = train_once(setup, nullptr);
    cpu_rate.add(decisions / run.cpu_s, steal_share(before, cpu_ticks()));
    check(run);
    rate.push_back(decisions / run.wall_s);
    for (const double seconds : run.episode_s)
      episode_ms.push_back(seconds * 1e3);
  } while (seconds_between(start, Clock::now()) < budget);

  std::cout << format(
      "train-theta-mini: {} timed runs, {} decisions, {} updates and {} "
      "episodes per run; decisions per CPU second median {:.0f} (quieter "
      "half {:.0f}), per wall second median {:.0f}\n",
      rate.size(), decisions, updates, kEpisodes, median(cpu_rate.rate),
      cpu_rate.quiet_median(), median(rate));
  if (spans == nullptr) {
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("ok_frac", out.ok_fraction());
    out.set("throughput_per_cpu_s", cpu_rate.quiet_median());
    return out;
  }

  // Traced phase: obs registry on, spans around each run, CPU time and
  // thread count sampled.
  registry.reset_values();
  dras::obs::set_enabled(true);
  StealWindows traced_cpu_rate;
  std::vector<double> imbalance;
  double cpu_s = 0.0, wall_s = 0.0, max_slot_sum = 0.0;
  int threads_peak = 0;
  {
    ThreadSampler sampler;
    const auto traced_start = Clock::now();
    do {
      const Setup setup = prepare();
      const CpuTicks before = cpu_ticks();
      const RunResult run = train_once(setup, spans);
      traced_cpu_rate.add(decisions / run.cpu_s,
                          steal_share(before, cpu_ticks()));
      cpu_s += run.cpu_s;
      wall_s += run.wall_s;
      check(run);
      for (std::size_t r = 0; r + kBatch <= run.episode_s.size(); r += kBatch) {
        const auto first = run.episode_s.begin() + static_cast<std::ptrdiff_t>(r);
        const auto last = first + static_cast<std::ptrdiff_t>(kBatch);
        const double slowest = *std::max_element(first, last);
        double mean = 0.0;
        for (auto it = first; it != last; ++it) mean += *it;
        mean /= static_cast<double>(kBatch);
        imbalance.push_back(slowest / mean);
        max_slot_sum += slowest;
      }
    } while (seconds_between(traced_start, Clock::now()) < options.seconds / 2);
    threads_peak = sampler.peak();
  }
  dras::obs::set_enabled(false);

  const auto& rounds = registry.hdr("rollout.round_wall_s");
  const double runs = static_cast<double>(traced_cpu_rate.rate.size());
  double imbalance_mean = 0.0;
  for (const double x : imbalance) imbalance_mean += x;
  imbalance_mean /= static_cast<double>(std::max<std::size_t>(1, imbalance.size()));
  // Wall-clock view of the untraced half: decision rate, and the latency
  // of an episode (one rollout slot) pooled over its runs.
  out.set("wall.throughput_per_s", median(rate));
  out.set("wall.latency_p50_ms", percentile(episode_ms, 50.0));
  out.set("wall.latency_tail_ms", percentile(episode_ms, 90.0));
  out.set("workload.generate_s", median(setup_s));
  out.set("rollout.round_s_p50", rounds.percentile(50.0));
  out.set("rollout.round_s_p99", rounds.percentile(99.0));
  out.set("rollout.slot_imbalance", imbalance_mean);
  out.set("rollout.reduce_s",
          (rounds.sum() - max_slot_sum) /
              static_cast<double>(std::max<std::uint64_t>(1, rounds.count())));
  out.set("nn.forward_us_p50", registry.hdr("nn.forward_us").percentile(50.0));
  out.set("nn.batch_forward_us_p50",
          registry.hdr("nn.batch_forward_us").percentile(50.0));
  out.set("nn.backward_us_p50", registry.hdr("nn.backward_us").percentile(50.0));
  out.set("nn.update_us_p50", registry.hdr("nn.update_us").percentile(50.0));
  out.set("train.decisions",
          static_cast<double>(registry.hdr("nn.forward_us").count()) / runs);
  out.set("train.updates",
          static_cast<double>(registry.counter("rollout.updates_reduced").value()) /
              runs);
  out.set("train.cpu_util", cpu_s / (wall_s * static_cast<double>(nproc())));
  out.set("train.threads_peak", threads_peak);
  out.set("obs.overhead_frac",
          cpu_rate.quiet_median() / traced_cpu_rate.quiet_median() - 1.0);
  return out;
}

}  // namespace perfbench
