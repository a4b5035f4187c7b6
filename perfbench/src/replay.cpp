// replay-cori: full-scale trace replay under FCFS + EASY.
//
// Why: Cori (12,076 nodes, capacity computing) keeps thousands of
// 1-few-node jobs running over a deep queue, so the EASY backfill scan in
// `sched`/`sim` dominates.  The full-scale Theta replay (1M jobs) this
// benchmark first carried is left out: its working set of ~700 MB made
// its rate per CPU second follow the host's memory contention (1.8x
// between runs minutes apart), past any bound a gate could hold.
#include "replay.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.h"
#include "recorded.h"
#include "sched/fcfs_easy.h"
#include "util/format.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace perfbench {

using dras::util::format;

void TimedScheduler::trace_into(SpanRecorder* spans, SpanRecorder::Id parent,
                                std::size_t span_stride) {
  spans_ = spans;
  parent_ = parent;
  span_stride_ = std::max<std::size_t>(1, span_stride);
}

void TimedScheduler::schedule(dras::sim::SchedulingContext& ctx) {
  if (spans_ != nullptr) {
    stats_.queue_depth_sum += static_cast<double>(ctx.queue().size());
    stats_.running_sum += static_cast<double>(ctx.cluster().running_count());
  }
  const auto start = Clock::now();
  inner_->schedule(ctx);
  const auto end = Clock::now();
  const double seconds = seconds_between(start, end);
  stats_.total_s += seconds;
  stats_.call_us.push_back(seconds * 1e6);
  if (spans_ != nullptr && stats_.calls % span_stride_ == 0)
    spans_->add("sched.schedule", parent_, start, end);
  ++stats_.calls;
}

std::unique_ptr<dras::sim::Scheduler> TimedScheduler::clone() const {
  auto inner = inner_->clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedScheduler>(std::move(inner));
}

std::uint64_t schedule_digest(const dras::sim::SimulationResult& result) {
  std::vector<const dras::sim::JobRecord*> records;
  records.reserve(result.jobs.size());
  for (const auto& record : result.jobs) records.push_back(&record);
  std::sort(records.begin(), records.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  Digest digest;
  for (const auto* record : records) {
    digest.add(record->id);
    digest.add(record->start);
    digest.add(record->end);
  }
  return digest.value();
}

std::string check_schedule(const dras::sim::Trace& trace, int nodes,
                           const dras::sim::SimulationResult& result) {
  if (result.unfinished_jobs != 0)
    return format("{} jobs unfinished", result.unfinished_jobs);
  if (result.jobs.size() != trace.size())
    return format("{} records for {} jobs", result.jobs.size(), trace.size());
  std::unordered_map<dras::sim::JobId, std::size_t> slot;
  slot.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) slot.emplace(trace[i].id, i);
  std::vector<bool> seen(trace.size(), false);
  // (time, node delta): ends sort before starts at equal times, because a
  // job may start at the instant another one frees its nodes.
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * trace.size());
  for (const auto& record : result.jobs) {
    const auto it = slot.find(record.id);
    if (it == slot.end()) return format("unknown job {}", record.id);
    if (seen[it->second]) return format("job {} finished twice", record.id);
    seen[it->second] = true;
    const dras::sim::Job& job = trace[it->second];
    if (record.start < job.submit_time)
      return format("job {} started before submission", record.id);
    const double runtime = job.effective_runtime();
    if (std::abs((record.end - record.start) - runtime) >
        1e-6 * std::max(1.0, runtime))
      return format("job {} ran {} s, expected {} s", record.id,
                    record.end - record.start, runtime);
    events.emplace_back(record.start, job.size);
    events.emplace_back(record.end, -job.size);
  }
  std::sort(events.begin(), events.end());
  long used = 0;
  for (const auto& [time, delta] : events) {
    used += delta;
    if (used > nodes) return format("{} nodes in use at t={}", used, time);
  }
  return {};
}

ReplaySpec replay_spec(std::string_view workload) {
  // Offered load 0.9 with a 64-user Zipf mix: busy, but below the
  // overload (load_scale 1 is ~17x on Cori) where the backlog would grow
  // without bound and the cost would measure backlog growth instead of
  // code speed.
  if (workload == "replay-cori") {
    // At 0.9 the depth of Cori's queue is a slow random walk driven by
    // multi-day jobs: from an empty machine one seed's 20k-job replay
    // costs 50x another's, and even a busy-machine window varies +-15%
    // by seed.  So the job stream is the fixed stand-in "real" Cori trace
    // (workload::kRealTraceSeed) -- the paper also replays a fixed log --
    // opening on a busy machine: a standing backlog submitted at t=0
    // fills the machine and leaves a queue hundreds deep.  The seed draws
    // the user mix, which the simulator's per-user share accounting
    // processes but FCFS ignores, so the schedule is the same for every
    // seed and the replay cost measures code speed.
    return {"replay-cori",
            dras::workload::cori_workload().with_load(0.9).with_users(64),
            kCoriReplayJobs, kCoriBacklogJobs};
  }
  throw std::invalid_argument(format("unknown replay workload {}", workload));
}

dras::sim::Trace make_replay_trace(const ReplaySpec& spec,
                                   std::uint64_t seed) {
  dras::workload::GenerateOptions options;
  options.num_jobs = spec.jobs;
  options.seed = dras::util::derive_seed(seed, spec.name);
  const dras::sim::Trace users =
      dras::workload::generate_trace(spec.model, options);
  options.seed =
      dras::util::derive_seed(dras::workload::kRealTraceSeed, spec.name);
  dras::sim::Trace trace = dras::workload::generate_trace(spec.model, options);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].user_id = users[i].user_id;
    trace[i].project_id = users[i].project_id;
  }
  for (std::size_t i = 0; i < spec.backlog && i < trace.size(); ++i)
    trace[i].submit_time = 0.0;
  return trace;
}

namespace {

/// Traced replays record every k-th schedule() call as a span, k chosen
/// for about this many spans per replay.  sched.schedule_s and sim.self_s
/// come from exact sums, not from the sampled spans.
constexpr std::size_t kSpansPerReplay = 5000;

std::uint64_t trace_digest(const dras::sim::Trace& trace) {
  Digest digest;
  for (const auto& job : trace) {
    digest.add(job.id);
    digest.add(job.submit_time);
    digest.add(job.size);
    digest.add(job.runtime_estimate);
    digest.add(job.runtime_actual);
    digest.add(job.user_id);
  }
  return digest.value();
}

/// Replays of one phase (untraced, or traced with spans + obs registry).
struct Phase {
  std::vector<double> jobs_per_s;      ///< Per replay, per wall second.
  std::vector<double> jobs_per_cpu_s;  ///< Per replay, per CPU second.
  std::vector<double> call_us;
  double run_s = 0.0;        ///< Summed over replays.
  double schedule_s = 0.0;   ///< Summed over replays.
  double instances = 0.0;    ///< Summed over replays.
  double queue_depth_sum = 0.0;
  double running_sum = 0.0;
  double calls = 0.0;
  double backfilled = 0.0;
  double jobs = 0.0;
  [[nodiscard]] double replays() const {
    return static_cast<double>(jobs_per_s.size());
  }
};

Outcome run_replay(const std::string& workload, const Options& options,
                   SpanRecorder* spans) {
  const ReplaySpec spec = replay_spec(workload);
  const int nodes = spec.model.system_nodes;
  Outcome out;

  // --- Set-up: trace generation.  Its cost drifts with the host over
  // seconds (replay-cori's 2 ms generation read from 1.7 to 2.8 ms within
  // one process), so it runs as a batch before every replay -- at least one
  // generation and kSetupBatchSeconds of CPU time -- and setup_s is the
  // median CPU time of every generation in the run. ---
  constexpr double kSetupBatchSeconds = 0.02;
  std::vector<double> generate_s;
  dras::sim::Trace trace;
  std::uint64_t first_trace_digest = 0;
  const auto set_up = [&] {
    double batch_s = 0.0;
    do {
      trace = {};
      const double cpu_start = process_cpu_seconds();
      const auto start = Clock::now();
      trace = make_replay_trace(spec, options.seed);
      const auto end = Clock::now();
      generate_s.push_back(process_cpu_seconds() - cpu_start);
      batch_s += generate_s.back();
      if (spans != nullptr) spans->add("workload.generate", 0, start, end);
      // The generator is a pure function of the seed.
      const std::uint64_t digest = trace_digest(trace);
      if (generate_s.size() == 1) first_trace_digest = digest;
      out.check(digest == first_trace_digest);
    } while (batch_s < kSetupBatchSeconds);
  };

  const auto recorded = recorded_digest(workload, options.seed);
  std::uint64_t reference = recorded.value_or(0);
  std::cout << format(
      "{}: {} jobs ({} submitted at t=0) on {} nodes, seed {}, schedule "
      "digest {}\n",
      workload, spec.jobs, spec.backlog, nodes, options.seed,
      recorded ? "recorded" : "not recorded for this seed");

  dras::sched::FcfsEasy policy;
  // The run's first replay, a warm-up outside the measurement, is also
  // checked by the oracle and fixes the reference digest when none is
  // recorded.
  bool first = true;
  // A non-null `recorder` gets a sim.run span with a sample of its
  // schedule() calls as child spans.
  const auto replay = [&](dras::sim::Simulator& sim, TimedScheduler& timed,
                          Phase& phase, SpanRecorder* recorder) {
    set_up();
    timed.reset_stats();
    const SpanRecorder::Id span = recorder != nullptr ? recorder->reserve() : 0;
    if (recorder != nullptr)
      timed.trace_into(recorder, span,
                       std::max<std::size_t>(1, trace.size() / kSpansPerReplay));
    const double cpu_start = thread_cpu_seconds();
    const auto start = Clock::now();
    const dras::sim::SimulationResult result = sim.run(trace, timed);
    const auto end = Clock::now();
    const double cpu = thread_cpu_seconds() - cpu_start;
    if (recorder != nullptr) recorder->finish(span, "sim.run", 0, start, end);
    const double wall = seconds_between(start, end);
    const std::uint64_t digest = schedule_digest(result);
    bool ok = result.unfinished_jobs == 0;
    if (first) {
      const std::string problem = check_schedule(trace, nodes, result);
      if (!problem.empty()) std::cout << workload << ": " << problem << "\n";
      ok = ok && problem.empty();
      if (!recorded) reference = digest;
      first = false;
    }
    if (digest != reference) {
      std::cout << format("{}: schedule digest {} != expected {}\n", workload,
                          digest, reference);
      ok = false;
    }
    out.check(ok);
    const auto& stats = timed.stats();
    const auto jobs = static_cast<double>(result.jobs.size());
    phase.jobs_per_s.push_back(jobs / wall);
    phase.jobs_per_cpu_s.push_back(jobs / cpu);
    phase.call_us.insert(phase.call_us.end(), stats.call_us.begin(),
                         stats.call_us.end());
    phase.run_s += wall;
    phase.schedule_s += stats.total_s;
    phase.instances += static_cast<double>(result.scheduling_instances);
    phase.queue_depth_sum += stats.queue_depth_sum;
    phase.running_sum += stats.running_sum;
    phase.calls += static_cast<double>(stats.calls);
    phase.jobs += static_cast<double>(result.jobs.size());
    for (const auto& record : result.jobs)
      if (record.mode == dras::sim::ExecMode::Backfilled) ++phase.backfilled;
  };

  // Untraced phase: the whole run, or its first half in a traced run.
  Phase plain;
  {
    dras::sim::Simulator sim(nodes);
    TimedScheduler timed(policy);
    Phase warm_up;
    replay(sim, timed, warm_up, nullptr);
    const double budget =
        spans != nullptr ? options.seconds / 2 : options.seconds;
    const auto start = Clock::now();
    do {
      replay(sim, timed, plain, nullptr);
    } while (seconds_between(start, Clock::now()) < budget);
  }

  std::string rates;
  for (std::size_t i = 0; i < plain.jobs_per_s.size(); ++i)
    rates += format(" {:.0f}/{:.0f}", plain.jobs_per_cpu_s[i],
                    plain.jobs_per_s[i]);
  std::cout << format(
      "{}: {} replays (jobs per CPU second / per wall second:{}), {} "
      "scheduling decisions\n",
      workload, plain.jobs_per_s.size(), rates, plain.call_us.size());
  if (spans == nullptr) {
    out.set("setup_s", median(generate_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("ok_frac", out.ok_fraction());
    out.set("throughput_per_cpu_s", median(plain.jobs_per_cpu_s));
    return out;
  }

  // Traced phase: spans around every replay and a sample of schedule()
  // calls, action counts from an observer, obs registry on.
  Phase traced;
  double actions = 0.0;
  {
    dras::obs::set_enabled(true);
    dras::sim::Simulator sim(nodes);
    sim.add_action_observer(
        [&actions](const dras::sim::SchedulingContext&,
                   const dras::sim::Job&) { ++actions; });
    TimedScheduler timed(policy);
    const auto start = Clock::now();
    do {
      replay(sim, timed, traced, spans);
    } while (seconds_between(start, Clock::now()) < options.seconds / 2);
    dras::obs::set_enabled(false);
  }
  const double n = traced.replays();
  const double run_s = traced.run_s / n;
  const double schedule_s = traced.schedule_s / n;
  out.set("wall.throughput_per_s", median(plain.jobs_per_s));
  // Decision latency pools every decision of the untraced half: a
  // replay's median decision takes about a microsecond, too close to the
  // clock's resolution for a per-replay value to be steady.
  out.set("wall.latency_p50_ms", percentile(plain.call_us, 50.0) / 1e3);
  out.set("wall.latency_tail_ms", percentile(plain.call_us, 99.0) / 1e3);
  out.set("workload.generate_s", median(generate_s));
  out.set("sim.run_s", run_s);
  out.set("sim.self_s", run_s - schedule_s);
  out.set("sim.instances", traced.instances / n);
  out.set("sched.schedule_s", schedule_s);
  out.set("sched.schedule_us_p50", percentile(traced.call_us, 50.0));
  out.set("sched.schedule_us_p99", percentile(traced.call_us, 99.0));
  out.set("sched.actions", actions / n);
  out.set("sim.queue_depth_mean", traced.queue_depth_sum / traced.calls);
  out.set("sim.running_mean", traced.running_sum / traced.calls);
  out.set("sim.backfill_share", traced.backfilled / traced.jobs);
  out.set("obs.overhead_frac", median(plain.jobs_per_cpu_s) /
                                   median(traced.jobs_per_cpu_s) -
                                   1.0);
  return out;
}

}  // namespace

std::uint64_t replay_reference_digest(std::string_view workload,
                                      std::uint64_t seed) {
  const ReplaySpec spec = replay_spec(workload);
  const dras::sim::Trace trace = make_replay_trace(spec, seed);
  dras::sched::FcfsEasy policy;
  dras::sim::Simulator sim(spec.model.system_nodes);
  const dras::sim::SimulationResult result = sim.run(trace, policy);
  const std::string problem =
      check_schedule(trace, spec.model.system_nodes, result);
  if (!problem.empty()) throw std::runtime_error(problem);
  return schedule_digest(result);
}

Outcome run_replay_cori(const Options& options, SpanRecorder* spans) {
  return run_replay("replay-cori", options, spans);
}

}  // namespace perfbench
