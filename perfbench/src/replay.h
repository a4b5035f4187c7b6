// Trace-replay workload: full-scale Cori under FCFS + EASY.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "workload/models.h"

namespace perfbench {

/// Forwarding Scheduler decorator that times every schedule() call of the
/// policy it wraps.  name(), begin_episode(), end_episode() and clone()
/// pass through, so the wrapped policy makes exactly the decisions it
/// makes unwrapped.  The per-call times are the scheduling-decision
/// latency a resource manager waits for at each scheduling instance.
class TimedScheduler final : public dras::sim::Scheduler {
 public:
  /// Wrap `inner` without owning it; `inner` must outlive the decorator.
  explicit TimedScheduler(dras::sim::Scheduler& inner) : inner_(&inner) {}
  /// Wrap and own `inner` (what clone() returns).
  explicit TimedScheduler(std::unique_ptr<dras::sim::Scheduler> inner)
      : owned_(std::move(inner)), inner_(owned_.get()) {}

  /// Traced runs: also sample the queue depth and the running-job count
  /// at every schedule() entry, and record every `span_stride`-th call as
  /// a span under `parent`.
  void trace_into(SpanRecorder* spans, SpanRecorder::Id parent,
                  std::size_t span_stride);

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void begin_episode() override { inner_->begin_episode(); }
  void end_episode() override { inner_->end_episode(); }
  void schedule(dras::sim::SchedulingContext& ctx) override;
  /// A decorator around a clone of the wrapped policy (fresh stats, no
  /// tracing); nullptr when the wrapped policy is not cloneable.
  [[nodiscard]] std::unique_ptr<dras::sim::Scheduler> clone() const override;

  struct Stats {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    std::vector<double> call_us;  ///< Wall time of every call.
    double queue_depth_sum = 0.0;  ///< Traced runs only.
    double running_sum = 0.0;      ///< Traced runs only.
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  std::unique_ptr<dras::sim::Scheduler> owned_;
  dras::sim::Scheduler* inner_;
  Stats stats_;
  SpanRecorder* spans_ = nullptr;
  SpanRecorder::Id parent_ = 0;
  std::size_t span_stride_ = 1;
};

/// Digest of a schedule: FNV-1a over (id, start, end) of every job
/// record, in job-id order, so it pins when each job ran and nothing
/// else.
[[nodiscard]] std::uint64_t schedule_digest(
    const dras::sim::SimulationResult& result);

/// Output oracle independent of the simulator's bookkeeping: every trace
/// job finished exactly once, started no earlier than it was submitted,
/// ran for its effective runtime, and the running jobs never needed more
/// than `nodes` nodes.  Returns an empty string or the first violation.
[[nodiscard]] std::string check_schedule(
    const dras::sim::Trace& trace, int nodes,
    const dras::sim::SimulationResult& result);

struct ReplaySpec {
  std::string name;
  dras::workload::WorkloadModel model;
  std::size_t jobs = 0;
  std::size_t backlog = 0;  ///< Leading jobs submitted at t=0.
};
/// The workload definition behind "replay-cori".
[[nodiscard]] ReplaySpec replay_spec(std::string_view workload);
/// The trace of the run seeded with `seed`: the jobs of the fixed
/// stand-in "real" trace seed, with the user mix drawn from `seed`.
[[nodiscard]] dras::sim::Trace make_replay_trace(const ReplaySpec& spec,
                                                 std::uint64_t seed);

}  // namespace perfbench
