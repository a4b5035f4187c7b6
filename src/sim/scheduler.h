// Pluggable scheduling-policy interface.
//
// The simulator invokes `schedule()` at every scheduling instance (job
// submission, job completion, or reservation start).  The policy acts on
// the environment exclusively through the SchedulingContext: starting jobs
// immediately, creating reservations (one at the paper's depth 1), and
// backfilling against them.  The context validates every action (fit,
// legality against the availability profile, sim/profile.h) so a buggy
// policy cannot corrupt simulator state, mirroring how CQSim separates the
// queue manager from the policy plug-in.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/cluster.h"
#include "sim/job.h"
#include "sim/reservation.h"

namespace dras::sim {

class Simulator;

/// Window onto the simulator offered to a policy for one scheduling
/// instance.  All actions take effect at `now()`.
class SchedulingContext {
 public:
  // --- Observation ---
  [[nodiscard]] Time now() const noexcept;
  [[nodiscard]] const Cluster& cluster() const noexcept;
  /// Visible wait queue, arrival order.  Starting or backfilling a job
  /// removes it from this vector immediately.
  [[nodiscard]] const std::vector<Job*>& queue() const noexcept;
  [[nodiscard]] const ReservationLedger& reservation() const noexcept;
  /// Does `id` currently hold a reservation?  (Reserved jobs remain in
  /// the wait queue until they start.)
  [[nodiscard]] bool is_reserved(JobId id) const noexcept;
  /// Index of this scheduling instance within the run (0-based).
  [[nodiscard]] std::size_t instance() const noexcept;
  /// Longest wait among queued jobs (used by reward Eq. 1's t_max).
  [[nodiscard]] Time max_queued_time() const noexcept;

  // --- Fault observation (sim/fault.h; all zero in fault-free runs) ---
  /// Fraction of machine nodes currently down for repair.
  [[nodiscard]] double fraction_down() const noexcept;
  /// Node failures within the configured feature window, per node.
  [[nodiscard]] double recent_fault_rate() const noexcept;
  /// Node-seconds of killed-and-requeued work waiting in the queue.
  [[nodiscard]] double requeued_backlog() const noexcept;

  // --- Fairness observation (src/fair; zero before any job starts) ---
  /// `user`'s fraction of all decayed node-second consumption this run,
  /// in [0, 1] (fair::ShareTracker; users never charged report 0).
  [[nodiscard]] double user_share(int user) const noexcept;
  /// Distinct user ids among currently queued jobs (the unknown
  /// sentinel counts as one user).
  [[nodiscard]] std::size_t queued_user_count() const noexcept;

  // --- Actions ---
  /// Start `id` immediately (execution mode Ready unless the job held a
  /// reservation earlier, then Reserved).  Fails if it does not fit or is
  /// not queued.
  bool start_now(JobId id);
  /// Reserve nodes for `id` at its earliest estimated start.  Fails if the
  /// job can legally start now (it should be started instead), is not
  /// queued or already reserved, or the reservation ledger is full.
  bool reserve(JobId id);
  /// Start `id` as a backfill against the active reservations.  Fails
  /// without an active reservation or when it would delay one.
  bool backfill(JobId id);
  /// Queued, unreserved jobs that fit now and would delay no reservation,
  /// in arrival order (empty without an active reservation).
  [[nodiscard]] std::vector<Job*> backfill_candidates() const;

 private:
  friend class Simulator;
  explicit SchedulingContext(Simulator& sim) : sim_(sim) {}
  Simulator& sim_;
};

/// Base class for every scheduling policy (heuristic or learned).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before a run/episode starts.
  virtual void begin_episode() {}
  /// Called once after the run drains.
  virtual void end_episode() {}

  /// Make scheduling decisions for the current instance.
  virtual void schedule(SchedulingContext& ctx) = 0;

  /// Deep copy of this policy, including all mutable state (RNG position,
  /// learned parameters, optimiser moments, exploration schedule), so that
  /// the clone run in isolation behaves bit-identically to the original.
  /// Required for parallel evaluation (exec::ParallelEvaluator), where each
  /// worker evaluates a private instance.  The default returns nullptr,
  /// meaning "not cloneable"; such policies can still be evaluated
  /// serially (--jobs 1).
  [[nodiscard]] virtual std::unique_ptr<Scheduler> clone() const {
    return nullptr;
  }
};

}  // namespace dras::sim
