// Test-only reference: the classic single-reservation EASY arithmetic
// (paper §II-A, §III-B), kept as an oracle for the AvailabilityProfile
// that plans every reservation depth in the simulator.
//
// With one outstanding reservation (R nodes at time t_r), a waiting job j
// may start now without delaying the reservation iff
//   (1) j fits in the currently free nodes, and
//   (2) after allocating j, at least R nodes are still (estimated to be)
//       available at t_r — i.e. j either finishes by t_r or runs on nodes
//       the reservation does not need.
// Estimated completion times are used throughout, as in production EASY.
//
// The two rules agree whenever t_r >= now.  They differ only on a stale
// reservation (t_r < now, possible under fault injection): EASY counts
// releases up to the past t_r, the profile counts them up to now.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/job.h"
#include "sim/reservation.h"

namespace dras::sim::reference {

/// Nodes whose estimated release is <= `when` (excludes already-free).
[[nodiscard]] inline int released_by(const Cluster& cluster, Time when) {
  int released = 0;
  for (const RunningJob& rec : cluster.running_jobs())
    if (rec.estimated_end <= when) released += rec.size;
  for (const Time repair : cluster.down_until())
    if (repair <= when) ++released;
  return released;
}

/// Earliest time at which `size` nodes are simultaneously free, assuming
/// running jobs end at their *estimated* ends.  Returns `now` when the
/// job already fits.  Requires size <= total_nodes().
[[nodiscard]] inline Time earliest_start(const Cluster& cluster, int size,
                                         Time now) {
  if (size > cluster.total_nodes())
    throw std::invalid_argument("job larger than the whole machine");
  if (cluster.fits(size)) return now;
  std::vector<std::pair<Time, int>> releases;  // (estimated end, size)
  for (const RunningJob& rec : cluster.running_jobs())
    releases.emplace_back(rec.estimated_end, rec.size);
  for (const Time repair : cluster.down_until()) releases.emplace_back(repair, 1);
  std::sort(releases.begin(), releases.end());
  int available = cluster.free_nodes();
  for (const auto& [when, n] : releases) {
    available += n;
    if (available >= size) return std::max(when, now);
  }
  throw std::logic_error("releases never restore the machine");
}

/// Would starting `job` at `now` be a legal EASY backfill against
/// `reservation` given the current cluster state?
[[nodiscard]] inline bool backfill_legal(const Cluster& cluster,
                                         const Reservation& reservation,
                                         const Job& job, Time now) {
  if (job.id == reservation.job) return false;
  if (!cluster.fits(job.size)) return false;
  // Fast path: the job is estimated to finish before the reserved start.
  if (now + job.runtime_estimate <= reservation.start) return true;
  // Slow path: the job would still be running at t_r; it is legal only if
  // the reservation's nodes remain covered.  Nodes available at t_r after
  // allocating the job: free_now - job.size + releases by t_r (the job
  // itself releases after t_r, so it contributes nothing).
  const int available_at_start = cluster.free_nodes() - job.size +
                                 released_by(cluster, reservation.start);
  return available_at_start >= reservation.size;
}

/// Filter `queue` (arrival order preserved) down to jobs that may legally
/// backfill right now.  The reserved job itself is excluded.
[[nodiscard]] inline std::vector<Job*> backfill_candidates(
    const Cluster& cluster, const Reservation& reservation,
    const std::vector<Job*>& queue, Time now) {
  std::vector<Job*> candidates;
  for (Job* job : queue) {
    if (backfill_legal(cluster, reservation, *job, now))
      candidates.push_back(job);
  }
  return candidates;
}

}  // namespace dras::sim::reference
