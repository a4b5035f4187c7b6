// Future node-availability profile.
//
// A step function A(t) = nodes available at time t >= now, built from
//   + the currently free nodes,
//   + releases of running jobs at their *estimated* ends,
//   − claims of outstanding reservations (r.size nodes held from r.start
//     for the reserved job's estimated runtime).
//
// The profile plans every reservation depth: a job may start now iff
// subtracting its own claim keeps A(t) non-negative everywhere, and a new
// reservation's earliest start is the first t where A stays >= size for
// the job's whole estimated duration.  At depth 1 this is exactly EASY
// (with the reservation at t_r >= now, "min A over [now, now + est) >=
// size" holds iff the job ends by t_r or leaves the reservation's nodes
// free at t_r); deeper ledgers give conservative-style backfilling.  The
// classic EASY arithmetic survives only as a test oracle
// (tests/sim/easy_reference.h).
//
// Claims and releases before `now` are clamped to `now`: a job running
// past its estimate counts as releasing now, so A(now) can exceed the free
// nodes and callers must also check Cluster::fits.
#pragma once

#include <span>
#include <vector>

#include "sim/cluster.h"
#include "sim/job.h"
#include "sim/reservation.h"

namespace dras::sim {

class AvailabilityProfile {
 public:
  /// Build the profile at time `now` from the cluster's running set and
  /// the outstanding reservations.
  AvailabilityProfile(const Cluster& cluster,
                      std::span<const Reservation> reservations, Time now);

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Available nodes at time t (t >= now).
  [[nodiscard]] int available_at(Time t) const;

  /// Minimum availability over [from, to).  `to` may be +infinity
  /// conceptually; pass kOpenEnd for "forever".
  [[nodiscard]] int min_available(Time from, Time to) const;

  /// Earliest time t >= now at which `size` nodes stay available for the
  /// whole window [t, t + duration).  Always succeeds for
  /// size <= total nodes because every claim eventually expires.
  [[nodiscard]] Time earliest_start(int size, Time duration) const;

  /// Would starting a job of `size` nodes now, holding them for
  /// `duration` (its runtime estimate), violate any future commitment?
  [[nodiscard]] bool can_start_now(int size, Time duration) const;

  /// Step breakpoints (time, available-after-time); for tests/debugging.
  struct Step {
    Time time = 0.0;
    int available = 0;
  };
  [[nodiscard]] const std::vector<Step>& steps() const noexcept {
    return steps_;
  }

  static constexpr Time kOpenEnd = 1e300;

 private:
  Time now_;
  std::vector<Step> steps_;  // sorted by time; steps_[0].time == now
};

}  // namespace dras::sim
