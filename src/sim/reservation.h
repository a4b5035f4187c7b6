// Resource reservation ledger.
//
// A reservation pins the earliest start time of a job that cannot run
// now; backfilled jobs must not delay it.  The ledger holds up to `depth`
// outstanding reservations, all planned through one AvailabilityProfile
// (profile.h):
//
//   depth == 1  — classic EASY (paper §II-A / §III-B): one reservation,
//                 exactly the behaviour DRAS and FCFS use in the paper.
//   depth  > 1  — the conservative-backfilling extension: several queued
//                 jobs hold future node claims simultaneously.
//
// Reservations are system commitments: they persist until the reserved
// job starts (the simulator starts it automatically once it fits without
// jeopardising the remaining reservations).  A reservation whose start
// passes without its job starting — only fault injection causes that — is
// re-planned at the earliest start the others leave free.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "sim/job.h"

namespace dras::sim {

struct Reservation {
  JobId job = kInvalidJob;
  int size = 0;         ///< Nodes the reserved job needs.
  Time start = 0.0;     ///< Earliest start computed from estimated releases.
  Time duration = 0.0;  ///< Reserved job's runtime estimate (claim length).
};

class ReservationLedger {
 public:
  explicit ReservationLedger(std::size_t depth = 1) : depth_(depth) {}

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t count() const noexcept { return list_.size(); }
  [[nodiscard]] bool active() const noexcept { return !list_.empty(); }
  [[nodiscard]] bool full() const noexcept { return list_.size() >= depth_; }

  /// Oldest outstanding reservation (the only one at depth 1).
  [[nodiscard]] const Reservation& get() const { return list_.front(); }
  [[nodiscard]] std::span<const Reservation> all() const noexcept {
    return list_;
  }
  [[nodiscard]] bool holds(JobId id) const noexcept {
    return find(id) != list_.end();
  }

  /// Install a reservation.  Returns false when the ledger is full.
  bool add(Reservation r) {
    if (full()) return false;
    list_.push_back(r);
    return true;
  }
  /// Move the reservation for `id` to `start`; false if absent.
  bool replan(JobId id, Time start) {
    for (Reservation& r : list_) {
      if (r.job != id) continue;
      r.start = start;
      return true;
    }
    return false;
  }
  /// Remove the reservation for `id`; false if absent.
  bool remove(JobId id) {
    const auto it = find(id);
    if (it == list_.end()) return false;
    list_.erase(it);
    return true;
  }
  void clear() noexcept { list_.clear(); }

 private:
  [[nodiscard]] std::vector<Reservation>::const_iterator find(
      JobId id) const noexcept {
    return std::find_if(list_.begin(), list_.end(),
                        [id](const Reservation& r) { return r.job == id; });
  }

  std::size_t depth_;
  std::vector<Reservation> list_;
};

}  // namespace dras::sim
