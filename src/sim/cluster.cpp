#include "sim/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dras::sim {

Cluster::Cluster(int total_nodes)
    : total_nodes_(total_nodes), free_nodes_(total_nodes) {
  if (total_nodes <= 0)
    throw std::invalid_argument("cluster needs a positive node count");
}

bool Cluster::allocate(const Job& job, Time now) {
  if (!fits(job.size)) return false;
  assert(!running_.contains(job.id));
  RunningJob rec;
  rec.id = job.id;
  rec.size = job.size;
  rec.start = now;
  rec.estimated_end = now + job.runtime_estimate;
  rec.actual_end = now + job.effective_runtime();
  running_.emplace(job.id, rec);
  free_nodes_ -= job.size;
  return true;
}

std::optional<RunningJob> Cluster::release(JobId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return std::nullopt;
  RunningJob rec = it->second;
  running_.erase(it);
  free_nodes_ += rec.size;
  assert(free_nodes_ <= total_nodes_);
  return rec;
}

std::vector<RunningJob> Cluster::running_jobs() const {
  std::vector<RunningJob> jobs;
  jobs.reserve(running_.size());
  for (const auto& [id, rec] : running_) jobs.push_back(rec);
  return jobs;
}

const RunningJob* Cluster::find_running(JobId id) const noexcept {
  const auto it = running_.find(id);
  return it == running_.end() ? nullptr : &it->second;
}

void Cluster::fail_free_node(Time repair_end) {
  assert(free_nodes_ > 0);
  --free_nodes_;
  down_.insert(std::upper_bound(down_.begin(), down_.end(), repair_end),
               repair_end);
}

void Cluster::repair_node() {
  assert(!down_.empty());
  down_.erase(down_.begin());
  ++free_nodes_;
  assert(free_nodes_ <= total_nodes_);
}

void Cluster::encode_nodes(Time now, std::vector<NodeRow>& out) const {
  out.clear();
  out.reserve(static_cast<std::size_t>(total_nodes_));
  std::vector<RunningJob> jobs = running_jobs();
  std::sort(jobs.begin(), jobs.end(), [](const RunningJob& a,
                                         const RunningJob& b) {
    if (a.estimated_end != b.estimated_end)
      return a.estimated_end < b.estimated_end;
    return a.id < b.id;
  });
  for (const RunningJob& rec : jobs) {
    const float delta = static_cast<float>(std::max(0.0, rec.estimated_end - now));
    for (int i = 0; i < rec.size; ++i)
      out.push_back(NodeRow{0.0f, delta});
  }
  // Down nodes look like busy nodes releasing at their repair time, so
  // the agent sees failed capacity exactly as temporarily-claimed nodes.
  for (const Time repair : down_)
    out.push_back(NodeRow{0.0f, static_cast<float>(std::max(0.0, repair - now))});
  const auto busy = out.size();
  for (std::size_t i = busy; i < static_cast<std::size_t>(total_nodes_); ++i)
    out.push_back(NodeRow{1.0f, 0.0f});
}

void Cluster::clear() {
  running_.clear();
  down_.clear();
  free_nodes_ = total_nodes_;
}

}  // namespace dras::sim
