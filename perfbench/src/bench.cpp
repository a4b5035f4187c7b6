#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/metrics.h"
#include "util/format.h"
#include "util/fs.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},
      {"throughput_per_cpu_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall.throughput_per_s", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      {"wall.latency_tail_ms", "ms"},
      {"workload.generate_s", "s"},
      {"sim.run_s", "s"},
      {"sim.self_s", "s"},
      {"sim.instances", "count"},
      {"sched.schedule_s", "s"},
      {"sched.schedule_us_p50", "us"},
      {"sched.schedule_us_p99", "us"},
      {"sched.actions", "count"},
      {"sim.queue_depth_mean", "jobs"},
      {"sim.running_mean", "jobs"},
      {"sim.backfill_share", "frac"},
      {"rollout.round_s_p50", "s"},
      {"rollout.round_s_p99", "s"},
      {"rollout.slot_imbalance", "ratio"},
      {"rollout.reduce_s", "s"},
      {"nn.forward_us_p50", "us"},
      {"nn.batch_forward_us_p50", "us"},
      {"nn.backward_us_p50", "us"},
      {"nn.update_us_p50", "us"},
      {"train.decisions", "count"},
      {"train.updates", "count"},
      {"train.cpu_util", "frac"},
      {"train.threads_peak", "count"},
      {"serve.batch.size_mean", "requests"},
      {"serve.batch.forward_us_p50", "us"},
      {"serve.batch.forward_us_p99", "us"},
      {"nn.weight_bytes_per_decision", "bytes"},
      {"serve.net.overhead_us_p50", "us"},
      {"serve.generator_lag_ms_p99", "ms"},
      {"serve.ladder_max_rps", "1/s"},
      {"serve.shed", "count"},
      {"serve.deadline", "count"},
      {"serve.retries", "count"},
      {"serve.degraded", "count"},
      {"ckpt.save_s", "s"},
      {"ckpt.load_s", "s"},
      {"obs.overhead_frac", "frac"},
  };
  return specs;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"replay-cori", run_replay_cori},
      {"train-theta-mini", run_train_theta_mini},
      {"serve-theta", run_serve_theta},
  };
  return list;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q% of samples at or
  // below it.
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

unsigned nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::string environment_line() {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return dras::util::format(
      "nproc={} OMP_NUM_THREADS={} build_type={} compiler={}", nproc(),
      omp != nullptr ? omp : "unset", PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER);
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user.
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  for (int field = 0; field < 8 && stat; ++field) {
    double value = 0.0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

double StealWindows::quiet_median() const {
  std::vector<std::size_t> order(rate.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](auto a, auto b) {
    return steal[a] < steal[b];
  });
  std::vector<double> quiet;
  for (std::size_t i = 0; i < (order.size() + 1) / 2; ++i)
    quiet.push_back(rate[order[i]]);
  return median(std::move(quiet));
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

// --- SpanRecorder ---

std::uint16_t SpanRecorder::intern_locked(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

SpanRecorder::Id SpanRecorder::reserve() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanRecorder::finish(Id id, std::string_view name, Id parent,
                          Clock::time_point start, Clock::time_point end) {
  std::lock_guard lock(mutex_);
  spans_.push_back({id, parent, intern_locked(name), start, end});
}

SpanRecorder::Id SpanRecorder::add(std::string_view name, Id parent,
                                   Clock::time_point start,
                                   Clock::time_point end) {
  std::lock_guard lock(mutex_);
  const Id id = next_id_++;
  spans_.push_back({id, parent, intern_locked(name), start, end});
  return id;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<SpanRecorder::LayerTime> SpanRecorder::layer_times() const {
  std::lock_guard lock(mutex_);
  // Children of each span, as intervals clipped to the parent.
  std::map<Id, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& span : spans_) {
    const auto it = index.find(span.parent);
    if (span.parent == 0 || it == index.end()) continue;
    const Span& parent = spans_[it->second];
    const auto start = std::max(span.start, parent.start);
    const auto end = std::min(span.end, parent.end);
    if (start < end) children[it->second].emplace_back(start, end);
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals (concurrent children overlap).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point run_start{}, run_end{};
    bool open = false;
    for (const auto& [start, end] : kids) {
      if (!open || start > run_end) {
        if (open) covered += seconds_between(run_start, run_end);
        run_start = start;
        run_end = end;
        open = true;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (open) covered += seconds_between(run_start, run_end);
    LayerTime& layer = layers[names_[span.name]];
    layer.name = names_[span.name];
    ++layer.spans;
    const double total = seconds_between(span.start, span.end);
    layer.total_s += total;
    layer.self_s += std::max(0.0, total - covered);
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : layers) out.push_back(layer);
  return out;
}

void SpanRecorder::write(const std::filesystem::path& path,
                         std::string_view environment,
                         std::string_view extra_json) const {
  const auto layers = layer_times();
  std::ostringstream out;
  out.precision(17);
  out << "{\"environment\":" << dras::util::json::quote(environment)
      << ",\"layers\":[";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":\"" << layers[i].name
        << "\",\"spans\":" << layers[i].spans
        << ",\"total_s\":" << layers[i].total_s
        << ",\"self_s\":" << layers[i].self_s << "}";
  }
  out << "],\"extra\":" << (extra_json.empty() ? "{}" : extra_json)
      << ",\"traceEvents\":[";
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(span.start - epoch_)
              .count();
      const double dur =
          std::chrono::duration<double, std::micro>(span.end - span.start)
              .count();
      out << (i ? "," : "") << "{\"name\":\"" << names_[span.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"args\":{\"id\":" << span.id
          << ",\"parent\":" << span.parent << "}}";
    }
  }
  out << "]}\n";
  dras::util::atomic_write_file(path, out.str());
}

std::filesystem::path write_trace(const Options& options,
                                  const SpanRecorder& spans) {
  const auto path =
      options.out_dir / dras::util::format("trace-{}-seed{}.json",
                                           options.workload, options.seed);
  std::filesystem::create_directories(options.out_dir);
  spans.write(path, environment_line(),
              dras::obs::metrics_to_json(dras::obs::Registry::global()));
  return path;
}

}  // namespace perfbench
