// Shared plumbing of the end-to-end benchmark: run options, the metric
// catalogue, percentiles, process probes and the in-memory span recorder.
//
// Every workload lives in its own translation unit and returns an
// Outcome: how many operations it attempted, how many failed an output
// check, and the metrics it measured.  main.cpp prints the Outcome as the
// one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time of one run.
  bool trace = false;     ///< Per-layer run (spans + obs registry on).
  std::filesystem::path out_dir = ".bench_build/perfbench-out";
};

/// A metric name and unit from BENCHMARK.json.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics: reported by every workload in an untraced run.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: reported by every workload in a traced run (0 where
/// the workload does not exercise the layer).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// Does `name` match [A-Za-z0-9_.-]+ ?
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Count one checked operation; false counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void set(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
  /// Fraction of attempted operations that passed every output check.
  [[nodiscard]] double ok_fraction() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// CPU seconds consumed by this process (all threads) so far.
[[nodiscard]] double process_cpu_seconds();
/// CPU seconds consumed by the calling thread so far.  On a virtual
/// machine with steal accounting neither clock advances while the host
/// runs other tenants on this machine's CPUs, nor while a thread waits
/// for a CPU, so a rate per CPU second moves far less with the
/// neighbours' load than a rate per wall second (README.md).
[[nodiscard]] double thread_cpu_seconds();
/// Threads currently alive in this process (/proc/self/status).
[[nodiscard]] int thread_count();
/// Online processors.
[[nodiscard]] unsigned nproc();
/// One line describing the environment every result depends on: nproc,
/// OMP_NUM_THREADS (or "unset"), build type and compiler.
[[nodiscard]] std::string environment_line();

/// Machine-wide CPU time counters from /proc/stat (clock ticks).  On a
/// virtual machine `steal` is time the host ran other tenants on this
/// machine's CPUs: every wall-clock metric slows with it.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Share of machine CPU time stolen by the host between two readings.
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Rates measured in windows (a training run, a slice of serving), each
/// with the CPU steal it saw.  Stolen CPU time is not charged to this
/// process, but the other tenants that take it also evict its caches and
/// stall its threads at barriers, so a window's rate per CPU second still
/// drops by about the steal share.  Steal comes and goes within a run.
struct StealWindows {
  std::vector<double> rate;
  std::vector<double> steal;

  void add(double window_rate, double window_steal) {
    rate.push_back(window_rate);
    steal.push_back(window_steal);
  }
  /// Median rate of the half of the windows that saw the least steal.
  [[nodiscard]] double quiet_median() const;
};

/// FNV-1a accumulation over raw bytes (digests of schedules and
/// parameters).
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder for the traced run.  The benchmark opens a
/// span around each of its own calls into a layer (never inside the
/// library); spans carry a parent link so per-layer self time is the
/// span's duration minus the part its children cover.  Thread-safe.
class SpanRecorder {
 public:
  using Id = std::uint32_t;  ///< 0 = no span / no parent.

  /// Record a finished span; returns its id.
  Id add(std::string_view name, Id parent, Clock::time_point start,
         Clock::time_point end);
  /// Reserve an id for a span whose children are recorded before it ends.
  Id reserve();
  /// Record the span `id` reserved earlier.
  void finish(Id id, std::string_view name, Id parent,
              Clock::time_point start, Clock::time_point end);

  struct LayerTime {
    std::string name;
    std::uint64_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Total and self time per span name, sorted by name.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;
  [[nodiscard]] std::size_t size() const;

  /// Write the spans (Chrome trace 'X' events with id/parent args), the
  /// per-layer self times, `environment` and `extra_json` (an object,
  /// e.g. the obs registry dump) to `path`.
  void write(const std::filesystem::path& path, std::string_view environment,
             std::string_view extra_json) const;

 private:
  struct Span {
    Id id = 0;
    Id parent = 0;
    std::uint16_t name = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  std::uint16_t intern_locked(std::string_view name);

  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  Id next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

/// Write the traced run's spans and the obs registry dump to
/// `<out_dir>/trace-<workload>-seed<seed>.json`; returns the path.
std::filesystem::path write_trace(const Options& options,
                                  const SpanRecorder& spans);

// --- Workloads (one translation unit each) ---
[[nodiscard]] Outcome run_replay_cori(const Options& options,
                                      SpanRecorder* spans);
[[nodiscard]] Outcome run_train_theta_mini(const Options& options,
                                           SpanRecorder* spans);
[[nodiscard]] Outcome run_serve_theta(const Options& options,
                                      SpanRecorder* spans);

struct Workload {
  std::string_view name;
  /// `spans` is null in an untraced run.
  Outcome (*run)(const Options& options, SpanRecorder* spans);
};
/// Every workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Reference output of a seed, for the recorded-digest table: the
/// schedule digest of a replay workload or the final-parameter digest of
/// the training workload.
[[nodiscard]] std::uint64_t replay_reference_digest(std::string_view workload,
                                                    std::uint64_t seed);
[[nodiscard]] std::uint64_t train_reference_digest(std::uint64_t seed);

}  // namespace perfbench
