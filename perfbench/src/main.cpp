// perfbench: run one workload of the end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   perfbench --record WORKLOAD --seeds FIRST..LAST
//
// Human-readable lines go to stdout first; the last line is the JSON
// result {"correct", "attempted", "failed", "metrics"}.  An untraced run
// reports every end-to-end metric, a traced run every per-layer metric
// and writes its spans plus the obs registry dump under --out-dir.
// --record prints the recorded-digest rows (recorded.h) for a seed range.
// Exit status: 0 with a result, 1 when the run could not complete, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"
#include "recorded.h"
#include "util/format.h"

namespace {

using dras::util::format;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n"
               "       perfbench --record WORKLOAD --seeds FIRST..LAST\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-')
    usage(format("{} expects a non-negative integer, got '{}'", flag, text));
  return value;
}

Outcome run_workload(const Options& options, perfbench::SpanRecorder* spans) {
  for (const auto& workload : perfbench::workloads())
    if (workload.name == options.workload) return workload.run(options, spans);
  usage(format("unknown workload '{}'", options.workload));
}

/// Print the JSON result line; false when a metric is missing or not a
/// finite number.
bool print_result(const Options& options, const Outcome& outcome) {
  const auto& specs = options.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics();
  std::map<std::string, double> values;
  for (const auto& metric : outcome.metrics) values[metric.name] = metric.value;
  bool complete = true;
  std::string metrics;
  for (const auto& spec : specs) {
    auto it = values.find(std::string(spec.name));
    double value = 0.0;
    if (it != values.end()) {
      value = it->second;
    } else if (!options.trace) {
      std::cerr << "perfbench: metric " << spec.name << " not measured\n";
      complete = false;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << spec.name << " is not finite\n";
      complete = false;
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    metrics += format("{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                      metrics.empty() ? "" : ", ", spec.name, number,
                      spec.unit);
  }
  const bool correct = complete && outcome.failed == 0 && outcome.attempted > 0;
  std::cout << format(
                   "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, "
                   "\"metrics\": {{{}}}}}",
                   correct ? "true" : "false", outcome.attempted,
                   outcome.failed, metrics)
            << std::endl;
  return complete;
}

int record(const std::string& workload, const std::string& range) {
  const auto dots = range.find("..");
  if (dots == std::string::npos) usage("--seeds expects FIRST..LAST");
  const std::uint64_t first = parse_u64("--seeds", range.substr(0, dots));
  const std::uint64_t last = parse_u64("--seeds", range.substr(dots + 2));
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const std::uint64_t digest =
        workload == "train-theta-mini"
            ? perfbench::train_reference_digest(seed)
            : perfbench::replay_reference_digest(workload, seed);
    std::cout << format("    {{\"{}\", {}, {}ULL}},", workload, seed, digest)
              << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.seed = perfbench::kDefaultSeed;
  std::string record_workload, record_seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(format("{} expects a value", flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
      if (options.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--record") {
      record_workload = value;
    } else if (flag == "--seeds") {
      record_seeds = value;
    } else {
      usage(format("unknown flag {}", flag));
    }
  }
  try {
    if (!record_workload.empty()) return record(record_workload, record_seeds);
    if (options.workload.empty()) usage("--workload is required");
    std::cout << "environment: " << perfbench::environment_line() << "\n";
    perfbench::SpanRecorder recorder;
    const auto ticks_before = perfbench::cpu_ticks();
    const Outcome outcome =
        run_workload(options, options.trace ? &recorder : nullptr);
    std::cout << format(
        "cpu steal during the run: {:.1f}% of machine CPU time\n",
        100.0 * perfbench::steal_share(ticks_before, perfbench::cpu_ticks()));
    if (options.trace) {
      std::cout << "trace: " << perfbench::write_trace(options, recorder).string()
                << " (" << recorder.size() << " spans)\n";
      for (const auto& layer : recorder.layer_times())
        std::cout << format("  span {:<18} n={} total={:.6f}s self={:.6f}s\n",
                            layer.name, layer.spans, layer.total_s,
                            layer.self_s);
    }
    return print_result(options, outcome) ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
