// The benchmark's own tests: its instruments must not change what they
// measure, its output checks must catch wrong answers, and its metric
// catalogue must agree with BENCHMARK.json.
//
// Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "core/presets.h"
#include "obs/metrics.h"
#include "replay.h"
#include "sched/fcfs_easy.h"
#include "serve.h"
#include "util/format.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using perfbench::Clock;

dras::sim::Trace small_trace() {
  dras::workload::GenerateOptions options;
  options.num_jobs = 400;
  options.seed = 17;
  return dras::workload::generate_trace(
      dras::workload::theta_mini_workload().with_load(0.9).with_users(8),
      options);
}

std::uint64_t replay_digest(const dras::sim::Trace& trace,
                            dras::sim::Scheduler& policy) {
  dras::sim::Simulator sim(dras::workload::theta_mini_workload().system_nodes);
  return perfbench::schedule_digest(sim.run(trace, policy));
}

TEST(TimedScheduler, LeavesTheScheduleUnchangedTracedOrNot) {
  const auto trace = small_trace();
  dras::sched::FcfsEasy plain;
  const std::uint64_t expected = replay_digest(trace, plain);

  dras::sched::FcfsEasy inner;
  perfbench::TimedScheduler timed(inner);
  EXPECT_EQ(replay_digest(trace, timed), expected);
  EXPECT_GT(timed.stats().calls, 0u);
  EXPECT_EQ(timed.stats().call_us.size(), timed.stats().calls);

  perfbench::SpanRecorder spans;
  timed.reset_stats();
  timed.trace_into(&spans, 0, 3);
  dras::obs::set_enabled(true);
  EXPECT_EQ(replay_digest(trace, timed), expected);
  dras::obs::set_enabled(false);
  EXPECT_GT(timed.stats().queue_depth_sum, 0.0);
  EXPECT_EQ(spans.size(), (timed.stats().calls + 2) / 3);

  const auto clone = timed.clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(replay_digest(trace, *clone), expected);
}

TEST(CheckSchedule, AcceptsTheSimulatorsScheduleAndCatchesViolations) {
  const auto trace = small_trace();
  const int nodes = dras::workload::theta_mini_workload().system_nodes;
  dras::sched::FcfsEasy policy;
  dras::sim::Simulator sim(nodes);
  const auto result = sim.run(trace, policy);
  EXPECT_EQ(perfbench::check_schedule(trace, nodes, result), "");

  auto early = result;
  early.jobs.front().start = -1.0;
  EXPECT_NE(perfbench::check_schedule(trace, nodes, early), "");

  auto missing = result;
  missing.jobs.pop_back();
  EXPECT_NE(perfbench::check_schedule(trace, nodes, missing), "");

  // Every job at t=0: the machine is oversubscribed.
  auto crowded = result;
  for (auto& record : crowded.jobs) {
    const double runtime = record.end - record.start;
    record.start = 1e9;
    record.end = 1e9 + runtime;
  }
  EXPECT_NE(perfbench::check_schedule(trace, nodes, crowded), "");
}

TEST(ServeCheck, AnInjectedWrongAnswerCountsAsFailed) {
  // A small network keeps the test fast; the path is the one serve-theta
  // drives: checkpoint -> snapshot -> DecisionServer -> DecisionClient.
  const auto preset = dras::core::theta_mini();
  auto config = preset.agent_config(dras::core::AgentKind::PG, 5);
  config.total_nodes = preset.nodes;
  const auto dir = std::filesystem::temp_directory_path() /
                   dras::util::format("perfbench-test-{}",
                                      static_cast<long>(::getpid()));
  std::filesystem::create_directories(dir);
  const auto address =
      dras::util::SocketAddress::unix_path((dir / "s.sock").string());
  {
    auto stack = perfbench::start_stack(config, dir / "ckpt", address, 2,
                                        nullptr);
    std::vector<dras::serve::DecisionRequest> requests;
    std::vector<std::size_t> expected;
    dras::util::Rng rng(9);
    const auto replica = stack->snapshot->make_replica();
    for (int i = 0; i < 8; ++i) {
      requests.push_back(dras::serve::make_synthetic_request(config, rng));
      expected.push_back(
          dras::serve::reference_decision(*replica, requests.back()));
    }
    std::vector<std::unique_ptr<dras::serve::net::DecisionClient>> clients;
    for (int c = 0; c < 2; ++c) {
      dras::serve::net::ClientOptions options;
      options.address = address;
      clients.push_back(
          std::make_unique<dras::serve::net::DecisionClient>(options));
    }
    perfbench::Load load{&requests, &expected, {}, nullptr, 0};
    for (const auto& client : clients) load.clients.push_back(client.get());

    const auto clean = perfbench::run_phase(load, 100.0, 0.08);
    EXPECT_EQ(clean.attempted, 8u);
    EXPECT_EQ(clean.failed, 0u);

    // Corrupt one expected answer: exactly that request must fail.
    auto wrong = expected;
    wrong[3] = expected[3] + 1;
    load.expected = &wrong;
    load.next_request = 0;
    const auto injected = perfbench::run_phase(load, 100.0, 0.08);
    EXPECT_EQ(injected.attempted, 8u);
    EXPECT_EQ(injected.failed, 1u);
    EXPECT_FALSE(injected.within_limit());
  }
  std::filesystem::remove_all(dir);
}

TEST(Metrics, NamesAreWellFormedUniqueAndMatchBenchmarkJson) {
  std::set<std::string> names;
  for (const auto* list :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    for (const auto& spec : *list) {
      EXPECT_TRUE(perfbench::valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(names.insert(std::string(spec.name)).second) << spec.name;
    }
  }
  EXPECT_FALSE(perfbench::valid_metric_name("bad name"));
  EXPECT_FALSE(perfbench::valid_metric_name("p99/ms"));
  EXPECT_FALSE(perfbench::valid_metric_name(""));

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto json = dras::util::json::parse(text.str());
  const auto expect_list = [&](const char* key,
                               const std::vector<perfbench::MetricSpec>& specs) {
    const auto& list = json.find(key)->as_array();
    ASSERT_EQ(list.size(), specs.size()) << key;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list[i].find("name")->as_string(), specs[i].name);
      EXPECT_EQ(list[i].find("unit")->as_string(), specs[i].unit);
    }
  };
  expect_list("end_to_end", perfbench::end_to_end_metrics());
  expect_list("per_layer", perfbench::per_layer_metrics());
  const auto& workloads = json.find("workloads")->as_array();
  ASSERT_EQ(workloads.size(), perfbench::workloads().size());
  for (std::size_t i = 0; i < workloads.size(); ++i)
    EXPECT_EQ(workloads[i].find("name")->as_string(),
              perfbench::workloads()[i].name);
}

TEST(Percentile, IsNearestRank) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(perfbench::percentile(values, 50.0), 3.0);
  EXPECT_EQ(perfbench::percentile(values, 100.0), 5.0);
  EXPECT_EQ(perfbench::percentile(values, 0.0), 1.0);
  EXPECT_EQ(perfbench::percentile({}, 50.0), 0.0);
}

TEST(StealWindows, QuietMedianUsesTheLessStolenHalf) {
  perfbench::StealWindows windows;
  windows.add(100.0, 0.01);
  windows.add(60.0, 0.30);
  windows.add(98.0, 0.02);
  windows.add(70.0, 0.20);
  windows.add(102.0, 0.00);
  // The three least-stolen windows: 102, 100, 98.
  EXPECT_EQ(windows.quiet_median(), 100.0);
  EXPECT_EQ(perfbench::StealWindows{}.quiet_median(), 0.0);
}

TEST(SpanRecorder, SelfTimeExcludesTheUnionOfChildren) {
  perfbench::SpanRecorder spans;
  const auto t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const auto root = spans.reserve();
  spans.add("child", root, at(10), at(40));
  spans.add("child", root, at(30), at(60));  // overlaps the first
  spans.finish(root, "root", 0, at(0), at(100));
  for (const auto& layer : spans.layer_times()) {
    if (layer.name == "root") {
      EXPECT_NEAR(layer.total_s, 0.100, 1e-9);
      EXPECT_NEAR(layer.self_s, 0.050, 1e-9);
    } else {
      EXPECT_EQ(layer.spans, 2u);
      EXPECT_NEAR(layer.self_s, 0.060, 1e-9);
    }
  }
}

}  // namespace
