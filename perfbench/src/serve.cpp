// serve-theta: a full-size Theta DRAS-PG snapshot served over a
// Unix-domain socket, driven by an open-loop load generator.
//
// Why: no simulator runs here.  Each decision is one forward pass over
// ~88 MB of weights, so the time goes to the memory-bound nn::gemm_batch,
// the DecisionService micro-batcher and the socket layer.
//
// Load: open loop.  Every request has a due time on a fixed schedule
// (evenly spaced at the phase's rate, dealt round-robin over the
// connections); a connection sends each request at its due time, or late
// if its previous request has not returned, and latency is measured from
// the due time, so a stall is charged to every request it delays.  The
// generator is this one process with min(4, nproc) client threads, one
// DecisionClient connection each, so a batch holds at most 4 requests.
//
// Phases, after a warm-up.  Untraced run: closed loop on one connection
// (requests never meet, so every pass is batch 1) in 1 s windows; the
// gated rate is decisions per process CPU second, which host contention
// does not move (README.md).  Traced run: first untraced, the wall-clock
// view -- open loop at kLowRate on every connection, where evenly spaced
// requests (40 ms apart; a batch-1 pass takes ~6 ms) ride alone, so the
// socket and per-request path show (p50 / p90 from the due time), and
// the one-connection closed loop (batch-1 capacity); then both again with
// spans and the obs registry on, a closed loop on every connection,
// where requests meet in the queue and are micro-batched, for the batch
// metrics, and an open-loop ladder climbed until p99 exceeds
// kLatencyLimitMs or the generator falls behind (serve.ladder_max_rps).
//
// Why micro-batching is not in the gated number: on a 4-core x86 host
// this build's batched path is metastable.  A 2-4 request batch takes
// longer than the batch-1 passes it replaces (gemm_batch's partial-lane
// path), so once requests meet the queue grows: the open loop collapses
// near 100 req/s, and the all-connection closed loop settles anywhere
// from 70 to 210 req/s from run to run.  The ~400 req/s a 32-wide batch
// would sustain is out of reach of 4 connections.  A kernel change shows
// in the gated rate; a batching change in the traced batch metrics and
// the ladder.
#include <algorithm>
#include <array>
#include <iostream>
#include <stdexcept>
#include <memory>
#include <thread>

#include <unistd.h>

#include "serve.h"
#include "ckpt/manager.h"
#include "core/presets.h"
#include "obs/metrics.h"
#include "util/format.h"
#include "util/rng.h"

namespace perfbench {

using dras::util::format;

namespace {

constexpr std::size_t kRequestPool = 256;  // distinct requests, cycled
/// Open-loop ladder, requests per second, x1.4 steps.
constexpr std::array<double, 8> kLadder = {50, 70, 100, 140, 200, 280, 400, 560};
/// 40 ms between requests: even when neighbours on a shared host slow a
/// batch-1 pass from ~6 ms to ~15 ms, requests still ride alone.
constexpr double kLowRate = 25.0;
/// 100 requests at kLowRate: p90 has ten samples beyond it.
constexpr double kOpenWindowSeconds = 4.0;
/// A closed-loop window: about a hundred batch-1 decisions.
constexpr double kClosedWindowSeconds = 1.0;
/// p99 latency limit of the max-rate search, from the due time.
constexpr double kLatencyLimitMs = 100.0;
constexpr int kSetupRepetitions = 3;

/// Removes the run's scratch directory (checkpoint, socket) on exit.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

}  // namespace

Stack::~Stack() {
  if (server) server->stop();
  if (service) service->stop();
}

std::unique_ptr<Stack> start_stack(const dras::core::DrasConfig& config,
                                   const std::filesystem::path& dir,
                                   const dras::util::SocketAddress& address,
                                   std::size_t connections,
                                   SpanRecorder* spans) {
  auto stack = std::make_unique<Stack>();
  std::filesystem::path path;
  {
    dras::core::DrasAgent agent(config);
    dras::ckpt::CheckpointManagerOptions options;
    options.dir = dir;
    options.keep_last = 0;
    dras::ckpt::CheckpointManager manager(options);
    dras::ckpt::TrainingState state;
    state.agent = &agent;
    state.telemetry = false;
    const auto start = Clock::now();
    path = manager.save(state, 1);
    const auto end = Clock::now();
    if (spans != nullptr) spans->add("ckpt.save", 0, start, end);
    stack->save_s = seconds_between(start, end);
  }
  const auto start = Clock::now();
  stack->snapshot = dras::serve::ModelSnapshot::load(path, config);
  const auto end = Clock::now();
  if (spans != nullptr) spans->add("ckpt.load", 0, start, end);
  stack->load_s = seconds_between(start, end);
  std::filesystem::remove_all(dir);

  stack->service = std::make_unique<dras::serve::DecisionService>(
      dras::serve::ServiceOptions{});
  stack->service->install(stack->snapshot);
  dras::serve::net::ServerOptions server_options;
  server_options.address = address;
  server_options.io_workers = connections;
  stack->server = std::make_unique<dras::serve::net::DecisionServer>(
      server_options, *stack->service);
  stack->server->start();
  return stack;
}

bool PhaseResult::within_limit() const {
  return failed == 0 && percentile(latency_ms, 99.0) <= kLatencyLimitMs &&
         percentile(lag_ms, 99.0) <= kLatencyLimitMs;
}

PhaseResult run_phase(Load& load, double rate, double seconds) {
  const bool open_loop = rate > 0.0;
  const std::size_t connections = load.clients.size();
  const auto total = static_cast<std::size_t>(rate * seconds);
  const std::size_t first = load.next_request;
  const auto& requests = *load.requests;
  const auto& expected = *load.expected;

  struct Lane {
    std::vector<double> latency_ms, service_us, lag_ms;
    std::uint64_t failed = 0;
    Clock::time_point last_done{};
  };
  std::vector<Lane> lanes(connections);
  const SpanRecorder::Id root =
      load.spans != nullptr ? load.spans->reserve() : 0;
  // Start slightly in the future so every lane is waiting at t0.
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto due_at = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) /
                                                  rate));
  };
  const double cpu_start = process_cpu_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Lane& lane = lanes[c];
      auto& client = *load.clients[c];
      std::this_thread::sleep_until(t0);
      for (std::size_t k = c; open_loop ? k < total : Clock::now() < deadline;
           k += connections) {
        const auto due = open_loop ? due_at(k) : Clock::now();
        std::this_thread::sleep_until(due);
        const std::size_t index = (first + k) % requests.size();
        const auto sent = Clock::now();
        bool ok = false;
        try {
          const auto decision = client.decide(requests[index]);
          ok = !decision.degraded && decision.job_index == expected[index];
        } catch (const std::exception&) {
          ok = false;
        }
        const auto done = Clock::now();
        if (load.spans != nullptr)
          load.spans->add("serve.request", root, sent, done);
        if (!ok) ++lane.failed;
        lane.latency_ms.push_back(seconds_between(due, done) * 1e3);
        lane.service_us.push_back(seconds_between(sent, done) * 1e6);
        lane.lag_ms.push_back(std::max(0.0, seconds_between(due, sent)) * 1e3);
        lane.last_done = done;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double cpu_s = process_cpu_seconds() - cpu_start;
  if (load.spans != nullptr)
    load.spans->finish(root, "serve.phase", 0, t0, Clock::now());

  PhaseResult result;
  result.rate = rate;
  result.cpu_s = cpu_s;
  Clock::time_point last = t0;
  for (const Lane& lane : lanes) {
    result.latency_ms.insert(result.latency_ms.end(), lane.latency_ms.begin(),
                             lane.latency_ms.end());
    result.service_us.insert(result.service_us.end(), lane.service_us.begin(),
                             lane.service_us.end());
    result.lag_ms.insert(result.lag_ms.end(), lane.lag_ms.begin(),
                         lane.lag_ms.end());
    result.failed += lane.failed;
    last = std::max(last, lane.last_done);
  }
  result.attempted = result.latency_ms.size();
  load.next_request += result.attempted;
  result.achieved_rps = static_cast<double>(result.attempted) /
                        std::max(1e-9, seconds_between(t0, last));
  return result;
}

namespace {

void print_phase(const char* name, const PhaseResult& phase) {
  std::cout << format(
      "serve-theta: {} {:.0f} req/s: {} requests, p50 {:.3f} ms, p95 {:.3f} "
      "ms, p99 {:.3f} ms, lag p99 {:.3f} ms, failed {}, achieved {:.1f} "
      "req/s, {:.1f} per CPU second\n",
      name, phase.rate, phase.attempted, percentile(phase.latency_ms, 50.0),
      percentile(phase.latency_ms, 95.0), percentile(phase.latency_ms, 99.0),
      percentile(phase.lag_ms, 99.0), phase.failed, phase.achieved_rps,
      phase.cpu_rate());
}

}  // namespace

Outcome run_serve_theta(const Options& options, SpanRecorder* spans) {
  Outcome out;
  const auto preset = dras::core::theta();
  auto config = preset.agent_config(
      dras::core::AgentKind::PG,
      dras::util::derive_seed(options.seed, "serve-agent"));
  config.total_nodes = preset.nodes;
  const std::size_t connections = std::min<unsigned>(4, nproc());
  const ScratchDir scratch{
      options.out_dir / format("serve-{}", static_cast<long>(::getpid()))};
  const auto& work_dir = scratch.path;
  std::filesystem::create_directories(work_dir);
  // Relative to the checkout, which keeps the path short enough for a
  // Unix-domain socket.
  const auto address = dras::util::SocketAddress::unix_path(
      (work_dir / "decide.sock").string());

  // --- Set-up, repeated: checkpoint -> snapshot -> service -> server;
  // setup_s is the median CPU time. ---
  std::vector<double> setup_s, save_s, load_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    const double cpu_start = process_cpu_seconds();
    stack = start_stack(config, work_dir / "ckpt", address, connections,
                        spans);
    setup_s.push_back(process_cpu_seconds() - cpu_start);
    save_s.push_back(stack->save_s);
    load_s.push_back(stack->load_s);
  }

  // --- Inputs and the oracle (not set-up time: the benchmark's own). ---
  std::vector<dras::serve::DecisionRequest> requests;
  const auto generate_start = Clock::now();
  {
    dras::util::Rng rng(dras::util::derive_seed(options.seed, "serve-requests"));
    for (std::size_t r = 0; r < kRequestPool; ++r)
      requests.push_back(dras::serve::make_synthetic_request(config, rng));
  }
  const auto generate_end = Clock::now();
  if (spans != nullptr)
    spans->add("workload.generate", 0, generate_start, generate_end);
  std::vector<std::size_t> expected;
  {
    const auto replica = stack->snapshot->make_replica();
    for (const auto& request : requests)
      expected.push_back(dras::serve::reference_decision(*replica, request));
  }
  const double weight_bytes =
      static_cast<double>(stack->snapshot->agent().network().parameter_count()) *
      sizeof(float);
  std::cout << format(
      "serve-theta: {} nodes, fc {}x{}, {:.1f} MB of weights, {} "
      "connections, {} distinct requests, seed {}\n",
      preset.nodes, preset.fc1, preset.fc2, weight_bytes / 1e6, connections,
      requests.size(), options.seed);

  std::vector<std::unique_ptr<dras::serve::net::DecisionClient>> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    dras::serve::net::ClientOptions client_options;
    client_options.address = address;
    client_options.seed = dras::util::derive_seed(options.seed, format("client-{}", c));
    clients.push_back(
        std::make_unique<dras::serve::net::DecisionClient>(client_options));
    if (!clients.back()->ping())
      throw std::runtime_error("decision server did not answer a ping");
  }
  Load load{&requests, &expected, {}, nullptr, 0};
  for (const auto& client : clients) load.clients.push_back(client.get());
  // The batch-1 capacity probe: one connection, so requests never meet.
  Load single = load;
  single.clients.resize(1);
  const auto count = [&out](const PhaseResult& phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
  };

  // Warm-up: the service clones its worker replica on the first batch.
  count(run_phase(load, kLowRate, 1.0));

  if (spans == nullptr) {
    StealWindows cpu_rates;
    const auto start = Clock::now();
    do {
      const CpuTicks before = cpu_ticks();
      const PhaseResult closed = run_phase(single, 0.0, kClosedWindowSeconds);
      cpu_rates.add(closed.cpu_rate(), steal_share(before, cpu_ticks()));
      count(closed);
      print_phase("closed loop, 1 connection", closed);
    } while (seconds_between(start, Clock::now()) < options.seconds);
    std::string rates;
    for (std::size_t w = 0; w < cpu_rates.rate.size(); ++w)
      rates += format(" {:.1f}@{:.1f}%", cpu_rates.rate[w],
                      100.0 * cpu_rates.steal[w]);
    std::cout << format(
        "serve-theta: {} closed-loop windows of {} s on 1 connection "
        "(decisions per CPU second @ steal:{}; quieter half's median "
        "{:.1f})\n",
        cpu_rates.rate.size(), kClosedWindowSeconds, rates,
        cpu_rates.quiet_median());
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("ok_frac", out.ok_fraction());
    out.set("throughput_per_cpu_s", cpu_rates.quiet_median());
    return out;
  }

  // Traced run.  Untraced first: the wall-clock view (open-loop latency
  // at kLowRate, batch-1 closed-loop rate) and the CPU-rate baseline of
  // obs.overhead_frac; then the same phases with spans and the obs
  // registry on, a closed loop on every connection for the batch
  // metrics, and the ladder.
  const double open_s = std::max(kOpenWindowSeconds, 0.2 * options.seconds);
  const double closed_s = 0.15 * options.seconds;
  const PhaseResult plain_low = run_phase(load, kLowRate, open_s);
  count(plain_low);
  print_phase("open loop", plain_low);
  const PhaseResult plain_closed = run_phase(single, 0.0, closed_s);
  count(plain_closed);
  print_phase("closed loop, 1 connection", plain_closed);

  auto& registry = dras::obs::Registry::global();
  registry.reset_values();
  dras::obs::set_enabled(true);
  load.spans = spans;
  single.spans = spans;
  const PhaseResult low = run_phase(load, kLowRate, open_s);
  count(low);
  print_phase("open loop (traced)", low);
  const double server_us_p50 =
      registry.hdr("serve.net.server.request_us").percentile(50.0);
  const PhaseResult traced_closed = run_phase(single, 0.0, closed_s);
  count(traced_closed);
  print_phase("closed loop, 1 connection (traced)", traced_closed);
  registry.reset_values();
  // Every connection busy, so requests meet in the queue and batch.
  const PhaseResult saturated = run_phase(load, 0.0, closed_s);
  count(saturated);
  print_phase("closed loop, all connections (traced)", saturated);
  dras::obs::set_enabled(false);
  load.spans = single.spans = nullptr;

  // The ladder's result is a threshold of the metastable collapse
  // described above, so it is a per-layer number, not a gated one.
  double max_rps = 0.0;
  for (const double rate : kLadder) {
    const PhaseResult step = run_phase(load, rate, 0.1 * options.seconds);
    count(step);
    print_phase("ladder", step);
    if (!step.within_limit()) break;
    max_rps = step.achieved_rps;
  }

  const double batch_mean = registry.hdr("serve.batch.size").mean();
  const auto server_stats = stack->server->stats();
  double retries = 0.0, degraded = 0.0;
  for (const auto& client : clients) {
    retries += static_cast<double>(client->stats().retries);
    degraded += static_cast<double>(client->stats().degraded);
  }
  out.set("wall.throughput_per_s", plain_closed.achieved_rps);
  out.set("wall.latency_p50_ms", percentile(plain_low.latency_ms, 50.0));
  out.set("wall.latency_tail_ms", percentile(plain_low.latency_ms, 90.0));
  out.set("workload.generate_s", seconds_between(generate_start, generate_end));
  out.set("serve.batch.size_mean", batch_mean);
  out.set("serve.batch.forward_us_p50",
          registry.hdr("serve.batch.forward_us").percentile(50.0));
  out.set("serve.batch.forward_us_p99",
          registry.hdr("serve.batch.forward_us").percentile(99.0));
  out.set("nn.weight_bytes_per_decision",
          batch_mean > 0 ? weight_bytes / batch_mean : weight_bytes);
  out.set("serve.net.overhead_us_p50",
          percentile(low.service_us, 50.0) - server_us_p50);
  out.set("serve.generator_lag_ms_p99", percentile(low.lag_ms, 99.0));
  out.set("serve.ladder_max_rps", max_rps);
  out.set("serve.shed", static_cast<double>(server_stats.requests_shed));
  out.set("serve.deadline", static_cast<double>(server_stats.requests_deadline));
  out.set("serve.retries", retries);
  out.set("serve.degraded", degraded);
  out.set("ckpt.save_s", median(save_s));
  out.set("ckpt.load_s", median(load_s));
  out.set("obs.overhead_frac",
          plain_closed.cpu_rate() / traced_closed.cpu_rate() - 1.0);
  return out;
}

}  // namespace perfbench
