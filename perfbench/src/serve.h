// Serving stack and open/closed-loop load phases of the serve-theta
// workload (serve.cpp), exposed for the benchmark's own tests.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/dras_agent.h"
#include "serve/decision_service.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/snapshot.h"
#include "util/socket.h"

namespace perfbench {

/// The serving stack of one set-up: snapshot, service, socket server.
struct Stack {
  std::shared_ptr<const dras::serve::ModelSnapshot> snapshot;
  std::unique_ptr<dras::serve::DecisionService> service;
  std::unique_ptr<dras::serve::net::DecisionServer> server;
  double save_s = 0.0;  ///< Checkpoint write.
  double load_s = 0.0;  ///< Checkpoint -> snapshot.

  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// Checkpoint a freshly initialised agent of `config` into `dir`, load it
/// back as a serving snapshot (then remove `dir`), and serve it with the
/// default batch policy on `address` with `connections` I/O workers.
[[nodiscard]] std::unique_ptr<Stack> start_stack(
    const dras::core::DrasConfig& config, const std::filesystem::path& dir,
    const dras::util::SocketAddress& address, std::size_t connections,
    SpanRecorder* spans);

/// What a load phase sends and checks against.  Non-owning.
struct Load {
  const std::vector<dras::serve::DecisionRequest>* requests = nullptr;
  /// serve::reference_decision for each request, computed in advance.
  const std::vector<std::size_t>* expected = nullptr;
  /// One connection per load-generator thread.
  std::vector<dras::serve::net::DecisionClient*> clients;
  SpanRecorder* spans = nullptr;
  std::size_t next_request = 0;  ///< Pool position, advanced per phase.
};

struct PhaseResult {
  double rate = 0.0;               ///< Offered rate; 0 = closed loop.
  std::vector<double> latency_ms;  ///< From the due time.
  std::vector<double> service_us;  ///< From the actual send.
  std::vector<double> lag_ms;      ///< Send time minus due time.
  std::uint64_t attempted = 0;
  /// Answers that differ from the expected decision, came from the
  /// client's degraded fallback, or failed outright.
  std::uint64_t failed = 0;
  double achieved_rps = 0.0;
  /// Process CPU time of the phase: client, server, service and kernel
  /// threads.
  double cpu_s = 0.0;

  /// Requests per CPU second.
  [[nodiscard]] double cpu_rate() const {
    return cpu_s > 0.0 ? static_cast<double>(attempted) / cpu_s : 0.0;
  }

  /// No failure, and p99 latency and generator lag within the limit.
  [[nodiscard]] bool within_limit() const;
};

/// One phase of `seconds`: open loop at `rate` requests per second, or
/// closed loop (each connection sends its next request as soon as the
/// previous one returns) when `rate` is 0.
[[nodiscard]] PhaseResult run_phase(Load& load, double rate, double seconds);

}  // namespace perfbench
