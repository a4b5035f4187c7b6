#include "serve/net/client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/format.h"
#include "util/logging.h"

namespace dras::serve::net {
namespace {

using Clock = std::chrono::steady_clock;

struct ClientMetrics {
  obs::Counter& requests;
  obs::Counter& served;
  obs::Counter& degraded;
  obs::Counter& retries;
  obs::Counter& reconnects;
  obs::Counter& transport_errors;
  obs::Counter& breaker_opens;
  obs::Counter& breaker_closes;
  obs::HdrHistogram& latency_us;

  static ClientMetrics& get() {
    static ClientMetrics metrics = [] {
      auto& registry = obs::Registry::global();
      return ClientMetrics{
          registry.counter("serve.net.client.requests"),
          registry.counter("serve.net.client.served"),
          registry.counter("serve.net.client.degraded"),
          registry.counter("serve.net.client.retries"),
          registry.counter("serve.net.client.reconnects"),
          registry.counter("serve.net.client.transport_errors"),
          registry.counter("serve.net.client.breaker_opens"),
          registry.counter("serve.net.client.breaker_closes"),
          registry.hdr("serve.net.client.latency_us"),
      };
    }();
    return metrics;
  }
};

double micros_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

DecisionClient::DecisionClient(ClientOptions options)
    : options_(std::move(options)),
      backoff_rng_(util::derive_seed(options_.seed, "net-client-backoff")) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.breaker_threshold == 0) options_.breaker_threshold = 1;
}

DecisionClient::~DecisionClient() = default;

void DecisionClient::set_fallback(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  std::lock_guard lock(mutex_);
  fallback_ = std::move(snapshot);
}

NetDecision DecisionClient::decide(const DecisionRequest& request) {
  std::lock_guard lock(mutex_);
  const auto started = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  ClientMetrics::get().requests.add();

  bool half_open_probe = false;
  if (breaker_open_.load(std::memory_order_relaxed)) {
    if (Clock::now() < breaker_reopen_at_) {
      return fallback_or_throw(request, started, 0, "circuit breaker open");
    }
    half_open_probe = true;  // cooldown over: one probe attempt
  }

  const std::size_t attempts_allowed =
      half_open_probe ? 1 : options_.max_attempts;
  std::string last_error = "no attempt made";

  for (std::size_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      ClientMetrics::get().retries.add();
      std::this_thread::sleep_for(backoff_delay(attempt));
    }
    try {
      ensure_connected();
      RequestMsg msg;
      msg.request_id = ++next_request_id_;
      msg.request = request;
      const ResponseMsg response =
          roundtrip(msg, Clock::now() + options_.request_timeout);

      if (response.status == Status::Ok) {
        note_success();
        served_.fetch_add(1, std::memory_order_relaxed);
        ClientMetrics::get().served.add();
        NetDecision decision;
        decision.job_index = static_cast<std::size_t>(response.job_index);
        decision.model_version = response.model_version;
        decision.degraded = false;
        decision.batch_size = response.batch_size;
        decision.attempts = static_cast<std::uint32_t>(attempt + 1);
        decision.latency_us = micros_since(started);
        ClientMetrics::get().latency_us.observe(decision.latency_us);
        return decision;
      }
      if (response.status == Status::BadRequest) {
        // Deterministic rejection: the transport itself worked, so the
        // breaker is untouched; retrying or falling back would only
        // mask a caller bug.
        note_success();
        throw RequestRejected("server rejected request: " + response.message);
      }
      // Retryable server-side transient.
      server_rejects_.fetch_add(1, std::memory_order_relaxed);
      last_error = util::format("server status {}: {}",
                                to_string(response.status), response.message);
      if (response.status == Status::ShuttingDown) drop_connection();
    } catch (const RequestRejected&) {
      throw;
    } catch (const util::SocketError& error) {
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      ClientMetrics::get().transport_errors.add();
      last_error = error.what();
      drop_connection();
    } catch (const WireError& error) {
      // Corrupted / desynced stream (chaos!): detected, never trusted.
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      ClientMetrics::get().transport_errors.add();
      last_error = util::format("wire error [{}]: {}",
                                to_string(error.reason()), error.what());
      drop_connection();
    }
  }

  note_failure();
  return fallback_or_throw(request, started,
                           static_cast<std::uint32_t>(attempts_allowed),
                           last_error);
}

bool DecisionClient::ping() {
  std::lock_guard lock(mutex_);
  try {
    ensure_connected();
    const std::uint64_t nonce = ++next_request_id_;
    socket_.send_all(encode_ping(nonce),
                     Clock::now() + options_.request_timeout);
    const auto deadline = Clock::now() + options_.request_timeout;
    char buffer[512];
    for (;;) {
      std::optional<Frame> frame;
      while ((frame = decoder_.next())) {
        if (frame->type == FrameType::Pong && decode_pong(*frame) == nonce) {
          return true;
        }
      }
      const std::size_t n = socket_.recv_some(buffer, sizeof(buffer), deadline);
      if (n == 0) return false;
      decoder_.feed(std::string_view(buffer, n));
    }
  } catch (const std::exception&) {
    drop_connection();
    return false;
  }
}

bool DecisionClient::breaker_open() const {
  return breaker_open_.load(std::memory_order_relaxed);
}

DecisionClient::Stats DecisionClient::stats() const {
  Stats stats;
  stats.requests = requests_.load();
  stats.served = served_.load();
  stats.degraded = degraded_.load();
  stats.retries = retries_.load();
  stats.reconnects = reconnects_.load();
  stats.transport_errors = transport_errors_.load();
  stats.server_rejects = server_rejects_.load();
  stats.breaker_opens = breaker_opens_.load();
  stats.breaker_closes = breaker_closes_.load();
  return stats;
}

void DecisionClient::ensure_connected() {
  if (socket_.valid()) return;
  socket_ = util::connect_socket(options_.address, options_.connect_timeout);
  decoder_.reset();
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  ClientMetrics::get().reconnects.add();
}

void DecisionClient::drop_connection() {
  socket_.close();
  decoder_.reset();
}

ResponseMsg DecisionClient::roundtrip(const RequestMsg& msg,
                                      Clock::time_point deadline) {
  socket_.send_all(encode_request(msg), deadline);
  char buffer[4096];
  for (;;) {
    std::optional<Frame> frame;
    while ((frame = decoder_.next())) {
      switch (frame->type) {
        case FrameType::Response: {
          ResponseMsg response = decode_response(*frame);
          if (response.request_id != msg.request_id) {
            // A response for a request we no longer wait on (e.g. the
            // previous attempt's answer arriving after its timeout).
            // Correlation ids make it safe to simply discard.
            continue;
          }
          return response;
        }
        case FrameType::Goodbye: {
          const ResponseMsg goodbye = decode_goodbye(*frame);
          throw util::SocketClosed(util::format(
              "server goodbye [{}]: {}", to_string(goodbye.status),
              goodbye.message));
        }
        case FrameType::Hello:
        case FrameType::Pong:
          continue;  // greeting / stale ping echo
        case FrameType::Ping:
          socket_.send_all(encode_pong(decode_ping(*frame)), deadline);
          continue;
        case FrameType::Request:
          throw WireError(WireError::Reason::BadType,
                          "server sent a Request frame");
      }
    }
    const std::size_t n = socket_.recv_some(buffer, sizeof(buffer), deadline);
    if (n == 0) {
      decoder_.on_eof();  // partial frame -> typed Truncated
      throw util::SocketClosed("server closed connection mid-request");
    }
    decoder_.feed(std::string_view(buffer, n));
  }
}

std::chrono::microseconds DecisionClient::backoff_delay(std::size_t attempt) {
  double delay = static_cast<double>(options_.backoff_base.count());
  for (std::size_t i = 1; i < attempt; ++i) {
    delay *= options_.backoff_multiplier;
  }
  delay = std::min(delay, static_cast<double>(options_.backoff_cap.count()));
  // Full jitter in [0.5, 1.5)x from the named deterministic stream.
  delay *= 0.5 + backoff_rng_.uniform();
  return std::chrono::microseconds(static_cast<std::int64_t>(delay));
}

NetDecision DecisionClient::fallback_or_throw(const DecisionRequest& request,
                                              Clock::time_point started,
                                              std::uint32_t attempts,
                                              const std::string& why) {
  if (!fallback_) {
    throw TransportError("decision transport failed (" + why +
                         ") and no fallback model is installed");
  }
  validate_request(*fallback_, request);
  const DecisionRequest* one = &request;
  NetDecision decision;
  decide_batch(*fallback_, {&one, 1}, {&decision.job_index, 1},
               fallback_acts_);
  decision.model_version = fallback_->version();
  decision.degraded = true;
  decision.attempts = attempts;
  decision.latency_us = micros_since(started);
  degraded_.fetch_add(1, std::memory_order_relaxed);
  ClientMetrics::get().degraded.add();
  ClientMetrics::get().latency_us.observe(decision.latency_us);
  return decision;
}

void DecisionClient::note_success() {
  consecutive_failures_ = 0;
  if (breaker_open_.exchange(false, std::memory_order_relaxed)) {
    breaker_closes_.fetch_add(1, std::memory_order_relaxed);
    ClientMetrics::get().breaker_closes.add();
    util::log_info("serve.net: circuit breaker closed (fail-back to server)");
  }
}

void DecisionClient::note_failure() {
  ++consecutive_failures_;
  const bool was_open = breaker_open_.load(std::memory_order_relaxed);
  if (consecutive_failures_ >= options_.breaker_threshold || was_open) {
    breaker_reopen_at_ = Clock::now() + options_.breaker_cooldown;
    if (!breaker_open_.exchange(true, std::memory_order_relaxed)) {
      breaker_opens_.fetch_add(1, std::memory_order_relaxed);
      ClientMetrics::get().breaker_opens.add();
      util::log_warn(
          "serve.net: circuit breaker OPEN after {} consecutive failures "
          "(failover to local fallback for {} ms)",
          consecutive_failures_,
          options_.breaker_cooldown.count());
    }
  }
}

}  // namespace dras::serve::net
