// DecisionClient failure ladder: bounded retries, reconnect across a
// server restart, circuit-breaker failover to the local fallback model,
// and fail-back once the server returns.
#include "serve/net/client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "serve/net/server.h"
#include "serve_test_util.h"
#include "util/rng.h"

namespace dras::serve::net {
namespace {

using namespace std::chrono_literals;
using serve::testing::ServeScratchTest;
using serve::testing::tiny_serve_config;
using serve::testing::write_snapshot;

class NetClientTest : public ServeScratchTest {
 protected:
  void SetUp() override {
    ServeScratchTest::SetUp();
    config_ = tiny_serve_config(core::AgentKind::PG);
    core::DrasAgent agent(config_);
    snapshot_ = ModelSnapshot::load(write_snapshot(dir_, agent, 4), config_);
    service_ = std::make_unique<DecisionService>(ServiceOptions{});
    service_->install(snapshot_);
  }

  void TearDown() override {
    server_.reset();
    service_.reset();
    ServeScratchTest::TearDown();
  }

  [[nodiscard]] util::SocketAddress address() const {
    return util::SocketAddress::unix_path((dir_ / "server.sock").string());
  }

  void start_server() {
    ServerOptions options;
    options.address = address();
    server_ = std::make_unique<DecisionServer>(options, *service_);
    server_->start();
  }

  /// Fast-failing client options so tests stay quick.
  [[nodiscard]] ClientOptions fast_options() const {
    ClientOptions options;
    options.address = address();
    options.connect_timeout = 200ms;
    options.request_timeout = 500ms;
    options.max_attempts = 2;
    options.backoff_base = std::chrono::microseconds(200);
    options.backoff_cap = std::chrono::microseconds(2000);
    options.breaker_threshold = 2;
    options.breaker_cooldown = 300ms;
    return options;
  }

  core::DrasConfig config_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::unique_ptr<DecisionService> service_;
  std::unique_ptr<DecisionServer> server_;
};

TEST_F(NetClientTest, NoServerAndNoFallbackThrowsTransportError) {
  DecisionClient client(fast_options());
  DecisionRequest request;
  request.valid = 1;
  request.state.resize(8, 0.5f);
  EXPECT_THROW((void)client.decide(request), TransportError);
  const auto stats = client.stats();
  EXPECT_EQ(stats.served, 0u);
  EXPECT_GE(stats.transport_errors, 2u);  // one per attempt
  EXPECT_EQ(stats.retries, 1u);           // max_attempts=2 -> 1 retry
}

TEST_F(NetClientTest, BadRequestIsRejectedWithoutRetryOrFallback) {
  start_server();
  DecisionClient client(fast_options());
  client.set_fallback(snapshot_);  // present, but must NOT be used
  DecisionRequest invalid;         // valid=0 fails service validation
  invalid.state.resize(8, 0.5f);
  EXPECT_THROW((void)client.decide(invalid), RequestRejected);
  const auto stats = client.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_FALSE(client.breaker_open());
}

TEST_F(NetClientTest, ReconnectsAcrossServerRestart) {
  start_server();
  DecisionClient client(fast_options());
  util::Rng rng(21);
  const auto first = client.decide(make_synthetic_request(config_, rng));
  EXPECT_FALSE(first.degraded);

  // Hard restart: drain, then a fresh server on the same address.
  server_.reset();
  start_server();

  const auto second = client.decide(make_synthetic_request(config_, rng));
  EXPECT_FALSE(second.degraded);
  EXPECT_GE(client.stats().reconnects, 2u);
  EXPECT_GE(second.attempts, 1u);
}

TEST_F(NetClientTest, BreakerFailsOverToFallbackThenFailsBack) {
  start_server();
  auto options = fast_options();
  DecisionClient client(options);
  client.set_fallback(snapshot_);
  auto oracle = snapshot_->make_replica();
  util::Rng rng(33);

  // Healthy phase.
  const auto request0 = make_synthetic_request(config_, rng);
  const auto healthy = client.decide(request0);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(healthy.job_index, reference_decision(*oracle, request0));

  // Kill the server: decide() keeps answering, tagged degraded, and the
  // decisions still match the (same-snapshot) oracle bit-for-bit.
  server_.reset();
  bool saw_open = false;
  for (int i = 0; i < 4; ++i) {
    const auto request = make_synthetic_request(config_, rng);
    const auto decision = client.decide(request);
    EXPECT_TRUE(decision.degraded);
    EXPECT_EQ(decision.batch_size, 0u);
    EXPECT_EQ(decision.model_version, snapshot_->version());
    EXPECT_EQ(decision.job_index, reference_decision(*oracle, request));
    saw_open = saw_open || client.breaker_open();
  }
  EXPECT_TRUE(saw_open);
  EXPECT_EQ(client.stats().breaker_opens, 1u);
  EXPECT_GE(client.stats().degraded, 4u);

  // While the breaker is open decisions are served WITHOUT touching the
  // socket (attempts == 0 marks pure-fallback service).
  const auto during_open = client.decide(make_synthetic_request(config_, rng));
  EXPECT_TRUE(during_open.degraded);

  // Server returns; after the cooldown the half-open probe succeeds and
  // the client fails back to served mode.
  start_server();
  std::this_thread::sleep_for(options.breaker_cooldown + 50ms);
  const auto request1 = make_synthetic_request(config_, rng);
  const auto recovered = client.decide(request1);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.job_index, reference_decision(*oracle, request1));
  EXPECT_FALSE(client.breaker_open());
  EXPECT_EQ(client.stats().breaker_closes, 1u);
}

TEST_F(NetClientTest, HalfOpenProbeFailureReopensBreaker) {
  auto options = fast_options();
  options.breaker_cooldown = 100ms;
  DecisionClient client(options);
  client.set_fallback(snapshot_);
  util::Rng rng(8);

  // No server at all: every decide() is degraded, breaker opens.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client.decide(make_synthetic_request(config_, rng)).degraded);
  }
  EXPECT_TRUE(client.breaker_open());
  const auto opens_before = client.stats().breaker_opens;

  // Cooldown expires, probe fails (still no server), breaker re-opens.
  std::this_thread::sleep_for(150ms);
  EXPECT_TRUE(client.decide(make_synthetic_request(config_, rng)).degraded);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.stats().breaker_closes, 0u);
  EXPECT_GE(client.stats().breaker_opens, opens_before);
}

TEST_F(NetClientTest, PingReportsLiveness) {
  DecisionClient client(fast_options());
  EXPECT_FALSE(client.ping());  // no server
  start_server();
  EXPECT_TRUE(client.ping());
  EXPECT_FALSE(client.breaker_open());  // pings never trip the breaker
}

TEST_F(NetClientTest, FallbackDecisionsMatchReferenceOracle) {
  // Pure-degraded client (no server ever): the fallback path IS
  // serve::reference_decision on the snapshot replica.
  DecisionClient client(fast_options());
  client.set_fallback(snapshot_);
  auto oracle = snapshot_->make_replica();
  util::Rng rng(99);
  for (int i = 0; i < 32; ++i) {
    const auto request = make_synthetic_request(config_, rng);
    const auto decision = client.decide(request);
    EXPECT_TRUE(decision.degraded);
    EXPECT_EQ(decision.model_version, snapshot_->version());
    EXPECT_EQ(decision.job_index, reference_decision(*oracle, request));
  }
}

TEST_F(NetClientTest, MalformedRequestIsRejectedByTheFallback) {
  // No server: the fallback applies the service's request validation
  // before any forward pass.
  DecisionClient client(fast_options());
  client.set_fallback(snapshot_);
  util::Rng rng(5);
  DecisionRequest bad = make_synthetic_request(config_, rng);
  bad.state.resize(bad.state.size() / 2);
  EXPECT_THROW((void)client.decide(bad), std::invalid_argument);
  EXPECT_EQ(client.stats().degraded, 0u);
}

}  // namespace
}  // namespace dras::serve::net
