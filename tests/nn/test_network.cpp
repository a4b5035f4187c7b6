#include "nn/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dras_agent.h"
#include "core/presets.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace dras::nn {
namespace {

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.input_rows = 6;
  cfg.fc1 = 5;
  cfg.fc2 = 4;
  cfg.outputs = 3;
  return cfg;
}

TEST(NetworkConfig, ParameterCountFormula) {
  const NetworkConfig cfg = small_config();
  // conv 3 + 5*6 + 4*5 + 3*4 + 3 = 3 + 30 + 20 + 12 + 3 = 68.
  EXPECT_EQ(cfg.parameter_count(), 68u);
}

// Table III: the paper's published trainable-parameter counts.  Our layer
// stack (conv w0/w1/b, bias-free FC1/FC2, biased output) must reproduce
// them exactly for Theta-PG, Theta-DQL and Cori-PG.  (The paper's Cori-DQL
// number is inconsistent with its own layer sizes; see EXPERIMENTS.md.)
TEST(NetworkConfig, TableIIIThetaPG) {
  EXPECT_EQ(core::theta().pg_network().parameter_count(), 21'890'053u);
}

TEST(NetworkConfig, TableIIIThetaDQL) {
  EXPECT_EQ(core::theta().dql_network().parameter_count(), 21'449'004u);
}

TEST(NetworkConfig, TableIIICoriPG) {
  EXPECT_EQ(core::cori().pg_network().parameter_count(), 161'960'053u);
}

TEST(NetworkConfig, TableIIICoriDQLImpliedByLayerSizes) {
  // 12078·10000 + 10000·4000 + 4000·1 + 1 + 3 (what Table III's layer sizes
  // imply; the printed 161,764,004 appears to be a typo).
  EXPECT_EQ(core::cori().dql_network().parameter_count(), 160'784'004u);
}

TEST(NetworkConfig, InputRowsMatchTableIII) {
  EXPECT_EQ(core::theta().pg_network().input_rows, 4460u);
  EXPECT_EQ(core::theta().dql_network().input_rows, 4362u);
  EXPECT_EQ(core::cori().pg_network().input_rows, 12176u);
  EXPECT_EQ(core::cori().dql_network().input_rows, 12078u);
}

TEST(Network, ForwardShapeAndDeterminism) {
  util::Rng rng(1);
  Network net(small_config(), rng);
  std::vector<float> input(net.config().input_size(), 0.5f);
  const auto out1 = net.forward(input);
  ASSERT_EQ(out1.size(), 3u);
  std::vector<float> saved(out1.begin(), out1.end());
  const auto out2 = net.forward(input);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(saved[i], out2[i]);
}

TEST(Network, SameSeedSameInitialization) {
  util::Rng rng1(42), rng2(42);
  Network a(small_config(), rng1), b(small_config(), rng2);
  const auto pa = a.parameters(), pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Network, RejectsWrongInputLength) {
  util::Rng rng(1);
  Network net(small_config(), rng);
  std::vector<float> bad(3, 0.0f);
  EXPECT_THROW((void)net.forward(bad), std::invalid_argument);
}

TEST(Network, BackwardWithoutForwardThrows) {
  util::Rng rng(1);
  Network net(small_config(), rng);
  std::vector<float> grad(3, 1.0f);
  EXPECT_THROW(net.backward(grad), std::logic_error);
}

TEST(Network, RejectsZeroDimensionConfig) {
  util::Rng rng(1);
  NetworkConfig cfg = small_config();
  cfg.fc1 = 0;
  EXPECT_THROW(Network(cfg, rng), std::invalid_argument);
}

TEST(Network, ZeroGradientsClears) {
  util::Rng rng(1);
  Network net(small_config(), rng);
  std::vector<float> input(net.config().input_size(), 0.3f);
  (void)net.forward(input);
  std::vector<float> grad(3, 1.0f);
  net.backward(grad);
  bool any_nonzero = false;
  for (const float g : net.gradients()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  net.zero_gradients();
  for (const float g : net.gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Network, BackwardAccumulatesAcrossCalls) {
  util::Rng rng(2);
  Network net(small_config(), rng);
  std::vector<float> input(net.config().input_size(), 0.2f);
  std::vector<float> grad(3, 1.0f);

  (void)net.forward(input);
  net.backward(grad);
  std::vector<float> once(net.gradients().begin(), net.gradients().end());

  net.zero_gradients();
  (void)net.forward(input);
  net.backward(grad);
  (void)net.forward(input);
  net.backward(grad);
  const auto twice = net.gradients();
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4f + std::abs(once[i]) * 1e-3f);
}

// --- Numerical gradient check (property test over random configs) -------

struct GradCheckParam {
  std::size_t rows, fc1, fc2, outputs;
  std::uint64_t seed;
};

class NetworkGradCheck : public ::testing::TestWithParam<GradCheckParam> {};

TEST_P(NetworkGradCheck, AnalyticMatchesNumericalGradient) {
  const auto param = GetParam();
  NetworkConfig cfg;
  cfg.input_rows = param.rows;
  cfg.fc1 = param.fc1;
  cfg.fc2 = param.fc2;
  cfg.outputs = param.outputs;
  util::Rng rng(param.seed);
  Network net(cfg, rng);

  std::vector<float> input(cfg.input_size());
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  // Loss: L = sum_i c_i * y_i with random c => dL/dy = c.
  std::vector<float> c(cfg.outputs);
  for (auto& v : c) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto loss = [&] {
    const auto y = net.forward(input);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += c[i] * y[i];
    return acc;
  };

  (void)net.forward(input);
  net.zero_gradients();
  net.backward(c);
  std::vector<float> analytic(net.gradients().begin(),
                              net.gradients().end());

  // Spot-check a spread of parameters (checking all is O(P^2)).
  util::Rng pick(param.seed ^ 0xabcdef);
  const auto params = net.parameters();
  const float h = 1e-3f;
  for (int trial = 0; trial < 25; ++trial) {
    const auto i = pick.uniform_index(params.size());
    const float saved = params[i];
    params[i] = saved + h;
    const double up = loss();
    params[i] = saved - h;
    const double down = loss();
    params[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric, 2e-2 + 2e-2 * std::abs(numeric))
        << "param index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkGradCheck,
    ::testing::Values(GradCheckParam{4, 6, 5, 3, 11},
                      GradCheckParam{10, 8, 8, 1, 13},
                      GradCheckParam{7, 12, 4, 5, 17},
                      GradCheckParam{16, 10, 6, 2, 19},
                      GradCheckParam{3, 3, 3, 3, 29}));

// Serving rides on this: every row of a batched forward is bit-identical
// to the per-sample forward, so a batched decision equals the trainer's.
TEST(Network, ForwardBatchBitIdenticalToPerSampleForward) {
  const NetworkConfig cfg = small_config();
  util::Rng rng(51);
  Network net(cfg, rng);
  // 9 samples: one partial lane block in gemm_batch plus the transpose
  // round trip at both ends.
  constexpr std::size_t batch = 9;
  std::vector<float> inputs(batch * cfg.input_size());
  for (float& v : inputs) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> outputs(batch * cfg.outputs);
  BatchActivations acts;
  net.forward_batch(inputs, batch, outputs, acts);

  for (std::size_t b = 0; b < batch; ++b) {
    const auto row = std::span<const float>(inputs).subspan(
        b * cfg.input_size(), cfg.input_size());
    const std::span<const float> expected = net.forward(row);
    for (std::size_t i = 0; i < cfg.outputs; ++i)
      EXPECT_EQ(outputs[b * cfg.outputs + i], expected[i])
          << "sample " << b << " output " << i;
  }
}

TEST(Network, ForwardBatchDoesNotDisturbTrainingCaches) {
  const NetworkConfig cfg = small_config();
  util::Rng rng(52);
  Network net(cfg, rng);
  std::vector<float> x(cfg.input_size()), grad(cfg.outputs, 1.0f);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Reference gradients: plain forward/backward.
  net.forward(x);
  net.backward(grad);
  const std::vector<float> expected(net.gradients().begin(),
                                    net.gradients().end());

  // Same pair with a batched inference wedged in between: backward()
  // must still see the forward() activations, untouched.
  net.zero_gradients();
  net.forward(x);
  std::vector<float> batch_in(4 * cfg.input_size());
  for (float& v : batch_in) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> batch_out(4 * cfg.outputs);
  BatchActivations acts;
  net.forward_batch(batch_in, 4, batch_out, acts);
  net.backward(grad);
  const std::span<const float> actual = net.gradients();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "gradient " << i;
}

TEST(Network, ForwardBatchValidatesBufferLengths) {
  const NetworkConfig cfg = small_config();
  util::Rng rng(53);
  Network net(cfg, rng);
  std::vector<float> inputs(2 * cfg.input_size());
  std::vector<float> outputs(2 * cfg.outputs);
  BatchActivations acts;
  EXPECT_THROW(net.forward_batch(inputs, 3, outputs, acts),
               std::invalid_argument);
  std::vector<float> short_out(cfg.outputs);
  EXPECT_THROW(net.forward_batch(inputs, 2, short_out, acts),
               std::invalid_argument);
  // Batch 0 is a no-op, not an error.
  std::vector<float> empty;
  EXPECT_NO_THROW(net.forward_batch(empty, 0, empty, acts));
}

// The PG update batches its K forwards through forward_batch and replays
// each sample from its BatchActivations into the single-sample caches
// with stage_batch_sample before backward().  The whole scheme only works if
// the staged backward produces bit-identical gradients to the serial
// forward/backward it replaces.
TEST(Network, StagedBatchBackwardBitIdenticalToSerial) {
  const NetworkConfig cfg = small_config();
  util::Rng rng(54);
  Network reference(cfg, rng);
  util::Rng rng2(54);
  Network batched(cfg, rng2);

  constexpr std::size_t batch = 7;
  std::vector<float> inputs(batch * cfg.input_size());
  std::vector<float> grads(batch * cfg.outputs);
  for (float& v : inputs) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : grads) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  // Serial: forward/backward each sample, accumulating gradients.
  for (std::size_t b = 0; b < batch; ++b) {
    const auto x = std::span<const float>(inputs).subspan(
        b * cfg.input_size(), cfg.input_size());
    reference.forward(x);
    reference.backward(std::span<const float>(grads).subspan(
        b * cfg.outputs, cfg.outputs));
  }

  // Batched: one forward, then stage + backward per sample.
  std::vector<float> outputs(batch * cfg.outputs);
  BatchActivations acts;
  batched.forward_batch(inputs, batch, outputs, acts);
  for (std::size_t b = 0; b < batch; ++b) {
    batched.stage_batch_sample(acts, b);
    batched.backward(std::span<const float>(grads).subspan(
        b * cfg.outputs, cfg.outputs));
  }

  const std::span<const float> expected = reference.gradients();
  const std::span<const float> actual = batched.gradients();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "gradient " << i;

  // The batched outputs are the per-sample outputs, bit for bit.
  for (std::size_t b = 0; b < batch; ++b) {
    const auto x = std::span<const float>(inputs).subspan(
        b * cfg.input_size(), cfg.input_size());
    const std::span<const float> row = reference.forward(x);
    for (std::size_t i = 0; i < cfg.outputs; ++i)
      EXPECT_EQ(outputs[b * cfg.outputs + i], row[i]);
  }
}

TEST(Network, StageBatchSampleRequiresFilledActivations) {
  const NetworkConfig cfg = small_config();
  util::Rng rng(55);
  Network net(cfg, rng);
  BatchActivations acts;
  // Activations that hold no batch.
  EXPECT_THROW(net.stage_batch_sample(acts, 0), std::logic_error);
  std::vector<float> inputs(3 * cfg.input_size(), 0.25f);
  std::vector<float> outputs(3 * cfg.outputs);
  net.forward_batch(inputs, 3, outputs, acts);
  EXPECT_NO_THROW(net.stage_batch_sample(acts, 2));
  // Out-of-range sample index.
  EXPECT_THROW(net.stage_batch_sample(acts, 3), std::logic_error);
  // An empty batch leaves nothing to stage.
  std::vector<float> empty;
  net.forward_batch(empty, 0, empty, acts);
  EXPECT_THROW(net.stage_batch_sample(acts, 0), std::logic_error);
}

// Serving rides on this: every DecisionService worker and client
// fallback forwards through one snapshot's network, each with its own
// activations.  Concurrent batched forwards on one const Network must
// each equal the per-sample forward() of an independent copy.
TEST(Network, ConcurrentForwardBatchOnSharedConstNetwork) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 20;
  constexpr std::size_t kBatches[] = {1, 3, 17, 32};
  for (const core::AgentKind kind :
       {core::AgentKind::PG, core::AgentKind::DQL}) {
    core::DrasConfig dras;
    dras.kind = kind;
    dras.total_nodes = 16;
    dras.window = 4;
    dras.fc1 = 24;
    dras.fc2 = 12;
    const NetworkConfig cfg = dras.network_config();
    util::Rng rng(56);
    const Network shared(cfg, rng);
    Network oracle = shared;

    // inputs[t][i] / expected[t][i]: thread t's batch of kBatches[i].
    std::vector<std::vector<std::vector<float>>> inputs(kThreads),
        expected(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (const std::size_t batch : kBatches) {
        std::vector<float> x(batch * cfg.input_size());
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> y;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto row = oracle.forward(std::span<const float>(x).subspan(
              b * cfg.input_size(), cfg.input_size()));
          y.insert(y.end(), row.begin(), row.end());
        }
        inputs[t].push_back(std::move(x));
        expected[t].push_back(std::move(y));
      }
    }

    std::atomic<std::size_t> mismatched_rows{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        BatchActivations acts;
        for (std::size_t round = 0; round < kRounds; ++round) {
          for (std::size_t i = 0; i < std::size(kBatches); ++i) {
            std::vector<float> y(expected[t][i].size());
            shared.forward_batch(inputs[t][i], kBatches[i], y, acts);
            for (std::size_t b = 0; b < kBatches[i]; ++b)
              if (std::memcmp(y.data() + b * cfg.outputs,
                              expected[t][i].data() + b * cfg.outputs,
                              cfg.outputs * sizeof(float)) != 0)
                mismatched_rows.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatched_rows.load(), 0u) << core::to_string(kind);
  }
}

}  // namespace
}  // namespace dras::nn
