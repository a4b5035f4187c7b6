#include "core/pg_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/binio.h"

namespace dras::core {

namespace {
/// Wall time of one policy update (batch REINFORCE pass + Adam step,
/// or gradient deposit in deferred mode).
obs::HdrHistogram& update_us_hdr() {
  static obs::HdrHistogram& hdr = obs::Registry::global().hdr("nn.update_us");
  return hdr;
}
}  // namespace

PGPolicy::PGPolicy(const PGConfig& config, std::uint64_t seed)
    : config_(config),
      network_([&] {
        util::Rng init_rng(util::derive_seed(seed, "pg-init"));
        return nn::Network(config.net, init_rng);
      }()),
      optimizer_(network_.parameter_count(), config.adam) {
  probs_scratch_.resize(config_.net.outputs);
}

void PGPolicy::action_probabilities(std::span<const float> state,
                                    std::size_t valid,
                                    std::vector<float>& probs) {
  if (valid == 0 || valid > config_.net.outputs)
    throw std::invalid_argument("invalid action count");
  const auto logits = network_.forward(state);
  probs.resize(logits.size());
  nn::softmax_masked(logits, probs, valid);
}

std::size_t PGPolicy::sample_action(std::span<const float> state,
                                    std::size_t valid, util::Rng& rng) {
  action_probabilities(state, valid, probs_scratch_);
  std::vector<double> weights(probs_scratch_.begin(),
                              probs_scratch_.begin() +
                                  static_cast<std::ptrdiff_t>(valid));
  const std::size_t pick = rng.weighted_index(weights.data(), valid);
  return pick < valid ? pick : 0;
}

std::size_t PGPolicy::greedy_action(std::span<const float> state,
                                    std::size_t valid) {
  action_probabilities(state, valid, probs_scratch_);
  return static_cast<std::size_t>(
      std::max_element(probs_scratch_.begin(),
                       probs_scratch_.begin() +
                           static_cast<std::ptrdiff_t>(valid)) -
      probs_scratch_.begin());
}

void PGPolicy::record(std::vector<float> state, std::size_t valid,
                      std::size_t action, double reward) {
  assert(action < valid && valid <= config_.net.outputs);
  memory_.push_back(Step{std::move(state), valid, action, reward});
}

void PGPolicy::update() {
  if (memory_.empty()) return;
  const std::size_t k_total = memory_.size();
  obs::Span update_span(
      "nn.update", {obs::targ("steps", static_cast<std::uint64_t>(k_total))},
      &update_us_hdr());

  // Returns-to-go: G_k = sum_{k' >= k} r_{k'} (Eq. 3, undiscounted).
  std::vector<double> returns(k_total);
  double acc = 0.0;
  for (std::size_t k = k_total; k-- > 0;) {
    acc += memory_[k].reward;
    returns[k] = acc;
  }

  if (baseline_sum_.size() < k_total) {
    baseline_sum_.resize(k_total, 0.0);
    baseline_count_.resize(k_total, 0);
  }

  // All K window evaluations run as one batched forward: the recorded
  // states and the parameters are both fixed for the whole sweep, so
  // forward_batch() replaces K forward() calls (bit-identical per
  // sample — see nn::gemm_batch) and stage_batch_sample() below
  // rehydrates each sample's activations for its backward pass.
  const std::size_t input_size = config_.net.input_size();
  const std::size_t outputs = config_.net.outputs;
  batch_states_.resize(k_total * input_size);
  for (std::size_t k = 0; k < k_total; ++k) {
    const Step& step = memory_[k];
    assert(step.state.size() == input_size);
    std::copy(step.state.begin(), step.state.end(),
              batch_states_.begin() +
                  static_cast<std::ptrdiff_t>(k * input_size));
  }
  batch_logits_.resize(k_total * outputs);
  network_.forward_batch(batch_states_, k_total, batch_logits_, batch_acts_);

  network_.zero_gradients();
  std::vector<float> grad_logits(config_.net.outputs);
  double loss_acc = 0.0;
  for (std::size_t k = 0; k < k_total; ++k) {
    const Step& step = memory_[k];
    const double baseline = baseline_count_[k] > 0
                                ? baseline_sum_[k] /
                                      static_cast<double>(baseline_count_[k])
                                : 0.0;
    const double advantage = returns[k] - baseline;
    // Update the running baseline with this batch's return (after use, so
    // b_k averages over *past* parameter updates only).
    baseline_sum_[k] += returns[k];
    ++baseline_count_[k];

    // Gradient of −log π(a|s)·A at the logits: (softmax − onehot_a)·A.
    const std::span<const float> logits(batch_logits_.data() + k * outputs,
                                        outputs);
    nn::softmax_masked(logits, probs_scratch_, step.valid);
    const double p_action =
        std::max(static_cast<double>(probs_scratch_[step.action]), 1e-12);
    loss_acc += -std::log(p_action) * advantage;
    const auto adv = static_cast<float>(advantage);
    for (std::size_t i = 0; i < grad_logits.size(); ++i)
      grad_logits[i] = probs_scratch_[i] * adv;
    grad_logits[step.action] -= adv;
    network_.stage_batch_sample(batch_acts_, k);
    network_.backward(grad_logits);
  }

  // Average over the batch, matching the 1/K-free form of Eq. 3 loosely but
  // keeping step magnitude independent of batch length.
  const auto scale = 1.0f / static_cast<float>(k_total);
  for (float& g : network_.gradients()) g *= scale;
  double grad_sq = 0.0;
  for (const float g : network_.gradients())
    grad_sq += static_cast<double>(g) * static_cast<double>(g);
  last_loss_ = loss_acc / static_cast<double>(k_total);
  last_grad_norm_ = std::sqrt(grad_sq);
  if (sink_ != nullptr) {
    // Deferred mode (data-parallel rollout): deposit the batch-mean
    // gradient for the round's reduction; parameters stay frozen at
    // their round-start values.
    sink_->add(network_.gradients(), last_loss_);
  } else {
    optimizer_.step(network_.parameters(), network_.gradients());
  }
  network_.zero_gradients();
  memory_.clear();
  ++updates_;
}

void PGPolicy::apply_reduced_update(std::span<const float> gradient,
                                    double mean_loss,
                                    std::size_t update_count) {
  if (update_count == 0) return;
  const auto grads = network_.gradients();
  if (gradient.size() != grads.size())
    throw std::invalid_argument(
        "PGPolicy::apply_reduced_update: gradient length mismatch");
  std::copy(gradient.begin(), gradient.end(), grads.begin());
  double grad_sq = 0.0;
  for (const float g : grads)
    grad_sq += static_cast<double>(g) * static_cast<double>(g);
  last_loss_ = mean_loss;
  last_grad_norm_ = std::sqrt(grad_sq);
  optimizer_.step(network_.parameters(), grads);
  network_.zero_gradients();
  updates_ += update_count;
}

void PGPolicy::merge_baseline_delta(const BaselineSnapshot& base,
                                    const PGPolicy& updated) {
  const std::size_t k_total = updated.baseline_sum_.size();
  if (baseline_sum_.size() < k_total) {
    baseline_sum_.resize(k_total, 0.0);
    baseline_count_.resize(k_total, 0);
  }
  for (std::size_t k = 0; k < k_total; ++k) {
    const double base_sum = k < base.sum.size() ? base.sum[k] : 0.0;
    const std::size_t base_count = k < base.count.size() ? base.count[k] : 0;
    baseline_sum_[k] += updated.baseline_sum_[k] - base_sum;
    baseline_count_[k] += updated.baseline_count_[k] - base_count;
  }
}

void PGPolicy::save_state(util::BinaryWriter& out) const {
  out.section("PGPO", 1);
  network_.save_state(out);
  optimizer_.save_state(out);
  out.f64_span(baseline_sum_);
  std::vector<std::uint64_t> counts(baseline_count_.begin(),
                                    baseline_count_.end());
  out.u64_span(counts);
  out.u64(updates_);
  out.f64(last_loss_);
  out.f64(last_grad_norm_);
  out.u64(memory_.size());
  for (const Step& step : memory_) {
    out.f32_span(step.state);
    out.u64(step.valid);
    out.u64(step.action);
    out.f64(step.reward);
  }
}

void PGPolicy::load_state(util::BinaryReader& in) {
  in.section("PGPO", 1);
  network_.load_state(in);
  optimizer_.load_state(in);
  baseline_sum_ = in.f64_vector();
  const auto counts = in.u64_vector();
  if (counts.size() != baseline_sum_.size())
    throw util::SerializationError(
        "PG baseline sum/count length mismatch in checkpoint");
  baseline_count_.assign(counts.begin(), counts.end());
  updates_ = in.u64();
  last_loss_ = in.f64();
  last_grad_norm_ = in.f64();
  memory_.clear();
  const std::uint64_t steps = in.u64();
  memory_.reserve(steps);
  for (std::uint64_t k = 0; k < steps; ++k) {
    Step step;
    step.state = in.f32_vector();
    step.valid = in.u64();
    step.action = in.u64();
    step.reward = in.f64();
    if (step.valid == 0 || step.valid > config_.net.outputs ||
        step.action >= step.valid)
      throw util::SerializationError(
          "PG memory step carries an out-of-range action in checkpoint");
    memory_.push_back(std::move(step));
  }
}

}  // namespace dras::core
