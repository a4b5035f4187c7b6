// DRAS-PG: policy-gradient head over the shared five-layer network
// (paper §III-B, Eq. 3).
//
// The network maps the encoded window state to W logits; a masked softmax
// turns the first `valid` logits into a distribution over the jobs present
// in the window, and the action is drawn stochastically from it.  Updates
// are episodic REINFORCE with a per-step baseline:
//
//   θ ← θ + α Σ_k ∇θ log πθ(s_k, a_k) ( Σ_{k'>=k} r_{k'} − b_k )
//
// where b_k is the running mean over all past updates of the cumulative
// reward from step k onward.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/adam.h"
#include "nn/grad_accumulator.h"
#include "nn/network.h"
#include "util/rng.h"

namespace dras::core {

struct PGConfig {
  nn::NetworkConfig net;  ///< outputs = window slots W.
  nn::AdamConfig adam;    ///< lr defaults to the paper's 1e-3.
};

class PGPolicy {
 public:
  PGPolicy(const PGConfig& config, std::uint64_t seed);

  /// Stochastic draw from the masked softmax over the first `valid`
  /// actions (training-time behaviour).
  [[nodiscard]] std::size_t sample_action(std::span<const float> state,
                                          std::size_t valid, util::Rng& rng);

  /// Deterministic argmax action (evaluation-time behaviour).
  [[nodiscard]] std::size_t greedy_action(std::span<const float> state,
                                          std::size_t valid);

  /// Action probabilities for the given state (masked softmax).
  void action_probabilities(std::span<const float> state, std::size_t valid,
                            std::vector<float>& probs);

  /// Append one experience step to the on-policy memory.
  void record(std::vector<float> state, std::size_t valid, std::size_t action,
              double reward);

  /// Eq. 3 update over the recorded steps; clears the memory afterwards
  /// ("updates its parameters based on the collected observations and then
  /// clears the memory", §III-C).  No-op when the memory is empty.
  void update();

  [[nodiscard]] std::size_t pending_steps() const noexcept {
    return memory_.size();
  }
  [[nodiscard]] std::size_t updates_done() const noexcept { return updates_; }
  /// Mean REINFORCE surrogate loss (−log π·A) of the last update; 0 before
  /// the first update.  Telemetry only — not part of the learning rule.
  [[nodiscard]] double last_loss() const noexcept { return last_loss_; }
  /// L2 norm of the batch-averaged gradient applied by the last update.
  [[nodiscard]] double last_grad_norm() const noexcept {
    return last_grad_norm_;
  }
  [[nodiscard]] nn::Network& network() noexcept { return network_; }
  [[nodiscard]] const nn::Network& network() const noexcept {
    return network_;
  }
  [[nodiscard]] nn::Adam& optimizer() noexcept { return optimizer_; }
  [[nodiscard]] const nn::Adam& optimizer() const noexcept {
    return optimizer_;
  }

  /// Drop recorded experience without updating (e.g. when switching from
  /// training to evaluation mid-run).
  void discard_memory() { memory_.clear(); }

  // --- Data-parallel rollout hooks (src/rollout) ---

  /// Divert updates into `sink`: update() computes the batch-mean
  /// gradient, loss and baseline bookkeeping exactly as usual, but
  /// deposits the gradient instead of stepping the optimiser, so the
  /// parameters stay frozen at their round-start values.  Null restores
  /// normal stepping.  The pointer is not owned and must outlive the
  /// diverted updates; it is never serialized.
  void set_gradient_sink(nn::GradientAccumulator* sink) noexcept {
    sink_ = sink;
  }
  [[nodiscard]] nn::GradientAccumulator* gradient_sink() const noexcept {
    return sink_;
  }

  /// One optimiser step with an externally reduced mean gradient
  /// standing in for `update_count` deferred updates (telemetry — loss,
  /// grad norm, update counter — advances accordingly).  No-op when
  /// update_count is 0.
  void apply_reduced_update(std::span<const float> gradient,
                            double mean_loss, std::size_t update_count);

  /// Copy of the running baseline statistics, taken at a round boundary
  /// so merge_baseline_delta() can fold in what each clone learned.
  struct BaselineSnapshot {
    std::vector<double> sum;
    std::vector<std::size_t> count;
  };
  [[nodiscard]] BaselineSnapshot baseline_snapshot() const {
    return BaselineSnapshot{baseline_sum_, baseline_count_};
  }
  /// Fold the baseline changes `updated` made relative to `base` into
  /// this policy.  Callers own the reduction-order contract: merge
  /// clones in ascending task index so the double sums are bit-stable
  /// for any worker count.
  void merge_baseline_delta(const BaselineSnapshot& base,
                            const PGPolicy& updated);

  /// Checkpoint hooks ("PGPO" section): network parameters, optimiser
  /// moments, baseline statistics, update telemetry and any pending
  /// on-policy memory.  A restored policy continues bit-identically.
  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in);

 private:
  struct Step {
    std::vector<float> state;
    std::size_t valid = 0;
    std::size_t action = 0;
    double reward = 0.0;
  };

  PGConfig config_;
  nn::Network network_;
  nn::Adam optimizer_;
  std::vector<Step> memory_;
  // Running baseline statistics per step index k.
  std::vector<double> baseline_sum_;
  std::vector<std::size_t> baseline_count_;
  std::size_t updates_ = 0;
  double last_loss_ = 0.0;
  double last_grad_norm_ = 0.0;
  std::vector<float> probs_scratch_;
  // update() scratch: the batched forward's packed states, logits and
  // activations (states and parameters are fixed across an update, so
  // all K forwards run as one forward_batch call).
  std::vector<float> batch_states_, batch_logits_;
  nn::BatchActivations batch_acts_;
  nn::GradientAccumulator* sink_ = nullptr;  // transient, never serialized
};

}  // namespace dras::core
