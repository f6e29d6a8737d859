// Neural-network layers for the reference executor.
//
// The pipeline "transformer layer" stand-in is an MlpBlock: the MLP
// two-thirds of a transformer layer (Linear h->4h, GeLU, Linear 4h->h)
// with a residual connection. It preserves exactly what pipeline
// parallelism cares about - identical per-layer cost, a [tokens, hidden]
// boundary activation, checkpoint-style recomputation in the backward
// pass - while keeping the math small enough to verify bit-for-bit.
#pragma once

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace bfpp::nn {

using tensor::Tensor;

// Fully-connected layer y = x W + b with explicit gradient accumulators.
// forward() is pure; backward(x, dy) accumulates into gw/gb and returns
// dx, so the caller controls activation stashing (as a pipeline must).
struct Linear {
  Tensor w;   // [in, out]
  Tensor b;   // [1, out]
  Tensor gw;  // accumulated d(loss)/dw
  Tensor gb;

  Linear() = default;
  Linear(int in, int out, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  Tensor backward(const Tensor& x, const Tensor& dy);
  void zero_grad();
};

// Residual MLP block: y = x + W2 gelu(W1 x + b1) + b2.
// backward() recomputes the forward intermediates from the stashed block
// input (activation checkpointing, as the paper's training setup).
struct MlpBlock {
  Linear fc1;
  Linear fc2;

  MlpBlock() = default;
  MlpBlock(int hidden, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  Tensor backward(const Tensor& x, const Tensor& dy);
  void zero_grad();

  // Parameter/gradient views in a fixed order (w1, b1, w2, b2).
  [[nodiscard]] std::vector<Tensor*> parameters();
  [[nodiscard]] std::vector<Tensor*> gradients();
};

// A stack of identical MlpBlocks - the reference "model".
struct BlockStack {
  std::vector<MlpBlock> blocks;

  BlockStack() = default;
  BlockStack(int n_blocks, int hidden, Rng& rng);

  [[nodiscard]] int size() const { return static_cast<int>(blocks.size()); }
  void zero_grad();

  // Serial reference: full forward, MSE loss, full backward with
  // per-block recomputation semantics identical to the pipeline's.
  // Gradients accumulate across calls (gradient accumulation).
  float train_step_accumulate(const Tensor& input, const Tensor& target);
};

// ---- Optimizers ----

// Plain SGD over a list of (param, grad) pairs.
struct Sgd {
  float lr = 0.01f;
  void apply(const std::vector<Tensor*>& params,
             const std::vector<Tensor*>& grads) const;
};

}  // namespace bfpp::nn
