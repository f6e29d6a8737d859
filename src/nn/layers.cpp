#include "nn/layers.h"

#include <cmath>

#include "common/error.h"

namespace bfpp::nn {

Linear::Linear(int in, int out, Rng& rng)
    : w(Tensor::randn(in, out, rng, 1.0 / std::sqrt(static_cast<double>(in)))),
      b(Tensor::zeros(1, out)),
      gw(Tensor::zeros(in, out)),
      gb(Tensor::zeros(1, out)) {}

Tensor Linear::forward(const Tensor& x) const {
  return tensor::add_bias(tensor::matmul(x, w), b);
}

Tensor Linear::backward(const Tensor& x, const Tensor& dy) {
  tensor::accumulate(gw, tensor::matmul_tn(x, dy));
  tensor::accumulate(gb, tensor::col_sum(dy));
  return tensor::matmul_nt(dy, w);
}

void Linear::zero_grad() {
  gw.fill(0.0f);
  gb.fill(0.0f);
}

MlpBlock::MlpBlock(int hidden, Rng& rng)
    : fc1(hidden, 4 * hidden, rng), fc2(4 * hidden, hidden, rng) {}

Tensor MlpBlock::forward(const Tensor& x) const {
  const Tensor h1 = fc1.forward(x);
  const Tensor a = tensor::gelu(h1);
  return tensor::add(x, fc2.forward(a));
}

Tensor MlpBlock::backward(const Tensor& x, const Tensor& dy) {
  // Recompute forward intermediates (activation checkpointing).
  const Tensor h1 = fc1.forward(x);
  const Tensor a = tensor::gelu(h1);
  const Tensor da = fc2.backward(a, dy);
  const Tensor dh1 = tensor::hadamard(da, tensor::gelu_grad(h1));
  const Tensor dx = fc1.backward(x, dh1);
  return tensor::add(dy, dx);  // residual path
}

void MlpBlock::zero_grad() {
  fc1.zero_grad();
  fc2.zero_grad();
}

std::vector<Tensor*> MlpBlock::parameters() {
  return {&fc1.w, &fc1.b, &fc2.w, &fc2.b};
}

std::vector<Tensor*> MlpBlock::gradients() {
  return {&fc1.gw, &fc1.gb, &fc2.gw, &fc2.gb};
}

BlockStack::BlockStack(int n_blocks, int hidden, Rng& rng) {
  check(n_blocks >= 1 && hidden >= 1, "nn: bad stack shape");
  blocks.reserve(static_cast<size_t>(n_blocks));
  for (int i = 0; i < n_blocks; ++i) blocks.emplace_back(hidden, rng);
}

void BlockStack::zero_grad() {
  for (auto& block : blocks) block.zero_grad();
}

float BlockStack::train_step_accumulate(const Tensor& input,
                                        const Tensor& target) {
  // Forward, stashing each block's input (checkpoint granularity).
  std::vector<Tensor> inputs;
  inputs.reserve(blocks.size());
  Tensor x = input;
  for (auto& block : blocks) {
    inputs.push_back(x);
    x = block.forward(x);
  }
  Tensor grad;
  const float loss = tensor::mse_loss(x, target, &grad);
  for (int i = size() - 1; i >= 0; --i) {
    grad = blocks[static_cast<size_t>(i)].backward(
        inputs[static_cast<size_t>(i)], grad);
  }
  return loss;
}

void Sgd::apply(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) const {
  check(params.size() == grads.size(), "sgd: param/grad count mismatch");
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    check(p.size() == g.size(), "sgd: param/grad shape mismatch");
    for (size_t k = 0; k < p.size(); ++k) p.data()[k] -= lr * g.data()[k];
  }
}

}  // namespace bfpp::nn
