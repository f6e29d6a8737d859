// Tests for the NN layers: gradient correctness against finite
// differences, accumulation semantics, and the optimizers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/layers.h"

namespace bfpp::nn {
namespace {

using tensor::Tensor;

// Finite-difference check of d(loss)/d(param) where loss = sum(output).
// Returns max relative error over sampled entries.
template <typename Forward>
double fd_check(Tensor& param, const Tensor& analytic, Forward forward) {
  const float eps = 1e-2f;
  double worst = 0.0;
  for (int r = 0; r < param.rows(); r += std::max(1, param.rows() / 3)) {
    for (int c = 0; c < param.cols(); c += std::max(1, param.cols() / 3)) {
      const float saved = param.at(r, c);
      param.at(r, c) = saved + eps;
      const double hi = forward();
      param.at(r, c) = saved - eps;
      const double lo = forward();
      param.at(r, c) = saved;
      const double fd = (hi - lo) / (2.0 * eps);
      const double an = analytic.at(r, c);
      const double denom = std::max({std::fabs(fd), std::fabs(an), 1e-4});
      worst = std::max(worst, std::fabs(fd - an) / denom);
    }
  }
  return worst;
}

double tensor_sum(const Tensor& t) {
  double s = 0.0;
  for (size_t i = 0; i < t.size(); ++i) s += t.data()[i];
  return s;
}

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.w.at(0, 0) = 1; lin.w.at(0, 1) = 2;
  lin.w.at(1, 0) = 3; lin.w.at(1, 1) = 4;
  lin.b.at(0, 0) = 10; lin.b.at(0, 1) = 20;
  Tensor x(1, 2);
  x.at(0, 0) = 1;
  x.at(0, 1) = 1;
  const Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 + 20);
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(3, 4, rng);
  const Tensor x = Tensor::randn(5, 3, rng);
  Tensor ones(5, 4);
  ones.fill(1.0f);  // d(sum(y))/dy
  lin.zero_grad();
  lin.backward(x, ones);
  auto loss = [&] { return tensor_sum(lin.forward(x)); };
  EXPECT_LT(fd_check(lin.w, lin.gw, loss), 0.02);
  EXPECT_LT(fd_check(lin.b, lin.gb, loss), 0.02);
}

TEST(Linear, BackwardReturnsInputGradient) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::randn(2, 3, rng);
  Tensor ones(2, 2);
  ones.fill(1.0f);
  const Tensor dx = lin.backward(x, ones);
  // d(sum(y))/dx via finite differences on x.
  const float eps = 1e-2f;
  for (int c = 0; c < 3; ++c) {
    const float saved = x.at(0, c);
    x.at(0, c) = saved + eps;
    const double hi = tensor_sum(lin.forward(x));
    x.at(0, c) = saved - eps;
    const double lo = tensor_sum(lin.forward(x));
    x.at(0, c) = saved;
    EXPECT_NEAR(dx.at(0, c), (hi - lo) / (2 * eps), 2e-2);
  }
}

TEST(Linear, GradientsAccumulateAcrossCalls) {
  Rng rng(4);
  Linear lin(2, 2, rng);
  const Tensor x = Tensor::randn(3, 2, rng);
  Tensor dy(3, 2);
  dy.fill(1.0f);
  lin.zero_grad();
  lin.backward(x, dy);
  const Tensor once = lin.gw;
  lin.backward(x, dy);
  EXPECT_TRUE(tensor::allclose(lin.gw, tensor::add(once, once), 1e-6f));
  lin.zero_grad();
  EXPECT_FLOAT_EQ(lin.gw.at(0, 0), 0.0f);
}

TEST(MlpBlock, ResidualPathPreservedAtZeroWeights) {
  Rng rng(5);
  MlpBlock block(4, rng);
  block.fc2.w.fill(0.0f);
  block.fc2.b.fill(0.0f);
  const Tensor x = Tensor::randn(2, 4, rng);
  EXPECT_TRUE(tensor::allclose(block.forward(x), x, 1e-6f));
}

TEST(MlpBlock, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  MlpBlock block(3, rng);
  const Tensor x = Tensor::randn(4, 3, rng);
  Tensor ones(4, 3);
  ones.fill(1.0f);
  block.zero_grad();
  block.backward(x, ones);
  auto loss = [&] { return tensor_sum(block.forward(x)); };
  EXPECT_LT(fd_check(block.fc1.w, block.fc1.gw, loss), 0.03);
  EXPECT_LT(fd_check(block.fc1.b, block.fc1.gb, loss), 0.03);
  EXPECT_LT(fd_check(block.fc2.w, block.fc2.gw, loss), 0.03);
  EXPECT_LT(fd_check(block.fc2.b, block.fc2.gb, loss), 0.03);
}

TEST(MlpBlock, ParameterViewsAreStable) {
  Rng rng(7);
  MlpBlock block(4, rng);
  auto params = block.parameters();
  auto grads = block.gradients();
  ASSERT_EQ(params.size(), 4u);
  ASSERT_EQ(grads.size(), 4u);
  EXPECT_EQ(params[0], &block.fc1.w);
  EXPECT_EQ(grads[3], &block.fc2.gb);
}

TEST(BlockStack, TrainingReducesLoss) {
  Rng rng(8);
  BlockStack stack(2, 4, rng);
  const Tensor input = Tensor::randn(6, 4, rng);
  const Tensor target = Tensor::randn(6, 4, rng, 0.1);
  Sgd sgd{0.05f};
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 60; ++step) {
    stack.zero_grad();
    const float loss = stack.train_step_accumulate(input, target);
    if (step == 0) first = loss;
    last = loss;
    for (auto& block : stack.blocks) {
      sgd.apply(block.parameters(), block.gradients());
    }
  }
  EXPECT_LT(last, 0.5f * first);
}

}  // namespace
}  // namespace bfpp::nn
