// Tests for the CPU tensor substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace bfpp::tensor {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng a(5), b(5);
  const Tensor x = Tensor::randn(3, 3, a);
  const Tensor y = Tensor::randn(3, 3, b);
  EXPECT_TRUE(allclose(x, y, 0.0f));
}

TEST(Matmul, KnownProduct) {
  Tensor a(2, 2), b(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Matmul, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(11);
  const Tensor a = Tensor::randn(4, 3, rng);
  const Tensor b = Tensor::randn(4, 5, rng);
  // matmul_tn(a, b) == a^T b.
  Tensor at(3, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(at, b), 1e-5f));

  const Tensor c = Tensor::randn(6, 5, rng);
  // matmul_nt(b, c) == b c^T.
  Tensor ct(5, 6);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 5; ++j) ct.at(j, i) = c.at(i, j);
  EXPECT_TRUE(allclose(matmul_nt(b, c), matmul(b, ct), 1e-5f));
}

TEST(Matmul, ShapeMismatchRejected) {
  EXPECT_THROW(matmul(Tensor(2, 3), Tensor(2, 3)), Error);
  EXPECT_THROW(matmul_tn(Tensor(2, 3), Tensor(3, 3)), Error);
  EXPECT_THROW(matmul_nt(Tensor(2, 3), Tensor(3, 4)), Error);
}

TEST(Elementwise, AddAndHadamard) {
  Rng rng(3);
  const Tensor a = Tensor::randn(3, 4, rng);
  const Tensor b = Tensor::randn(3, 4, rng);
  const Tensor s = add(a, b);
  ASSERT_EQ(s.size(), a.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_FLOAT_EQ(s.data()[i], a.data()[i] + b.data()[i]);
  }
  const Tensor h = hadamard(a, b);
  EXPECT_FLOAT_EQ(h.at(1, 1), a.at(1, 1) * b.at(1, 1));
}

TEST(Elementwise, BiasAndColSum) {
  Tensor a(2, 3);
  a.fill(1.0f);
  Tensor bias(1, 3);
  bias.at(0, 0) = 1;
  bias.at(0, 1) = 2;
  bias.at(0, 2) = 3;
  const Tensor y = add_bias(a, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2);
  EXPECT_FLOAT_EQ(y.at(1, 2), 4);
  const Tensor cs = col_sum(y);
  EXPECT_FLOAT_EQ(cs.at(0, 0), 4);
  EXPECT_FLOAT_EQ(cs.at(0, 2), 8);
}

TEST(Elementwise, AccumulateAddsInPlace) {
  Tensor a(1, 2);
  Tensor b(1, 2);
  a.at(0, 0) = 1;
  b.at(0, 0) = 2;
  accumulate(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3);
}

TEST(Gelu, KnownValuesAndDerivative) {
  Tensor x(1, 3);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 100.0f;   // saturated: gelu(x) ~ x
  x.at(0, 2) = -100.0f;  // saturated: gelu(x) ~ 0
  const Tensor y = gelu(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_NEAR(y.at(0, 1), 100.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-3f);

  // Derivative vs central finite difference.
  Tensor p(1, 5);
  p.at(0, 0) = -2.0f; p.at(0, 1) = -0.5f; p.at(0, 2) = 0.1f;
  p.at(0, 3) = 0.9f; p.at(0, 4) = 2.5f;
  const Tensor g = gelu_grad(p);
  const float eps = 1e-3f;
  for (int j = 0; j < 5; ++j) {
    Tensor hi = p, lo = p;
    hi.at(0, j) += eps;
    lo.at(0, j) -= eps;
    const float fd = (gelu(hi).at(0, j) - gelu(lo).at(0, j)) / (2 * eps);
    EXPECT_NEAR(g.at(0, j), fd, 1e-3f) << "x=" << p.at(0, j);
  }
}

TEST(Loss, MseValueAndGradient) {
  Tensor pred(1, 2), target(1, 2), grad;
  pred.at(0, 0) = 1.0f;
  pred.at(0, 1) = 3.0f;
  target.at(0, 0) = 0.0f;
  target.at(0, 1) = 1.0f;
  const float loss = mse_loss(pred, target, &grad);
  EXPECT_FLOAT_EQ(loss, (1.0f + 4.0f) / 2.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 0), 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 1), 2.0f * 2.0f / 2.0f);
}

TEST(Compare, MaxAbsDiffAndAllclose) {
  Tensor a(1, 2), b(1, 2);
  a.at(0, 1) = 1.0f;
  b.at(0, 1) = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_TRUE(allclose(a, b, 0.5f));
  EXPECT_FALSE(allclose(a, b, 0.4f));
  EXPECT_FALSE(allclose(a, Tensor(2, 1)));
}

}  // namespace
}  // namespace bfpp::tensor
