#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace bfpp::tensor {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  check(a.rows() == b.rows() && a.cols() == b.cols(),
        "tensor %s: shape mismatch [%d,%d] vs [%d,%d]", op,
        a.rows(), a.cols(), b.rows(), b.cols());
}

}  // namespace

Tensor::Tensor(int rows, int cols) : rows_(rows), cols_(cols) {
  check(rows >= 0 && cols >= 0, "tensor: negative dimensions");
  data_.assign(static_cast<size_t>(rows) * cols, 0.0f);
}

Tensor Tensor::zeros(int rows, int cols) { return Tensor(rows, cols); }

Tensor Tensor::randn(int rows, int cols, Rng& rng, double stddev) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.cols() == b.rows(), "tensor matmul: inner dims differ");
  Tensor c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const float aik = a.at(i, k);
      if (aik == 0.0f) continue;
      const float* brow = b.data() + static_cast<size_t>(k) * b.cols();
      float* crow = c.data() + static_cast<size_t>(i) * c.cols();
      for (int j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.rows() == b.rows(), "tensor matmul_tn: outer dims differ");
  Tensor c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    const float* arow = a.data() + static_cast<size_t>(k) * a.cols();
    const float* brow = b.data() + static_cast<size_t>(k) * b.cols();
    for (int i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c.data() + static_cast<size_t>(i) * c.cols();
      for (int j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.cols() == b.cols(), "tensor matmul_nt: inner dims differ");
  Tensor c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.data() + static_cast<size_t>(i) * a.cols();
    for (int j = 0; j < b.rows(); ++j) {
      const float* brow = b.data() + static_cast<size_t>(j) * b.cols();
      float sum = 0.0f;
      for (int k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
      c.at(i, j) = sum;
    }
  }
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] + b.data()[i];
  return c;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "hadamard");
  Tensor c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  check(bias.rows() == 1 && bias.cols() == a.cols(),
        "tensor add_bias: bias must be [1, cols]");
  Tensor c(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) c.at(i, j) = a.at(i, j) + bias.at(0, j);
  return c;
}

Tensor col_sum(const Tensor& a) {
  Tensor c(1, a.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) c.at(0, j) += a.at(i, j);
  return c;
}

void accumulate(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "accumulate");
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] += b.data()[i];
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu_scalar(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float gelu_grad_scalar(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}
}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i) y.data()[i] = gelu_scalar(x.data()[i]);
  return y;
}

Tensor gelu_grad(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i)
    y.data()[i] = gelu_grad_scalar(x.data()[i]);
  return y;
}

float mse_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  check_same_shape(pred, target, "mse_loss");
  check(grad != nullptr, "tensor mse_loss: null grad output");
  check(pred.size() > 0, "tensor mse_loss: empty tensors");
  *grad = Tensor(pred.rows(), pred.cols());
  float loss = 0.0f;
  const float inv_n = 1.0f / static_cast<float>(pred.size());
  for (size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.data()[i] - target.data()[i];
    loss += d * d;
    grad->data()[i] = 2.0f * d * inv_n;
  }
  return loss * inv_n;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  for (size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         max_abs_diff(a, b) <= atol;
}

}  // namespace bfpp::tensor
