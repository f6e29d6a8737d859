// Minimal dense 2-D float tensor library.
//
// This is the numeric substrate of the reference executor (src/exec):
// just enough real linear algebra to run forward/backward passes of an
// MLP-block pipeline and verify that every schedule produces gradients
// identical to serial execution. Row-major [rows x cols] float32.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace bfpp::tensor {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols);

  static Tensor zeros(int rows, int cols);
  static Tensor randn(int rows, int cols, Rng& rng, double stddev = 1.0);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float& at(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  [[nodiscard]] float at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  void fill(float value);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// C = A [r,k] * B [k,c].
Tensor matmul(const Tensor& a, const Tensor& b);
// C = A^T [k,r] * B [k,c]  (used for weight gradients).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C = A [r,k] * B^T [c,k]  (used for input gradients).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

Tensor add(const Tensor& a, const Tensor& b);
Tensor hadamard(const Tensor& a, const Tensor& b);
// Adds row-vector bias [1,c] to every row of a [r,c].
Tensor add_bias(const Tensor& a, const Tensor& bias);
// Column sums -> [1,c] (bias gradient).
Tensor col_sum(const Tensor& a);
// In-place accumulate: a += b.
void accumulate(Tensor& a, const Tensor& b);

// tanh-approximation GeLU and its derivative (matching common fused
// implementations; Appendix D notes the paper used a compiled GeLU).
Tensor gelu(const Tensor& x);
Tensor gelu_grad(const Tensor& x);

// Mean-squared-error loss; writes d(loss)/d(pred) into *grad.
float mse_loss(const Tensor& pred, const Tensor& target, Tensor* grad);

// Max |a-b|; tensors must be the same shape.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-6f);

}  // namespace bfpp::tensor
