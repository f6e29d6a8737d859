// Multi-threaded reference executor for pipeline schedules.
//
// This is the repo's ground truth: pipeline devices are OS threads,
// boundary activations travel through single-use mailboxes, and each
// thread executes its schedule list *strictly in order, blocking* -
// exactly the execution model the simulator assumes and the paper's
// implementation realizes. Running a schedule here proves it is
// deadlock-free on real dependencies and that the gradients it produces
// are bitwise identical to serial execution (the backward-accumulation
// order per stage is the same micro-batch order for all four schedules).
//
// The "transformer layer" is nn::MlpBlock; stages are contiguous block
// ranges placed with the looping placement (parallel::StagePlacement).
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "parallel/config.h"
#include "schedule/schedule.h"
#include "tensor/tensor.h"

namespace bfpp::exec {

using tensor::Tensor;

struct PipelineResult {
  float loss_sum = 0.0f;  // summed micro-batch MSE losses
};

class ThreadedPipeline {
 public:
  // Takes ownership of the model. n_pp * n_loop stages must divide (or
  // at most equal) the block count; placement follows Figure 3b.
  ThreadedPipeline(nn::BlockStack model, int n_pp, int n_loop);

  // Executes `sched` (which must match this pipeline's n_pp/n_loop) on
  // one batch of micro-batches. Gradients accumulate into the model;
  // call model().zero_grad() between optimizer steps.
  PipelineResult run_batch(const schedule::Schedule& sched,
                           const std::vector<Tensor>& inputs,
                           const std::vector<Tensor>& targets);

  [[nodiscard]] nn::BlockStack& model() { return model_; }
  [[nodiscard]] const parallel::StagePlacement& placement() const {
    return placement_;
  }

 private:
  nn::BlockStack model_;
  int n_pp_;
  int n_loop_;
  parallel::StagePlacement placement_;
};

}  // namespace bfpp::exec
