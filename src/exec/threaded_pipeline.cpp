#include "exec/threaded_pipeline.h"

#include <optional>
#include <thread>

#include "common/error.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace bfpp::exec {

namespace {

using schedule::Op;
using schedule::OpKind;

// Single-use blocking mailbox: one put, one take.
class Mailbox {
 public:
  void put(Tensor value) {
    {
      const LockGuard lock(mutex_);
      check(!value_.has_value(), "mailbox: double put");
      value_ = std::move(value);
    }
    cv_.notify_one();
  }

  Tensor take() {
    const LockGuard lock(mutex_);
    while (!value_.has_value()) cv_.wait(mutex_);
    Tensor out = std::move(*value_);
    value_.reset();
    return out;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  std::optional<Tensor> value_ BFPP_GUARDED_BY(mutex_);
};

}  // namespace

ThreadedPipeline::ThreadedPipeline(nn::BlockStack model, int n_pp, int n_loop)
    : model_(std::move(model)),
      n_pp_(n_pp),
      n_loop_(n_loop),
      placement_(model_.size(), n_pp, n_loop) {}

PipelineResult ThreadedPipeline::run_batch(const schedule::Schedule& sched,
                                           const std::vector<Tensor>& inputs,
                                           const std::vector<Tensor>& targets) {
  check(sched.n_pp == n_pp_ && sched.n_loop == n_loop_,
        "exec: schedule shape does not match pipeline");
  const int n_mb = sched.n_mb;
  check(static_cast<int>(inputs.size()) == n_mb &&
            static_cast<int>(targets.size()) == n_mb,
        "exec: need one input and target per micro-batch");
  schedule::validate(sched);

  const int n_stages = placement_.n_stages();
  auto cell = [n_mb](int stage, int mb) {
    return static_cast<size_t>(stage) * static_cast<size_t>(n_mb) +
           static_cast<size_t>(mb);
  };
  const size_t n_cells = static_cast<size_t>(n_stages) * n_mb;
  // fwd_boxes[(s,m)]: input activation of stage s for micro-batch m.
  // bwd_boxes[(s,m)]: gradient of stage s's *output*.
  std::vector<Mailbox> fwd_boxes(n_cells);
  std::vector<Mailbox> bwd_boxes(n_cells);
  // Stashed stage inputs, (stage, mb) -> tensor; each slot is written by
  // the owning stage's forward and consumed by its backward (same
  // thread), so no locking is needed.
  std::vector<Tensor> stash(n_cells);
  std::vector<Tensor> outputs(static_cast<size_t>(n_mb));  // last stage
  std::vector<float> losses(static_cast<size_t>(n_mb), 0.0f);

  auto worker = [&](int device) {
    for (const Op& op : sched.device_ops[static_cast<size_t>(device)]) {
      const int s = op.stage;
      const int m = op.micro_batch;
      const int first = placement_.first_layer_of_stage(s);
      const int count = placement_.layers_in_stage(s);
      if (op.kind == OpKind::kForward) {
        Tensor x = s == 0 ? inputs[static_cast<size_t>(m)]
                          : fwd_boxes[cell(s, m)].take();
        stash[cell(s, m)] = x;
        for (int l = first; l < first + count; ++l)
          x = model_.blocks[static_cast<size_t>(l)].forward(x);
        if (s == n_stages - 1) {
          outputs[static_cast<size_t>(m)] = std::move(x);
        } else {
          fwd_boxes[cell(s + 1, m)].put(std::move(x));
        }
      } else if (op.kind == OpKind::kBackwardWeight) {
        // Split-backward schedules: the blocks compute weight gradients
        // together with input gradients during kBackwardInput (the split
        // is a scheduling construct this executor verifies for ordering,
        // not a separate numeric kernel), so B_w is a no-op here and the
        // bitwise gradient cross-check still holds.
        continue;
      } else {
        Tensor dy;
        if (s == n_stages - 1) {
          dy = Tensor();
          losses[static_cast<size_t>(m)] =
              tensor::mse_loss(outputs[static_cast<size_t>(m)],
                               targets[static_cast<size_t>(m)], &dy);
        } else {
          dy = bwd_boxes[cell(s, m)].take();
        }
        // Recompute the stage's forward from the stashed input
        // (checkpointing), then walk backward through its blocks.
        Tensor x = std::move(stash[cell(s, m)]);
        std::vector<Tensor> block_inputs;
        block_inputs.reserve(static_cast<size_t>(count));
        for (int l = first; l < first + count; ++l) {
          block_inputs.push_back(x);
          if (l + 1 < first + count)
            x = model_.blocks[static_cast<size_t>(l)].forward(x);
        }
        for (int l = first + count - 1; l >= first; --l) {
          dy = model_.blocks[static_cast<size_t>(l)].backward(
              block_inputs[static_cast<size_t>(l - first)], dy);
        }
        if (s > 0) bwd_boxes[cell(s - 1, m)].put(std::move(dy));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_pp_));
  for (int r = 0; r < n_pp_; ++r) threads.emplace_back(worker, r);
  for (auto& t : threads) t.join();

  PipelineResult result;
  for (float l : losses) result.loss_sum += l;
  return result;
}

}  // namespace bfpp::exec
