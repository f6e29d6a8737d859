// The executor equivalence suite: every pipeline schedule, run on real
// threads with real math, must produce gradients and losses identical
// to serial single-device execution. This is the repo's strongest
// correctness evidence for the schedule generators (the simulator only
// measures time; this measures truth).
#include <gtest/gtest.h>

#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "exec/threaded_pipeline.h"
#include "nn/layers.h"
#include "parallel/config.h"
#include "schedule/schedule.h"

namespace bfpp::exec {
namespace {

using parallel::ScheduleKind;
using tensor::Tensor;

constexpr int kHidden = 8;
constexpr int kRowsPerMb = 3;

struct Workload {
  nn::BlockStack model;          // pipeline copy
  nn::BlockStack reference;      // identical serial copy
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
};

Workload make_workload(int n_blocks, int n_mb, uint64_t seed) {
  Rng model_rng(seed);
  nn::BlockStack model(n_blocks, kHidden, model_rng);
  Rng ref_rng(seed);
  nn::BlockStack reference(n_blocks, kHidden, ref_rng);
  Workload w{std::move(model), std::move(reference), {}, {}};
  Rng data_rng(seed + 1);
  for (int m = 0; m < n_mb; ++m) {
    w.inputs.push_back(Tensor::randn(kRowsPerMb, kHidden, data_rng));
    w.targets.push_back(Tensor::randn(kRowsPerMb, kHidden, data_rng, 0.2));
  }
  return w;
}

// Serial reference: accumulate gradients over all micro-batches.
float reference_batch(Workload& w) {
  float loss = 0.0f;
  for (size_t m = 0; m < w.inputs.size(); ++m) {
    loss += w.reference.train_step_accumulate(w.inputs[m], w.targets[m]);
  }
  return loss;
}

void expect_gradients_equal(nn::BlockStack& a, nn::BlockStack& b,
                            float tol = 0.0f) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    auto ga = a.blocks[static_cast<size_t>(i)].gradients();
    auto gb = b.blocks[static_cast<size_t>(i)].gradients();
    for (size_t k = 0; k < ga.size(); ++k) {
      EXPECT_LE(tensor::max_abs_diff(*ga[k], *gb[k]), tol)
          << "block " << i << " tensor " << k;
    }
  }
}

TEST(Exec, SingleDeviceMatchesReferenceExactly) {
  Workload w = make_workload(4, 2, 11);
  const float ref_loss = reference_batch(w);
  ThreadedPipeline pipe(std::move(w.model), 1, 4);
  const auto result = pipe.run_batch(
      schedule::grad_accumulation_breadth_first(4, 2), w.inputs, w.targets);
  EXPECT_FLOAT_EQ(result.loss_sum, ref_loss);
  expect_gradients_equal(pipe.model(), w.reference);
}

TEST(Exec, BreadthFirstMatchesReferenceBitwise) {
  // 8 blocks over 4 devices, 2 loops, 8 micro-batches (a mini Figure 4d).
  Workload w = make_workload(8, 8, 17);
  const float ref_loss = reference_batch(w);
  ThreadedPipeline pipe(std::move(w.model), 4, 2);
  const auto result =
      pipe.run_batch(schedule::breadth_first(4, 2, 8), w.inputs, w.targets);
  EXPECT_FLOAT_EQ(result.loss_sum, ref_loss);
  // Same accumulation order per stage -> bitwise identical gradients.
  expect_gradients_equal(pipe.model(), w.reference, 0.0f);
}

TEST(Exec, LossesPerScheduleAgree) {
  // All four schedules compute the same function; the loss must agree
  // across them exactly (forward math is identical).
  Workload w1 = make_workload(8, 8, 23);
  ThreadedPipeline bf(std::move(w1.model), 4, 2);
  const float loss_bf = bf.run_batch(schedule::breadth_first(4, 2, 8),
                                     w1.inputs, w1.targets)
                            .loss_sum;
  Workload w2 = make_workload(8, 8, 23);
  ThreadedPipeline df(std::move(w2.model), 4, 2);
  const float loss_df = df.run_batch(schedule::depth_first(4, 2, 8),
                                     w2.inputs, w2.targets)
                            .loss_sum;
  EXPECT_FLOAT_EQ(loss_bf, loss_df);
}

TEST(Exec, GradAccumulationOrdersAgree) {
  // Appendix C: depth-first and breadth-first accumulation must produce
  // identical gradients (order differs, sums match bitwise because each
  // stage still accumulates micro-batches in index order).
  Workload w1 = make_workload(4, 4, 29);
  ThreadedPipeline a(std::move(w1.model), 1, 4);
  a.run_batch(schedule::grad_accumulation_breadth_first(4, 4), w1.inputs,
              w1.targets);
  Workload w2 = make_workload(4, 4, 29);
  ThreadedPipeline b(std::move(w2.model), 1, 4);
  b.run_batch(schedule::grad_accumulation_depth_first(4, 4), w2.inputs,
              w2.targets);
  expect_gradients_equal(a.model(), b.model());
}

TEST(Exec, TrainingStepConvergesUnderPipeline) {
  // End-to-end: several optimizer steps through the threaded pipeline
  // reduce the loss, and stay equal to reference training.
  Workload w = make_workload(4, 4, 31);
  ThreadedPipeline pipe(std::move(w.model), 2, 2);
  nn::Sgd sgd{0.05f};
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    pipe.model().zero_grad();
    w.reference.zero_grad();
    const float pipe_loss =
        pipe.run_batch(schedule::breadth_first(2, 2, 4), w.inputs, w.targets)
            .loss_sum;
    const float ref_loss = reference_batch(w);
    ASSERT_FLOAT_EQ(pipe_loss, ref_loss) << "step " << step;
    for (auto& block : pipe.model().blocks)
      sgd.apply(block.parameters(), block.gradients());
    for (auto& block : w.reference.blocks)
      sgd.apply(block.parameters(), block.gradients());
    if (step == 0) first = pipe_loss;
    last = pipe_loss;
  }
  EXPECT_LT(last, 0.7f * first);
}

TEST(Exec, DataParallelReplicasSumToSingleDevice) {
  // DP_0 equivalence: two replicas, each with half the micro-batches,
  // all-reduced, equals one device with all micro-batches.
  Workload w = make_workload(4, 4, 37);
  // Replica A: micro-batches 0,1. Replica B: 2,3.
  Rng rng_a(37), rng_b(37);
  nn::BlockStack replica_a(4, kHidden, rng_a);
  nn::BlockStack replica_b(4, kHidden, rng_b);
  for (int m = 0; m < 2; ++m)
    replica_a.train_step_accumulate(w.inputs[static_cast<size_t>(m)],
                                    w.targets[static_cast<size_t>(m)]);
  for (int m = 2; m < 4; ++m)
    replica_b.train_step_accumulate(w.inputs[static_cast<size_t>(m)],
                                    w.targets[static_cast<size_t>(m)]);
  // The all-reduce: replica A's gradients += replica B's.
  for (int i = 0; i < replica_a.size(); ++i) {
    const auto dst = replica_a.blocks[static_cast<size_t>(i)].gradients();
    const auto src = replica_b.blocks[static_cast<size_t>(i)].gradients();
    for (size_t k = 0; k < dst.size(); ++k)
      tensor::accumulate(*dst[k], *src[k]);
  }
  reference_batch(w);
  expect_gradients_equal(replica_a, w.reference, 1e-6f);
}

TEST(Exec, RejectsMismatchedSchedule) {
  Workload w = make_workload(8, 4, 47);
  ThreadedPipeline pipe(std::move(w.model), 4, 2);
  EXPECT_THROW(
      pipe.run_batch(schedule::breadth_first(2, 2, 4), w.inputs, w.targets),
      Error);
}

TEST(Exec, RejectsWrongMicroBatchCount) {
  Workload w = make_workload(8, 4, 53);
  ThreadedPipeline pipe(std::move(w.model), 4, 2);
  EXPECT_THROW(
      pipe.run_batch(schedule::breadth_first(4, 2, 8), w.inputs, w.targets),
      Error);
}

// ---- The exhaustive equivalence sweep ----
// Every (schedule, n_pp, n_loop, n_mb) combination must match the serial
// reference bitwise. This is the property-based heart of the suite.

class ExecEquivalence
    : public ::testing::TestWithParam<
          std::tuple<ScheduleKind, int /*n_pp*/, int /*n_loop*/, int /*n_mb*/>> {
};

TEST_P(ExecEquivalence, GradientsMatchSerialReference) {
  const auto [kind, n_pp, n_loop, n_mb] = GetParam();
  if (kind == ScheduleKind::kDepthFirst && n_mb % n_pp != 0) GTEST_SKIP();
  if ((kind == ScheduleKind::kGpipe || kind == ScheduleKind::kOneFOneB) &&
      n_loop != 1)
    GTEST_SKIP();
  const int n_blocks = n_pp * n_loop;  // one block per stage

  Workload w = make_workload(n_blocks, n_mb,
                             1000 + static_cast<uint64_t>(n_pp * 100 +
                                                          n_loop * 10 + n_mb));
  const float ref_loss = reference_batch(w);
  ThreadedPipeline pipe(std::move(w.model), n_pp, n_loop);
  const auto sched = schedule::make_schedule(kind, n_pp, n_loop, n_mb);
  const auto result = pipe.run_batch(sched, w.inputs, w.targets);
  EXPECT_FLOAT_EQ(result.loss_sum, ref_loss);
  expect_gradients_equal(pipe.model(), w.reference, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ExecEquivalence,
    ::testing::Combine(::testing::Values(ScheduleKind::kGpipe,
                                         ScheduleKind::kOneFOneB,
                                         ScheduleKind::kDepthFirst,
                                         ScheduleKind::kBreadthFirst),
                       ::testing::Values(1, 2, 4),   // n_pp
                       ::testing::Values(1, 2, 3),   // n_loop
                       ::testing::Values(4, 6, 8)),  // n_mb
    [](const auto& info) {
      std::string name =
          std::string(parallel::to_string(std::get<0>(info.param))) + "_pp" +
          std::to_string(std::get<1>(info.param)) + "_loop" +
          std::to_string(std::get<2>(info.param)) + "_mb" +
          std::to_string(std::get<3>(info.param));
      std::erase_if(name, [](char c) { return c == '-'; });
      return name;
    });

}  // namespace
}  // namespace bfpp::exec
