// Tests for the pipeline schedule generators - the paper's core.
//
// Correctness here means: complete (every stage x micro-batch x direction
// exactly once on the owning device), locally ordered, and deadlock-free
// under blocking in-order execution. The TEST_P sweep checks these
// invariants across the whole (N_PP, N_loop, N_mb) space used in the
// paper's experiments.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "schedule/schedule.h"

namespace bfpp::schedule {
namespace {

using parallel::ScheduleKind;

// The exact diagnostic validate() rejects `s` with; clients and tests
// read these messages, so each rejection test pins its text.
std::string validate_error(const Schedule& s) {
  try {
    validate(s);
  } catch (const Error& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(BreadthFirst, MatchesFigure4dOrdering) {
  // 16-layer model on 4 devices, 4 loops, 8 micro-batches (Figure 4d):
  // device 0 runs stage 0 for mb 0..7, then stage 4 for mb 0..7, ...
  const Schedule s = breadth_first(4, 4, 8);
  const auto& ops = s.device_ops[0];
  ASSERT_EQ(ops.size(), 64u);
  for (int l = 0; l < 4; ++l) {
    for (int m = 0; m < 8; ++m) {
      const Op& op = ops[static_cast<size_t>(l * 8 + m)];
      EXPECT_EQ(op.kind, OpKind::kForward);
      EXPECT_EQ(op.stage, l * 4);
      EXPECT_EQ(op.micro_batch, m);
    }
  }
  // Backward pass in reverse stage order.
  EXPECT_EQ(ops[32].kind, OpKind::kBackward);
  EXPECT_EQ(ops[32].stage, 12);
  EXPECT_EQ(ops[32].micro_batch, 0);
  EXPECT_EQ(ops.back().stage, 0);
  EXPECT_EQ(ops.back().micro_batch, 7);
}

TEST(BreadthFirst, ReducesToGpipeWhenNotLooped) {
  const Schedule bf = breadth_first(4, 1, 8);
  const Schedule gp = gpipe(4, 8);
  EXPECT_EQ(bf.device_ops, gp.device_ops);
}

TEST(Gpipe, AllForwardsThenAllBackwards) {
  const Schedule s = gpipe(4, 6);
  for (const auto& ops : s.device_ops) {
    ASSERT_EQ(ops.size(), 12u);
    for (size_t i = 0; i < 6; ++i) EXPECT_EQ(ops[i].kind, OpKind::kForward);
    for (size_t i = 6; i < 12; ++i) EXPECT_EQ(ops[i].kind, OpKind::kBackward);
  }
}

TEST(OneFOneB, LastDeviceAlternatesImmediately) {
  // The last device has no warmup: F0 B0 F1 B1 ... (Figure 4b, GPU 3).
  const Schedule s = one_f_one_b(4, 8);
  const auto& ops = s.device_ops[3];
  ASSERT_EQ(ops.size(), 16u);
  for (int m = 0; m < 8; ++m) {
    EXPECT_EQ(ops[static_cast<size_t>(2 * m)].kind, OpKind::kForward);
    EXPECT_EQ(ops[static_cast<size_t>(2 * m)].micro_batch, m);
    EXPECT_EQ(ops[static_cast<size_t>(2 * m + 1)].kind, OpKind::kBackward);
    EXPECT_EQ(ops[static_cast<size_t>(2 * m + 1)].micro_batch, m);
  }
}

TEST(OneFOneB, FirstDeviceWarmupIsPipelineDepthMinusOne) {
  const Schedule s = one_f_one_b(4, 8);
  const auto& ops = s.device_ops[0];
  // 3 warmup forwards before the first backward.
  EXPECT_EQ(ops[0].kind, OpKind::kForward);
  EXPECT_EQ(ops[1].kind, OpKind::kForward);
  EXPECT_EQ(ops[2].kind, OpKind::kForward);
  EXPECT_EQ(ops[3].kind, OpKind::kForward);  // steady state starts with F
  EXPECT_EQ(ops[4].kind, OpKind::kBackward);
  EXPECT_EQ(ops[4].micro_batch, 0);
}

TEST(OneFOneB, FewerMicroBatchesThanDevices) {
  // n_mb < n_pp degenerates to GPipe-like behaviour but must stay valid.
  const Schedule s = one_f_one_b(8, 3);
  EXPECT_NO_THROW(validate(s));
}

TEST(DepthFirst, RequiresDivisibleMicroBatches) {
  EXPECT_THROW(depth_first(4, 2, 6), ConfigError);
  EXPECT_NO_THROW(depth_first(4, 2, 8));
}

TEST(DepthFirst, RunsInSequencesOfNpp) {
  // Figure 4c: device 0 warms up with stage 0 mb 0..3, then stage 4 mb
  // 0..3, etc. (sequences of N_PP micro-batches through the local chunks).
  const Schedule s = depth_first(4, 4, 8);
  const auto& ops = s.device_ops[0];
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(ops[static_cast<size_t>(m)].kind, OpKind::kForward);
    EXPECT_EQ(ops[static_cast<size_t>(m)].stage, 0);
    EXPECT_EQ(ops[static_cast<size_t>(m)].micro_batch, m);
  }
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(ops[static_cast<size_t>(4 + m)].stage, 4);
    EXPECT_EQ(ops[static_cast<size_t>(4 + m)].micro_batch, m);
  }
}

TEST(DepthFirst, NonLoopedEquals1F1BBehaviour) {
  // With n_loop == 1, depth-first is 1F1B op for op, including a
  // pipeline exactly filled (n_mb == n_pp).
  for (const auto& [n_pp, n_mb] :
       {std::pair{4, 8}, std::pair{4, 4}, std::pair{2, 6}, std::pair{1, 3}}) {
    EXPECT_EQ(depth_first(n_pp, 1, n_mb).device_ops,
              one_f_one_b(n_pp, n_mb).device_ops)
        << "n_pp=" << n_pp << " n_mb=" << n_mb;
  }
}

TEST(GradAccumulation, DepthFirstIsPerMicroBatch) {
  // Figure 9a: mb 0 full forward+backward, then mb 1, ...
  const Schedule s = grad_accumulation_depth_first(4, 2);
  const auto& ops = s.device_ops[0];
  ASSERT_EQ(ops.size(), 16u);
  EXPECT_EQ(ops[0], (Op{OpKind::kForward, 0, 0}));
  EXPECT_EQ(ops[3], (Op{OpKind::kForward, 3, 0}));
  EXPECT_EQ(ops[4], (Op{OpKind::kBackward, 3, 0}));
  EXPECT_EQ(ops[7], (Op{OpKind::kBackward, 0, 0}));
  EXPECT_EQ(ops[8], (Op{OpKind::kForward, 0, 1}));
}

TEST(GradAccumulation, BreadthFirstIsPerStage) {
  // Figure 9c: stage 0 for all micro-batches, then stage 1, ...
  const Schedule s = grad_accumulation_breadth_first(4, 4);
  const auto& ops = s.device_ops[0];
  ASSERT_EQ(ops.size(), 32u);
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(ops[static_cast<size_t>(m)], (Op{OpKind::kForward, 0, m}));
  }
  EXPECT_EQ(ops[4], (Op{OpKind::kForward, 1, 0}));
  // Backward starts from the last stage.
  EXPECT_EQ(ops[16], (Op{OpKind::kBackward, 3, 0}));
}

TEST(MakeSchedule, DispatchesAllKinds) {
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kGpipe, 4, 1, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kOneFOneB, 4, 1, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kDepthFirst, 4, 2, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kBreadthFirst, 4, 2, 8));
  EXPECT_THROW(make_schedule(ScheduleKind::kGpipe, 4, 2, 8), ConfigError);
  EXPECT_THROW(make_schedule(ScheduleKind::kOneFOneB, 4, 2, 8), ConfigError);
}

TEST(Validate, CatchesDuplicateOps) {
  Schedule s = gpipe(2, 2);
  s.device_ops[0].push_back(s.device_ops[0][0]);
  EXPECT_EQ(validate_error(s), "schedule: duplicate op (stage 0, mb 0)");
}

TEST(Validate, CatchesMissingOps) {
  Schedule s = gpipe(2, 2);
  s.device_ops[0].pop_back();
  EXPECT_EQ(validate_error(s), "schedule: device 0 has 3 ops, expected 4");
}

TEST(Validate, CatchesWrongDevice) {
  Schedule s = gpipe(2, 2);
  // Move an op of device 1 onto device 0.
  s.device_ops[0][0].stage = 1;
  EXPECT_EQ(validate_error(s),
            "schedule: stage 1 does not belong to device 0");
}

TEST(Validate, RejectsANegativeMicroBatchCount) {
  Schedule s = gpipe(2, 2);
  s.n_mb = -1;
  EXPECT_EQ(validate_error(s), "schedule: micro-batch out of range");
}

TEST(Validate, CatchesBackwardBeforeForward) {
  Schedule s;
  s.n_pp = 1;
  s.n_loop = 1;
  s.n_mb = 1;
  s.device_ops = {{{OpKind::kBackward, 0, 0}, {OpKind::kForward, 0, 0}}};
  EXPECT_EQ(validate_error(s), "schedule: deadlock - device 0 blocked at op 0");
}

TEST(Validate, CatchesCrossDeviceDeadlock) {
  // Device 1 forwards mb 1 before mb 0 while device 0 forwards mb 0
  // first; fine. But device 0 waiting on a backward that can never run
  // deadlocks. Construct: 2 devices, 1 mb; device 0 runs B(0,0) before
  // F(0,0) is even possible because B(1,0) never happened... simpler:
  // swap device 0's F and B with a dependency through device 1.
  Schedule s;
  s.n_pp = 2;
  s.n_loop = 1;
  s.n_mb = 1;
  s.device_ops = {{{OpKind::kBackward, 0, 0}, {OpKind::kForward, 0, 0}},
                  {{OpKind::kForward, 1, 0}, {OpKind::kBackward, 1, 0}}};
  EXPECT_EQ(validate_error(s), "schedule: deadlock - device 0 blocked at op 0");
}

// ---- Property sweep over the experiment space ----

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScheduleSweep, BreadthFirstValid) {
  const auto [n_pp, n_loop, n_mb] = GetParam();
  const Schedule s = breadth_first(n_pp, n_loop, n_mb);
  EXPECT_NO_THROW(validate(s)) << "pp=" << n_pp << " loop=" << n_loop
                               << " mb=" << n_mb;
}

TEST_P(ScheduleSweep, DepthFirstValidWhenDivisible) {
  const auto [n_pp, n_loop, n_mb] = GetParam();
  if (n_mb % n_pp != 0) GTEST_SKIP();
  const Schedule s = depth_first(n_pp, n_loop, n_mb);
  EXPECT_NO_THROW(validate(s)) << "pp=" << n_pp << " loop=" << n_loop
                               << " mb=" << n_mb;
}

TEST_P(ScheduleSweep, NonLoopedValid) {
  const auto [n_pp, n_loop, n_mb] = GetParam();
  (void)n_loop;
  EXPECT_NO_THROW(validate(gpipe(n_pp, n_mb)));
  EXPECT_NO_THROW(validate(one_f_one_b(n_pp, n_mb)));
}

TEST_P(ScheduleSweep, OpCountsMatchShape) {
  const auto [n_pp, n_loop, n_mb] = GetParam();
  const Schedule s = breadth_first(n_pp, n_loop, n_mb);
  int total = 0;
  for (const auto& ops : s.device_ops) total += static_cast<int>(ops.size());
  EXPECT_EQ(total, s.total_ops());
  EXPECT_EQ(static_cast<int>(s.device_ops[0].size()), s.ops_per_device());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScheduleSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),   // n_pp
                       ::testing::Values(1, 2, 4, 8),       // n_loop
                       ::testing::Values(1, 2, 4, 8, 9, 12, 16, 32)),  // n_mb
    [](const auto& info) {
      return "pp" + std::to_string(std::get<0>(info.param)) + "_loop" +
             std::to_string(std::get<1>(info.param)) + "_mb" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace bfpp::schedule

// Separate suite: the rival schedule families of the zoo.
namespace bfpp::schedule {
namespace {

using parallel::ScheduleKind;

TEST(Async, WarmupKeepsOneMoreInFlightThan1F1B) {
  // PipeDream ordering: device r warms up with min(n_mb, n_pp - r)
  // forwards (1F1B uses n_pp - r - 1) before alternating.
  const Schedule s = one_f_one_b_async(4, 8);
  const auto& ops = s.device_ops[0];
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ops[static_cast<size_t>(i)].kind,
                                        OpKind::kForward);
  EXPECT_EQ(ops[4].kind, OpKind::kForward);
  EXPECT_EQ(ops[5].kind, OpKind::kBackward);
  EXPECT_EQ(ops[5].micro_batch, 0);
  // Last device: warmup of one (1F1B uses zero), so two forwards run
  // before the first backward retires micro-batch 0.
  const auto& last = s.device_ops[3];
  EXPECT_EQ(last[0].kind, OpKind::kForward);
  EXPECT_EQ(last[1].kind, OpKind::kForward);
  EXPECT_EQ(last[2].kind, OpKind::kBackward);
  EXPECT_EQ(last[2].micro_batch, 0);
}

TEST(Unbalanced, CarriesAnExplicitIdentityMap) {
  const Schedule s = unbalanced(3, 5);  // non-power-of-two pipeline
  ASSERT_EQ(s.stage_device.size(), 3u);
  for (int stage = 0; stage < 3; ++stage) EXPECT_EQ(s.device_of(stage), stage);
  // Same execution order as 1F1B; the family differs in placement only.
  EXPECT_EQ(s.device_ops, one_f_one_b(3, 5).device_ops);
  EXPECT_NO_THROW(validate(s));
}

TEST(VSchedule, FoldsThePipeline) {
  const Schedule s = v_schedule(4, 8);
  EXPECT_EQ(s.n_loop, 2);
  EXPECT_EQ(s.n_stages(), 8);
  ASSERT_EQ(s.stage_device.size(), 8u);
  for (int stage = 0; stage < 8; ++stage) {
    EXPECT_EQ(s.device_of(stage), stage < 4 ? stage : 7 - stage);
  }
  EXPECT_NO_THROW(validate(s));
}

TEST(VSchedule, TighterBudgetStaysValid) {
  // in_flight_budget trades bubble for memory but never correctness.
  for (int budget = 1; budget <= 8; ++budget) {
    EXPECT_NO_THROW(validate(v_schedule(4, 8, budget))) << "budget=" << budget;
  }
}

TEST(TwoBP, SplitsBackwardAndDefersWeightGradients) {
  const Schedule s = two_bp(4, 8);
  EXPECT_TRUE(s.split_backward);
  EXPECT_EQ(s.passes(), 3);
  for (const auto& ops : s.device_ops) {
    ASSERT_EQ(ops.size(), 24u);  // 8 F + 8 B_x + 8 B_w
    // Every B_w sits in the device tail, after all F and B_x work.
    for (size_t i = 0; i < 16; ++i) EXPECT_NE(ops[i].kind,
                                              OpKind::kBackwardWeight);
    for (size_t i = 16; i < 24; ++i) EXPECT_EQ(ops[i].kind,
                                               OpKind::kBackwardWeight);
  }
  EXPECT_NO_THROW(validate(s));
}

TEST(MakeSchedule, DispatchesZooKinds) {
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kOneFOneBAsync, 4, 1, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kUnbalanced, 4, 1, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kVSchedule, 4, 2, 8));
  EXPECT_NO_THROW(make_schedule(ScheduleKind::kTwoBP, 4, 1, 8));
  // Loop-count constraints: the non-looped families reject n_loop > 1,
  // V-schedules require exactly 2.
  EXPECT_THROW(make_schedule(ScheduleKind::kOneFOneBAsync, 4, 2, 8),
               ConfigError);
  EXPECT_THROW(make_schedule(ScheduleKind::kTwoBP, 4, 2, 8), ConfigError);
  EXPECT_THROW(make_schedule(ScheduleKind::kVSchedule, 4, 1, 8), ConfigError);
}

// The 1F1B order written independently of the generators: device r
// issues a forward while fewer than `cap` micro-batches are in flight
// (and forwards remain), else retires its oldest outstanding backward;
// with split backward every B_w follows at the tail, in micro-batch
// order. 1F1B's cap is n_pp - r (warmup n_pp - r - 1, plus the forward
// of the first steady-state pair); PipeDream's async order holds one
// more.
std::vector<Op> expected_1f1b_ops(int r, int n_mb, int cap, bool split) {
  std::vector<Op> ops;
  const OpKind backward = split ? OpKind::kBackwardInput : OpKind::kBackward;
  int next_f = 0;
  int next_b = 0;
  while (next_b < n_mb) {
    if (next_f < n_mb && next_f - next_b < cap) {
      ops.push_back({OpKind::kForward, r, next_f++});
    } else {
      ops.push_back({backward, r, next_b++});
    }
  }
  if (split) {
    for (int m = 0; m < n_mb; ++m) {
      ops.push_back({OpKind::kBackwardWeight, r, m});
    }
  }
  return ops;
}

TEST(OneFOneBFamily, OpListsMatchAnIndependentExpectation) {
  for (int n_pp = 1; n_pp <= 8; ++n_pp) {
    for (int n_mb = 1; n_mb <= 16; ++n_mb) {
      const Schedule fb = one_f_one_b(n_pp, n_mb);
      const Schedule async = one_f_one_b_async(n_pp, n_mb);
      const Schedule ub = unbalanced(n_pp, n_mb);
      const Schedule split = two_bp(n_pp, n_mb);
      ASSERT_EQ(ub.stage_device.size(), static_cast<size_t>(n_pp));
      EXPECT_TRUE(split.split_backward);
      for (int r = 0; r < n_pp; ++r) {
        const auto i = static_cast<size_t>(r);
        const std::string at = "pp" + std::to_string(n_pp) + " mb" +
                               std::to_string(n_mb) + " r" +
                               std::to_string(r);
        EXPECT_EQ(fb.device_ops[i],
                  expected_1f1b_ops(r, n_mb, n_pp - r, false))
            << "1f1b " << at;
        EXPECT_EQ(async.device_ops[i],
                  expected_1f1b_ops(r, n_mb, n_pp - r + 1, false))
            << "1f1b-async " << at;
        EXPECT_EQ(ub.device_ops[i],
                  expected_1f1b_ops(r, n_mb, n_pp - r, false))
            << "unbalanced " << at;
        EXPECT_EQ(ub.stage_device[i], r) << "unbalanced " << at;
        EXPECT_EQ(split.device_ops[i],
                  expected_1f1b_ops(r, n_mb, n_pp - r, true))
            << "2bp " << at;
      }
    }
  }
}

TEST(MakeSchedule, SingleDeviceRunsTheGradAccumulationOrders) {
  // N_PP = 1: bf and gpipe run Appendix C's breadth-first order, df and
  // 1f1b its depth-first order (Figure 9) - the orders the simulator and
  // the threaded backend run on one device.
  for (int n_mb = 1; n_mb <= 6; ++n_mb) {
    for (int n_loop = 1; n_loop <= 5; ++n_loop) {
      EXPECT_EQ(make_schedule(ScheduleKind::kBreadthFirst, 1, n_loop, n_mb)
                    .device_ops,
                grad_accumulation_breadth_first(n_loop, n_mb).device_ops);
      EXPECT_EQ(
          make_schedule(ScheduleKind::kDepthFirst, 1, n_loop, n_mb).device_ops,
          grad_accumulation_depth_first(n_loop, n_mb).device_ops)
          << "loop" << n_loop << " mb" << n_mb;
    }
    EXPECT_EQ(make_schedule(ScheduleKind::kGpipe, 1, 1, n_mb).device_ops,
              grad_accumulation_breadth_first(1, n_mb).device_ops);
    EXPECT_EQ(make_schedule(ScheduleKind::kOneFOneB, 1, 1, n_mb).device_ops,
              grad_accumulation_depth_first(1, n_mb).device_ops);
  }
  // The loop-count rules hold on one device too.
  for (ScheduleKind kind :
       {ScheduleKind::kGpipe, ScheduleKind::kOneFOneB,
        ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
        ScheduleKind::kTwoBP}) {
    EXPECT_THROW(make_schedule(kind, 1, 2, 4), ConfigError)
        << parallel::to_string(kind);
  }
  EXPECT_THROW(make_schedule(ScheduleKind::kVSchedule, 1, 1, 4), ConfigError);
  EXPECT_THROW(make_schedule(ScheduleKind::kVSchedule, 1, 3, 4), ConfigError);
}

TEST(ValidateZoo, CatchesStageGapInTheMap) {
  Schedule s = unbalanced(2, 2);
  s.stage_device = {0, 0};  // device 1 hosts nothing
  // Re-home the ops so ownership is consistent with the broken map; the
  // gap itself must still be rejected.
  s.device_ops[0].insert(s.device_ops[0].end(), s.device_ops[1].begin(),
                         s.device_ops[1].end());
  s.device_ops[1].clear();
  EXPECT_EQ(validate_error(s),
            "schedule: device 1 hosts no stage (stage gap)");
}

TEST(ValidateZoo, CatchesMapOutOfRange) {
  Schedule s = unbalanced(2, 2);
  s.stage_device[1] = 5;
  EXPECT_EQ(validate_error(s), "schedule: stage mapped to invalid device 5");
}

TEST(ValidateZoo, CatchesFusedSplitMixing) {
  Schedule s = two_bp(2, 2);
  for (auto& ops : s.device_ops) {
    for (Op& op : ops) {
      if (op.kind == OpKind::kBackwardInput) op.kind = OpKind::kBackward;
    }
  }
  EXPECT_EQ(validate_error(s),
            "schedule: fused backward in a split-backward schedule");
}

TEST(ValidateZoo, CatchesSplitOpsInAFusedSchedule) {
  Schedule s = gpipe(2, 2);
  s.device_ops[0].back().kind = OpKind::kBackwardInput;
  EXPECT_EQ(validate_error(s),
            "schedule: split backward op in a fused-backward schedule");
}

TEST(ValidateZoo, CatchesWeightGradBeforeInputGrad) {
  Schedule s = two_bp(1, 1);  // single device: F, B_x, B_w
  std::swap(s.device_ops[0][1], s.device_ops[0][2]);
  EXPECT_EQ(validate_error(s), "schedule: deadlock - device 0 blocked at op 1");
}

TEST(ValidateZoo, CatchesDeadlockUnderExplicitMap) {
  // Fold a 2-device pipeline (stages 0,1,2,3; device 0 hosts 0 and 3)
  // but order device 0's stage-3 forward before its stage-0 forward:
  // nothing can ever run.
  Schedule s;
  s.n_pp = 2;
  s.n_loop = 2;
  s.n_mb = 1;
  s.stage_device = {0, 1, 1, 0};
  s.device_ops = {{{OpKind::kForward, 3, 0},
                   {OpKind::kForward, 0, 0},
                   {OpKind::kBackward, 3, 0},
                   {OpKind::kBackward, 0, 0}},
                  {{OpKind::kForward, 1, 0},
                   {OpKind::kForward, 2, 0},
                   {OpKind::kBackward, 2, 0},
                   {OpKind::kBackward, 1, 0}}};
  EXPECT_EQ(validate_error(s), "schedule: deadlock - device 0 blocked at op 0");
}

TEST(ZooOpCounts, SplitBackwardCountsThreePasses) {
  const Schedule s = two_bp(4, 8);
  int total = 0;
  for (const auto& ops : s.device_ops) total += static_cast<int>(ops.size());
  EXPECT_EQ(total, s.total_ops());
  EXPECT_EQ(static_cast<int>(s.device_ops[0].size()), s.ops_per_device());
}

// Property sweep: every zoo generator stays complete and deadlock-free
// across the edge grids (n_mb < n_pp, single device, odd counts).
class ZooSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ZooSweep, AllFamiliesValid) {
  const auto [n_pp, n_mb] = GetParam();
  EXPECT_NO_THROW(validate(one_f_one_b_async(n_pp, n_mb)));
  EXPECT_NO_THROW(validate(unbalanced(n_pp, n_mb)));
  EXPECT_NO_THROW(validate(v_schedule(n_pp, n_mb)));
  EXPECT_NO_THROW(validate(two_bp(n_pp, n_mb)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZooSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 16),         // n_pp
                       ::testing::Values(1, 2, 3, 4, 8, 9, 16, 32)),  // n_mb
    [](const auto& info) {
      return "pp" + std::to_string(std::get<0>(info.param)) + "_mb" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bfpp::schedule
