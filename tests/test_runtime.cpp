// Tests for the pipeline runtime simulation: schedule behaviour, overlap
// effects, DP_FS aggregation, and the paper's qualitative claims.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/error.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"
#include "schedule/schedule.h"
#include "sim/task_graph.h"

namespace bfpp::runtime {
namespace {

using parallel::DpSharding;
using parallel::ParallelConfig;
using parallel::ScheduleKind;

const hw::ClusterSpec& cluster() {
  static const hw::ClusterSpec c = hw::dgx1_v100_infiniband();
  return c;
}

ParallelConfig fig5a_config(ScheduleKind kind, int n_loop, int n_mb) {
  ParallelConfig cfg;
  cfg.n_pp = 8;
  cfg.n_tp = 8;
  cfg.n_dp = 1;
  cfg.s_mb = 1;
  cfg.n_mb = n_mb;
  cfg.n_loop = n_loop;
  cfg.schedule = kind;
  return cfg;
}

TEST(Runtime, UtilizationIsSane) {
  const auto r = simulate_batch(model::model_52b(),
                                fig5a_config(ScheduleKind::kBreadthFirst, 4, 16),
                                cluster());
  EXPECT_GT(r.utilization, 0.2);
  EXPECT_LT(r.utilization, 0.65);  // below the kernel-model ceiling
  EXPECT_GT(r.batch_time, 0.0);
  EXPECT_DOUBLE_EQ(r.throughput_per_gpu,
                   r.utilization * cluster().gpu.peak_flops);
}

TEST(Runtime, LoopingShrinksTheBubble) {
  // Eq. 9: the bubble falls as N_loop grows, so breadth-first with loops
  // beats non-looped GPipe at a small batch size.
  const auto spec = model::model_52b();
  const auto gp =
      simulate_batch(spec, fig5a_config(ScheduleKind::kGpipe, 1, 16), cluster());
  const auto bf2 = simulate_batch(
      spec, fig5a_config(ScheduleKind::kBreadthFirst, 2, 16), cluster());
  const auto bf4 = simulate_batch(
      spec, fig5a_config(ScheduleKind::kBreadthFirst, 4, 16), cluster());
  EXPECT_GT(bf2.utilization, gp.utilization);
  EXPECT_GT(bf4.utilization, bf2.utilization);
}

TEST(Runtime, DepthFirstLoopingCollapsesUnderNetworkOverhead) {
  // Section 5.2 / Figure 6: the Megatron-LM depth-first schedule loses
  // from looping at N_loop = 8 because of blocking communication.
  const auto spec = model::model_52b();
  const auto df1 = simulate_batch(
      spec,
      parallel::with_megatron_flags(fig5a_config(ScheduleKind::kOneFOneB, 1, 64)),
      cluster());
  const auto df8 = simulate_batch(
      spec,
      parallel::with_megatron_flags(
          fig5a_config(ScheduleKind::kDepthFirst, 8, 64)),
      cluster());
  EXPECT_LT(df8.utilization, df1.utilization);
  // The paper measures ~40% overhead (30% vs 43% utilization).
  EXPECT_GT(df1.utilization / df8.utilization, 1.2);
}

TEST(Runtime, BreadthFirstBeatsDepthFirstAtSmallBatch) {
  // The headline comparison (Figure 5a / 6a shape).
  const auto spec = model::model_52b();
  const auto bf = simulate_batch(
      spec, fig5a_config(ScheduleKind::kBreadthFirst, 4, 16), cluster());
  const auto df = simulate_batch(
      spec,
      parallel::with_megatron_flags(
          fig5a_config(ScheduleKind::kDepthFirst, 4, 16)),
      cluster());
  EXPECT_GT(bf.utilization, 1.1 * df.utilization);
}

TEST(Runtime, PipelineOverlapHelps) {
  // Our GPipe (overlapped p2p) vs the same schedule with blocking
  // communication: overlap must win.
  const auto spec = model::model_52b();
  auto cfg = fig5a_config(ScheduleKind::kGpipe, 1, 16);
  const auto ours = simulate_batch(spec, cfg, cluster());
  cfg.overlap_pp = false;
  const auto blocking = simulate_batch(spec, cfg, cluster());
  EXPECT_GT(ours.utilization, blocking.utilization);
}

TEST(Runtime, DpOverlapHelps) {
  // Figure 4 / Figure 2b: overlapping the gradient reduction with
  // backward compute beats a fused post-hoc reduction.
  auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_tp = 2;
  cfg.n_dp = 8;
  cfg.s_mb = 1;
  cfg.n_mb = 8;
  cfg.n_loop = 4;
  cfg.schedule = ScheduleKind::kBreadthFirst;
  const auto overlapped = simulate_batch(spec, cfg, cluster());
  cfg.overlap_dp = false;
  const auto fused = simulate_batch(spec, cfg, cluster());
  EXPECT_GT(overlapped.utilization, fused.utilization);
}

TEST(Runtime, MoreMicroBatchesImproveNonLoopedUtilization) {
  // Eq. 4: bubble ~ (N_PP-1)/N_mb.
  const auto spec = model::model_52b();
  double prev = 0.0;
  for (int n_mb : {8, 16, 32, 64}) {
    const auto r = simulate_batch(
        spec, fig5a_config(ScheduleKind::kGpipe, 1, n_mb), cluster());
    EXPECT_GT(r.utilization, prev) << "n_mb=" << n_mb;
    prev = r.utilization;
  }
}

TEST(Runtime, FullShardingAggregation) {
  // DP_FS with breadth-first: the contiguous-run rule means weight
  // gathers happen per stage, not per micro-batch, so doubling N_mb
  // must not double the dp-stream traffic.
  auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 2;
  cfg.n_tp = 1;
  cfg.n_dp = 32;
  cfg.s_mb = 1;
  cfg.n_mb = 4;
  cfg.n_loop = 8;
  cfg.schedule = ScheduleKind::kBreadthFirst;
  cfg.sharding = DpSharding::kFull;

  PipelineSim sim_a(spec, cfg, cluster());
  sim_a.run();
  double busy_a = 0.0;
  for (auto s : sim_a.dp_streams()) busy_a += sim_a.result().stream(s).busy;

  cfg.n_mb = 8;
  PipelineSim sim_b(spec, cfg, cluster());
  sim_b.run();
  double busy_b = 0.0;
  for (auto s : sim_b.dp_streams()) busy_b += sim_b.result().stream(s).busy;

  EXPECT_NEAR(busy_a, busy_b, busy_a * 0.05);
}

TEST(Runtime, OneFOneBWithFullShardingRepeatsNetworkOps) {
  // Eq. 24 vs Eq. 26: with 1F1B the forward/backward alternation breaks
  // the contiguous runs, so FS traffic grows with N_mb.
  auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_tp = 2;
  cfg.n_dp = 8;
  cfg.s_mb = 1;
  cfg.n_mb = 4;
  cfg.n_loop = 1;
  cfg.schedule = ScheduleKind::kOneFOneB;
  cfg.sharding = DpSharding::kFull;

  PipelineSim sim_a(spec, cfg, cluster());
  sim_a.run();
  double busy_a = 0.0;
  for (auto s : sim_a.dp_streams()) busy_a += sim_a.result().stream(s).busy;

  cfg.n_mb = 8;
  PipelineSim sim_b(spec, cfg, cluster());
  sim_b.run();
  double busy_b = 0.0;
  for (auto s : sim_b.dp_streams()) busy_b += sim_b.result().stream(s).busy;

  EXPECT_GT(busy_b, 1.5 * busy_a);
}

TEST(Runtime, TensorParallelismAddsOverhead) {
  // Same 64-GPU budget: N_TP=8 pays all-reduce and narrow-GEMM costs that
  // N_TP=2 avoids (Section 5.3: high TP overhead "even for this model").
  const auto spec = model::model_52b();
  ParallelConfig wide;  // N_TP=8
  wide.n_pp = 8;
  wide.n_tp = 8;
  wide.n_dp = 1;
  wide.n_mb = 64;
  wide.s_mb = 1;
  wide.n_loop = 4;
  wide.schedule = ScheduleKind::kBreadthFirst;
  ParallelConfig narrow = wide;  // N_TP=2, DP makes up the budget
  narrow.n_tp = 2;
  narrow.n_dp = 4;
  narrow.n_mb = 16;
  narrow.sharding = DpSharding::kFull;
  narrow.n_loop = 8;
  const auto r_wide = simulate_batch(spec, wide, cluster());
  const auto r_narrow = simulate_batch(spec, narrow, cluster());
  EXPECT_GT(r_narrow.utilization, r_wide.utilization);
}

TEST(Runtime, EthernetHurtsMoreWithoutOverlap) {
  // Section 4.3: slow networks amplify the value of overlap.
  const auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_tp = 2;
  cfg.n_dp = 8;
  cfg.s_mb = 1;
  cfg.n_mb = 8;
  cfg.n_loop = 4;
  cfg.schedule = ScheduleKind::kBreadthFirst;
  cfg.n_mb = 64;  // T_comp ~ T_net: the regime where overlap matters
  const auto eth = hw::dgx1_v100_ethernet();
  const auto ours = simulate_batch(spec, cfg, eth);
  const auto mega = simulate_batch(
      spec, parallel::with_megatron_flags(
                parallel::ParallelConfig{cfg.n_dp, cfg.n_tp, cfg.n_pp,
                                         cfg.s_mb, cfg.n_mb, cfg.n_loop,
                                         ScheduleKind::kDepthFirst}),
      eth);
  EXPECT_GT(ours.utilization, 1.15 * mega.utilization);
}

TEST(Runtime, SingleDeviceGradAccumulationRuns) {
  // Appendix C / Figure 9 scenarios: N_PP = 1 with stages = layers.
  auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 1;
  cfg.n_tp = 2;
  cfg.n_dp = 32;
  cfg.s_mb = 2;
  cfg.n_mb = 4;
  cfg.n_loop = spec.n_layers;
  cfg.schedule = ScheduleKind::kBreadthFirst;
  cfg.sharding = DpSharding::kFull;
  const auto bf = simulate_batch(spec, cfg, cluster());
  EXPECT_GT(bf.utilization, 0.1);

  cfg.schedule = ScheduleKind::kDepthFirst;
  const auto df = simulate_batch(spec, cfg, cluster());
  // Figure 9: breadth-first gradient accumulation with DP_FS avoids the
  // per-micro-batch network repetition.
  EXPECT_GT(bf.utilization, df.utilization);
}

TEST(Runtime, SingleDeviceRunsTheGradAccumulationOrders) {
  // With N_PP = 1 the compute stream runs Appendix C's orders: bf and
  // gpipe the breadth-first one, df and 1f1b the depth-first one.
  struct Case {
    ScheduleKind kind;
    int n_loop;
    bool breadth_first;
  };
  for (const Case& c : {Case{ScheduleKind::kBreadthFirst, 4, true},
                        Case{ScheduleKind::kGpipe, 1, true},
                        Case{ScheduleKind::kDepthFirst, 4, false},
                        Case{ScheduleKind::kOneFOneB, 1, false}}) {
    ParallelConfig cfg;
    cfg.n_pp = 1;
    cfg.n_tp = 2;
    cfg.n_dp = 32;
    cfg.s_mb = 2;
    cfg.n_mb = 3;
    cfg.n_loop = c.n_loop;
    cfg.schedule = c.kind;
    cfg.sharding = DpSharding::kFull;
    PipelineSim sim(model::model_6_6b(), cfg, cluster());
    sim.run();
    const schedule::Schedule want =
        c.breadth_first
            ? schedule::grad_accumulation_breadth_first(c.n_loop, cfg.n_mb)
            : schedule::grad_accumulation_depth_first(c.n_loop, cfg.n_mb);
    std::vector<schedule::Op> got;
    for (const sim::TaskId t :
         sim.graph().stream_tasks(sim.compute_streams()[0])) {
      const sim::TaskMeta& meta = sim.graph().meta(t);
      if (meta.kind == sim::TaskKind::kForward) {
        got.push_back({schedule::OpKind::kForward, meta.stage,
                       meta.micro_batch});
      } else if (meta.kind == sim::TaskKind::kBackward) {
        got.push_back({schedule::OpKind::kBackward, meta.stage,
                       meta.micro_batch});
      }
    }
    EXPECT_EQ(got, want.device_ops[0]) << parallel::to_string(c.kind);
  }
}

TEST(Runtime, RejectsInvalidCombinations) {
  const auto spec = model::model_52b();
  // FS without DP overlap (Megatron cannot do FS).
  auto cfg = fig5a_config(ScheduleKind::kBreadthFirst, 4, 16);
  cfg.n_dp = 1;
  cfg.sharding = DpSharding::kFull;
  EXPECT_THROW(simulate_batch(spec, cfg, cluster()), ConfigError);
}

TEST(Runtime, ThrowsOutOfMemory) {
  auto cfg = fig5a_config(ScheduleKind::kGpipe, 1, 1024);
  // GPipe checkpoints at n_mb=1024 blow the 32 GB budget.
  EXPECT_THROW(simulate_batch(model::model_52b(), cfg, cluster()),
               OutOfMemoryError);
}

TEST(Runtime, ComponentCostQueries) {
  PipelineSim sim(model::model_52b(),
                  fig5a_config(ScheduleKind::kBreadthFirst, 4, 16), cluster());
  // Backward (with recompute) ~3x forward per stage.
  const double f = sim.forward_op_seconds(0);
  const double b = sim.backward_op_seconds(0);
  EXPECT_GT(b, 2.0 * f);
  EXPECT_LT(b, 3.5 * f);
  // Boundary activation: 2 bytes * seq * hidden * s_mb / n_tp.
  EXPECT_DOUBLE_EQ(sim.boundary_bytes(), 2.0 * 1024 * 8192 / 8.0);
  // Stage 0 carries the embedding payload.
  EXPECT_GT(sim.stage_payload_bytes(0), sim.stage_payload_bytes(1));
}

TEST(Runtime, TimelineAccessorsWork) {
  PipelineSim sim(model::model_52b(),
                  fig5a_config(ScheduleKind::kBreadthFirst, 4, 8), cluster());
  EXPECT_THROW(sim.result(), Error);  // before run()
  sim.run();
  EXPECT_NO_THROW(sim.result());
  EXPECT_EQ(sim.compute_streams().size(), 8u);
  EXPECT_EQ(sim.display_streams().size(), 16u);
  EXPECT_GT(sim.graph().task_count(), 0);
}

// ---- Schedule zoo: the rival families through the simulator ----

ParallelConfig zoo_config(ScheduleKind kind) {
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_tp = 2;
  cfg.n_dp = 8;
  cfg.s_mb = 1;
  cfg.n_mb = 8;
  cfg.n_loop = kind == ScheduleKind::kVSchedule ? 2 : 1;
  cfg.schedule = kind;
  return cfg;
}

TEST(Zoo, AllFamiliesSimulateCleanly) {
  const auto spec = model::model_6_6b();
  for (ScheduleKind kind :
       {ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
        ScheduleKind::kVSchedule, ScheduleKind::kTwoBP}) {
    const auto r = simulate_batch(spec, zoo_config(kind), cluster());
    EXPECT_GT(r.utilization, 0.05) << parallel::to_string(kind);
    EXPECT_LT(r.utilization, 0.7) << parallel::to_string(kind);
  }
}

TEST(Zoo, SplitBackwardConservesWork) {
  // 2BP's B_x + B_w must cost exactly the fused backward: the split
  // moves work later, it does not create or destroy any.
  PipelineSim sim(model::model_6_6b(), zoo_config(ScheduleKind::kTwoBP),
                  cluster());
  const double b = sim.backward_op_seconds(0);
  const double bx = sim.backward_input_op_seconds(0);
  const double bw = sim.backward_weight_op_seconds(0);
  EXPECT_GT(bx, bw);  // B_x carries the recompute and all TP comm
  EXPECT_GT(bw, 0.0);
  EXPECT_NEAR(bx + bw, b, 1e-9 * b);
}

TEST(Zoo, TwoBPShrinksTheBubbleAgainstAsync1F1B) {
  // The deferred weight gradient fills the cooldown: same dependency
  // structure as 1F1B-async, smaller bubble (the memory cost of the
  // tradeoff is asserted in the memory-model tests).
  const auto spec = model::model_6_6b();
  const auto async_r =
      simulate_batch(spec, zoo_config(ScheduleKind::kOneFOneBAsync), cluster());
  const auto two_bp_r =
      simulate_batch(spec, zoo_config(ScheduleKind::kTwoBP), cluster());
  EXPECT_LT(two_bp_r.compute_idle_fraction, async_r.compute_idle_fraction);
  EXPECT_GT(two_bp_r.utilization, async_r.utilization);
}

TEST(Zoo, UnbalancedRunsNonPowerOfTwoPipelines) {
  // 3 nodes, N_PP = 3: a placement the power-of-two families cannot use.
  ParallelConfig cfg;
  cfg.n_pp = 3;
  cfg.n_tp = 8;
  cfg.n_dp = 1;
  cfg.s_mb = 1;
  cfg.n_mb = 6;
  cfg.schedule = ScheduleKind::kUnbalanced;
  const auto r =
      simulate_batch(model::model_6_6b(), cfg, hw::dgx1_v100_infiniband(3));
  EXPECT_GT(r.utilization, 0.05);
}

// ---- Parameterized sweep: every schedule/sharding combo must simulate
// without deadlock and produce a positive utilization.
class RuntimeSweep
    : public ::testing::TestWithParam<std::tuple<ScheduleKind, DpSharding>> {};

TEST_P(RuntimeSweep, SimulatesCleanly) {
  const auto [kind, sharding] = GetParam();
  auto spec = model::model_6_6b();
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_tp = 2;
  cfg.n_dp = 8;
  cfg.s_mb = 1;
  cfg.n_mb = 8;
  cfg.n_loop =
      (kind == ScheduleKind::kGpipe || kind == ScheduleKind::kOneFOneB) ? 1 : 4;
  cfg.schedule = kind;
  cfg.sharding = sharding;
  if (sharding == DpSharding::kFull) cfg.overlap_dp = true;
  const auto r = simulate_batch(spec, cfg, cluster());
  EXPECT_GT(r.utilization, 0.05);
  EXPECT_LT(r.utilization, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, RuntimeSweep,
    ::testing::Combine(::testing::Values(ScheduleKind::kGpipe,
                                         ScheduleKind::kOneFOneB,
                                         ScheduleKind::kDepthFirst,
                                         ScheduleKind::kBreadthFirst),
                       ::testing::Values(DpSharding::kNone,
                                         DpSharding::kPartial,
                                         DpSharding::kFull)),
    [](const auto& info) {
      std::string name =
          std::string(parallel::to_string(std::get<0>(info.param))) + "_" +
          parallel::to_string(std::get<1>(info.param));
      std::erase_if(name, [](char c) { return c == '-' || c == '_'; });
      return name;
    });

}  // namespace
}  // namespace bfpp::runtime
