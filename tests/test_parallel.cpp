// Tests for parallel configuration, stage placement and the device grid.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"

namespace bfpp::parallel {
namespace {

ParallelConfig paper_52b_fixed() {
  // The Figure 5a fixed configuration: N_PP = N_TP = 8, N_DP = 1.
  ParallelConfig cfg;
  cfg.n_pp = 8;
  cfg.n_tp = 8;
  cfg.n_dp = 1;
  cfg.s_mb = 1;
  cfg.n_mb = 8;
  cfg.n_loop = 4;
  cfg.schedule = ScheduleKind::kBreadthFirst;
  return cfg;
}

TEST(Config, BatchAccounting) {
  ParallelConfig cfg = paper_52b_fixed();
  EXPECT_EQ(cfg.n_gpus(), 64);
  EXPECT_EQ(cfg.n_stages(), 32);
  EXPECT_EQ(cfg.batch_size(), 8);
  EXPECT_DOUBLE_EQ(cfg.batch_per_gpu(), 0.125);  // 1/8, the paper's beta_min
}

TEST(Config, ValidAgainstPaperCluster) {
  const auto cluster = hw::dgx1_v100_infiniband();
  const auto spec = model::model_52b();
  EXPECT_NO_THROW(validate(paper_52b_fixed(), spec, cluster));
}

TEST(Config, RejectsGridClusterMismatch) {
  auto cfg = paper_52b_fixed();
  cfg.n_dp = 2;  // 128 GPUs on a 64-GPU cluster
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsTensorParallelismAcrossNodes) {
  ParallelConfig cfg;
  cfg.n_tp = 16;
  cfg.n_pp = 2;
  cfg.n_dp = 2;
  cfg.n_mb = 2;
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsMoreStagesThanLayers) {
  auto cfg = paper_52b_fixed();
  cfg.n_loop = 16;  // 128 stages > 64 layers
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsDepthFirstWithIndivisibleMicroBatches) {
  auto cfg = paper_52b_fixed();
  cfg.schedule = ScheduleKind::kDepthFirst;
  cfg.n_mb = 9;
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsNonLoopedWithLoops) {
  auto cfg = paper_52b_fixed();
  cfg.schedule = ScheduleKind::kGpipe;  // n_loop stays 4
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsShardingWithoutDataParallelism) {
  auto cfg = paper_52b_fixed();
  cfg.sharding = DpSharding::kFull;  // n_dp == 1
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, RejectsUnfilledPipeline) {
  auto cfg = paper_52b_fixed();
  cfg.n_mb = 4;  // < n_pp = 8
  EXPECT_THROW(validate(cfg, model::model_52b(), hw::dgx1_v100_infiniband()),
               ConfigError);
}

TEST(Config, MegatronFlagsDisableOverlapAndPartialSharding) {
  auto cfg = paper_52b_fixed();
  cfg.sharding = DpSharding::kPartial;
  const auto mega = with_megatron_flags(cfg);
  EXPECT_FALSE(mega.overlap_dp);
  EXPECT_FALSE(mega.overlap_pp);
  EXPECT_EQ(mega.sharding, DpSharding::kNone);
}

TEST(Config, DescribeMentionsScheduleAndSharding) {
  auto cfg = paper_52b_fixed();
  cfg.sharding = DpSharding::kFull;
  cfg.n_dp = 1;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("Breadth-first"), std::string::npos);
  EXPECT_NE(d.find("DP_FS"), std::string::npos);
}

TEST(Placement, StandardPlacementIsContiguous) {
  // Figure 3a: 16 layers, 4 devices, 1 loop.
  const StagePlacement p(16, 4, 1);
  EXPECT_EQ(p.n_stages(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(p.device_of_stage(s), s);
    EXPECT_EQ(p.layers_in_stage(s), 4);
    EXPECT_EQ(p.first_layer_of_stage(s), 4 * s);
  }
}

TEST(Placement, LoopingPlacementWrapsAround) {
  // Figure 3b: 16 layers, 4 devices, 4 loops: device 0 holds layers
  // {0, 4, 8, 12} as stages {0, 4, 8, 12}.
  const StagePlacement p(16, 4, 4);
  EXPECT_EQ(p.n_stages(), 16);
  EXPECT_EQ(p.stages_of_device(0), (std::vector<int>{0, 4, 8, 12}));
  EXPECT_EQ(p.stages_of_device(3), (std::vector<int>{3, 7, 11, 15}));
  for (int s = 0; s < 16; ++s) {
    EXPECT_EQ(p.device_of_stage(s), s % 4);
    EXPECT_EQ(p.layers_in_stage(s), 1);
    EXPECT_EQ(p.first_layer_of_stage(s), s);
  }
}

TEST(Placement, NearIdenticalSplitDistributesRemainder) {
  // 10 layers over 4 stages: 3,3,2,2.
  const StagePlacement p(10, 4, 1);
  EXPECT_EQ(p.layers_in_stage(0), 3);
  EXPECT_EQ(p.layers_in_stage(1), 3);
  EXPECT_EQ(p.layers_in_stage(2), 2);
  EXPECT_EQ(p.layers_in_stage(3), 2);
  int total = 0;
  for (int s = 0; s < 4; ++s) total += p.layers_in_stage(s);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(p.first_layer_of_stage(2), 6);
}

TEST(Placement, RejectsMoreStagesThanLayers) {
  EXPECT_THROW(StagePlacement(4, 4, 2), ConfigError);
}

TEST(Placement, UnbalancedCutsCompensateTheHead) {
  // BaPipe-style partition: with one layer-equivalent of head work on the
  // tail stage, the last stage gets fewer layers than an even split.
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_mb = 4;
  cfg.schedule = ScheduleKind::kUnbalanced;
  const StagePlacement p = StagePlacement::for_config(16, cfg, 2.0);
  int total = 0;
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(p.device_of_stage(s), s);  // identity map
    EXPECT_GE(p.layers_in_stage(s), 1);
    total += p.layers_in_stage(s);
  }
  EXPECT_EQ(total, 16);
  EXPECT_LT(p.layers_in_stage(3), 4);  // tail lighter than the even split
  // Contiguous first-layer prefix sums.
  EXPECT_EQ(p.first_layer_of_stage(0), 0);
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(p.first_layer_of_stage(s),
              p.first_layer_of_stage(s - 1) + p.layers_in_stage(s - 1));
  }
}

TEST(Placement, UnbalancedSupportsNonPowerOfTwoPipelines) {
  ParallelConfig cfg;
  cfg.n_pp = 3;
  cfg.n_mb = 3;
  cfg.schedule = ScheduleKind::kUnbalanced;
  const StagePlacement p = StagePlacement::for_config(10, cfg, 0.0);
  int total = 0;
  int most = 0;
  for (int s = 0; s < 3; ++s) {
    total += p.layers_in_stage(s);
    most = std::max(most, p.layers_in_stage(s));
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(most, 4);  // 10 over 3: 3,3,4 or 4,3,3
}

TEST(Placement, VScheduleFoldsStagesOntoDevices) {
  // Device r hosts stages r and 2*n_pp-1-r: the fold keeps both
  // directions of the V on the same device.
  ParallelConfig cfg;
  cfg.n_pp = 4;
  cfg.n_loop = 2;
  cfg.n_mb = 4;
  cfg.schedule = ScheduleKind::kVSchedule;
  const StagePlacement p = StagePlacement::for_config(16, cfg, 0.0);
  EXPECT_EQ(p.n_stages(), 8);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(p.device_of_stage(s), s < 4 ? s : 7 - s);
  }
  EXPECT_EQ(p.stages_of_device(0), (std::vector<int>{0, 7}));
  EXPECT_EQ(p.stages_of_device(3), (std::vector<int>{3, 4}));
}

// Whether pipeline ranks `a` and `b` (same dp/tp) share a node, the way
// the simulator places a pipeline link.
bool pp_ranks_share_node(const DeviceGrid& grid, int a, int b) {
  return grid.node_of_rank(grid.linear_rank(0, a, 0)) ==
         grid.node_of_rank(grid.linear_rank(0, b, 0));
}

TEST(Grid, TensorGroupsInsideNode) {
  ParallelConfig cfg;
  cfg.n_tp = 8;
  cfg.n_pp = 8;
  cfg.n_dp = 1;
  cfg.n_mb = 8;
  const DeviceGrid grid(cfg, hw::dgx1_v100_infiniband());
  EXPECT_EQ(grid.tp_group_extent(), 8);
  // With N_TP = 8, each pipeline rank is a full node: every pp link
  // crosses nodes.
  EXPECT_FALSE(pp_ranks_share_node(grid, 0, 1));
  EXPECT_FALSE(pp_ranks_share_node(grid, 7, 0));
}

TEST(Grid, PipelineNeighboursShareNodeWhenTpSmall) {
  ParallelConfig cfg;
  cfg.n_tp = 2;
  cfg.n_pp = 4;
  cfg.n_dp = 8;
  cfg.n_mb = 4;
  const DeviceGrid grid(cfg, hw::dgx1_v100_infiniband());
  // 4 pipeline ranks x 2 tensor ranks = 8 GPUs = exactly one node.
  EXPECT_TRUE(pp_ranks_share_node(grid, 0, 1));
  EXPECT_TRUE(pp_ranks_share_node(grid, 2, 3));
  EXPECT_TRUE(pp_ranks_share_node(grid, 3, 0));
}

TEST(Grid, DataParallelGroupExtent) {
  ParallelConfig cfg;
  cfg.n_tp = 2;
  cfg.n_pp = 4;
  cfg.n_dp = 8;
  cfg.n_mb = 4;
  const DeviceGrid grid(cfg, hw::dgx1_v100_infiniband());
  // Stride 8, 8 ranks -> spans 57 consecutive linear ranks (all nodes).
  EXPECT_EQ(grid.dp_group_extent(), 57);
  EXPECT_EQ(grid.linear_rank(0, 0, 0), 0);
  EXPECT_EQ(grid.linear_rank(1, 0, 0), 8);
  EXPECT_EQ(grid.node_of_rank(8), 1);
}

TEST(Grid, PureDataParallelStaysDense) {
  ParallelConfig cfg;
  cfg.n_tp = 1;
  cfg.n_pp = 1;
  cfg.n_dp = 64;
  const DeviceGrid grid(cfg, hw::dgx1_v100_infiniband());
  EXPECT_EQ(grid.dp_group_extent(), 64);
}

// ---- String round-trips ----

TEST(Parse, ScheduleKindRoundTripsEveryValue) {
  for (ScheduleKind kind :
       {ScheduleKind::kGpipe, ScheduleKind::kOneFOneB,
        ScheduleKind::kDepthFirst, ScheduleKind::kBreadthFirst,
        ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
        ScheduleKind::kVSchedule, ScheduleKind::kTwoBP}) {
    EXPECT_EQ(parse_schedule_kind(to_string(kind)), kind);
  }
}

TEST(Parse, ScheduleKindShortNamesAndCase) {
  EXPECT_EQ(parse_schedule_kind("bf"), ScheduleKind::kBreadthFirst);
  EXPECT_EQ(parse_schedule_kind("BF"), ScheduleKind::kBreadthFirst);
  EXPECT_EQ(parse_schedule_kind("df"), ScheduleKind::kDepthFirst);
  EXPECT_EQ(parse_schedule_kind("gpipe"), ScheduleKind::kGpipe);
  EXPECT_EQ(parse_schedule_kind("GPipe"), ScheduleKind::kGpipe);
  EXPECT_EQ(parse_schedule_kind("1F1B"), ScheduleKind::kOneFOneB);
  EXPECT_EQ(parse_schedule_kind("breadth_first"), ScheduleKind::kBreadthFirst);
  // The schedule-zoo families and their related-work aliases.
  EXPECT_EQ(parse_schedule_kind("1f1b-async"), ScheduleKind::kOneFOneBAsync);
  EXPECT_EQ(parse_schedule_kind("PipeDream"), ScheduleKind::kOneFOneBAsync);
  EXPECT_EQ(parse_schedule_kind("pipedream"), ScheduleKind::kOneFOneBAsync);
  EXPECT_EQ(parse_schedule_kind("bapipe"), ScheduleKind::kUnbalanced);
  EXPECT_EQ(parse_schedule_kind("v"), ScheduleKind::kVSchedule);
  EXPECT_EQ(parse_schedule_kind("V-Schedule"), ScheduleKind::kVSchedule);
  EXPECT_EQ(parse_schedule_kind("2bp"), ScheduleKind::kTwoBP);
  EXPECT_EQ(parse_schedule_kind("split-backward"), ScheduleKind::kTwoBP);
}

TEST(Parse, ScheduleKindRejectsUnknown) {
  EXPECT_THROW(parse_schedule_kind("zigzag"), ConfigError);
  EXPECT_THROW(parse_schedule_kind(""), ConfigError);
}

TEST(Parse, ShardingRoundTripsEveryValue) {
  for (DpSharding sharding :
       {DpSharding::kNone, DpSharding::kPartial, DpSharding::kFull}) {
    EXPECT_EQ(parse_sharding(to_string(sharding)), sharding);
  }
}

TEST(Parse, ShardingShortNames) {
  EXPECT_EQ(parse_sharding("none"), DpSharding::kNone);
  EXPECT_EQ(parse_sharding("ps"), DpSharding::kPartial);
  EXPECT_EQ(parse_sharding("fs"), DpSharding::kFull);
  EXPECT_EQ(parse_sharding("FULL"), DpSharding::kFull);
  EXPECT_THROW(parse_sharding("zero"), ConfigError);
}

TEST(Parse, ConfigDescribeRoundTripsExhaustively) {
  // Every (schedule, sharding, overlap) combination plus varied grid
  // sizes must survive parse(describe()) bit-exactly.
  int combos = 0;
  for (ScheduleKind kind :
       {ScheduleKind::kGpipe, ScheduleKind::kOneFOneB,
        ScheduleKind::kDepthFirst, ScheduleKind::kBreadthFirst}) {
    for (DpSharding sharding :
         {DpSharding::kNone, DpSharding::kPartial, DpSharding::kFull}) {
      for (bool overlap_dp : {false, true}) {
        for (bool overlap_pp : {false, true}) {
          ParallelConfig cfg;
          cfg.n_pp = 8;
          cfg.n_tp = 4;
          cfg.n_dp = 2;
          cfg.s_mb = 3;
          cfg.n_mb = 16;
          cfg.n_loop = 4;
          cfg.schedule = kind;
          cfg.sharding = sharding;
          cfg.overlap_dp = overlap_dp;
          cfg.overlap_pp = overlap_pp;
          EXPECT_EQ(ParallelConfig::parse(cfg.describe()), cfg)
              << cfg.describe();
          ++combos;
        }
      }
    }
  }
  EXPECT_EQ(combos, 4 * 3 * 2 * 2);
}

TEST(Parse, ConfigParseAcceptsDefaultsAndRejectsJunk) {
  // A bare schedule name parses to the default grid.
  const ParallelConfig cfg = ParallelConfig::parse("bf");
  EXPECT_EQ(cfg.schedule, ScheduleKind::kBreadthFirst);
  EXPECT_EQ(cfg.n_pp, 1);
  EXPECT_TRUE(cfg.overlap_dp);
  EXPECT_THROW(ParallelConfig::parse(""), ConfigError);
  EXPECT_THROW(ParallelConfig::parse("bf pp8 wat3"), ConfigError);
  EXPECT_THROW(ParallelConfig::parse("bf ppx"), ConfigError);
}

}  // namespace
}  // namespace bfpp::parallel
