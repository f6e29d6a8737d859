// Parallel configuration: the 3-D device grid (N_DP x N_TP x N_PP),
// micro-batching, schedule selection and data-parallel sharding mode.
//
// Terminology follows the paper's Table A.1:
//   N_DP / N_TP / N_PP   data/tensor/pipeline-parallel group sizes
//   S_mb                 micro-batch size (samples)
//   N_mb                 sequential micro-batches
//   N_loop               stages per device, N_stage = N_PP * N_loop
//   B                    batch size = N_DP * N_mb * S_mb
//   beta                 batch size per GPU = B / N_GPU
#pragma once

#include <string>
#include <vector>

#include "common/strings.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace bfpp::parallel {

// Pipeline schedule. GPipe and 1F1B are the non-looped baselines
// (Section 3.2); depth-first is the Megatron-LM interleaved schedule of
// Narayanan et al.; breadth-first is the paper's contribution. The last
// four are rival families from the related work (see docs/SCHEDULES.md):
// PipeDream's async-ordered 1F1B, BaPipe's unbalanced stage partitioning,
// the controllable-memory V-schedule of Qi et al., and 2BP's split
// backward with deferred weight gradients.
enum class ScheduleKind {
  kGpipe,
  kOneFOneB,
  kDepthFirst,
  kBreadthFirst,
  kOneFOneBAsync,
  kUnbalanced,
  kVSchedule,
  kTwoBP,
};

// Data-parallel sharding (Section 3.1 / ZeRO stages).
enum class DpSharding {
  kNone,     // DP_0: full replication, gradient all-reduce
  kPartial,  // DP_PS (ZeRO-2): sharded optimizer state
  kFull,     // DP_FS (ZeRO-3): sharded weights, gathered per use
};

const char* to_string(ScheduleKind kind);
const char* to_string(DpSharding sharding);

// Inverse of to_string. Case-insensitive; also accepts the common short
// names ("bf", "df", "gpipe", "1f1b"; "none"/"dp0", "ps"/"partial",
// "fs"/"full"). Throws bfpp::ConfigError on unknown input, listing the
// accepted names.
ScheduleKind parse_schedule_kind(const std::string& text);
DpSharding parse_sharding(const std::string& text);

struct ParallelConfig {
  int n_dp = 1;
  int n_tp = 1;
  int n_pp = 1;
  int s_mb = 1;
  int n_mb = 1;
  int n_loop = 1;
  ScheduleKind schedule = ScheduleKind::kBreadthFirst;
  DpSharding sharding = DpSharding::kNone;

  // Implementation capability flags. The paper's own implementation
  // overlaps both kinds of communication; Megatron-LM (its baseline for
  // 1F1B and depth-first) overlaps neither (Section 5, footnote 5).
  bool overlap_dp = true;  // overlap grad-reduce / weight-gather w/ compute
  bool overlap_pp = true;  // asynchronous pipeline sends/receives

  [[nodiscard]] int n_gpus() const { return n_dp * n_tp * n_pp; }
  [[nodiscard]] int n_stages() const { return n_pp * n_loop; }
  [[nodiscard]] int batch_size() const { return n_dp * n_mb * s_mb; }
  [[nodiscard]] double batch_per_gpu() const {
    return static_cast<double>(batch_size()) / n_gpus();
  }
  [[nodiscard]] bool looped() const { return n_loop > 1; }

  // Short human-readable description, e.g.
  // "Breadth-first pp8 tp8 dp1 smb1 nmb8 loop4 DP_FS".
  [[nodiscard]] std::string describe() const;
  // Writes describe() to `out` (cache keys embed it without a copy).
  void describe(StringWriter& out) const;

  // Inverse of describe(): parses "<schedule> pp8 tp8 dp1 smb1 nmb8
  // loop4 <sharding> [no-dp-overlap] [no-pp-overlap]" (tokens may appear
  // in any order after the schedule). Guarantees
  // parse(cfg.describe()) == cfg for every valid config. Throws
  // bfpp::ConfigError on malformed input.
  static ParallelConfig parse(const std::string& text);

  friend bool operator==(const ParallelConfig&, const ParallelConfig&) = default;
};

// Returns the Megatron-LM behavioural variant of `cfg` (no overlap, no
// sharding), used to model the paper's 1F1B / depth-first baselines.
ParallelConfig with_megatron_flags(ParallelConfig cfg);

// Checks that `cfg` is structurally valid for `spec` on `cluster`:
// stages divide layers, the grid fits the cluster, N_TP fits a node,
// the depth-first constraint N_mb % N_PP == 0 (Section 4.1), non-looped
// schedules have N_loop == 1, and N_mb >= N_PP so the pipeline can fill
// (Section 3.2). Throws bfpp::ConfigError explaining the violation.
void validate(const ParallelConfig& cfg, const model::TransformerSpec& spec,
              const hw::ClusterSpec& cluster);

// ---- Stage placement (Figure 3) ----

// Placement of N_stage = N_PP * N_loop stages on N_PP devices. The
// default placement puts stage s on device s % N_PP (the looping
// placement of Figure 3b; with N_loop == 1 this reduces to the standard
// placement of Figure 3a) and splits layers near-evenly. An explicit
// placement lifts both assumptions: any stage->device map (V-schedules
// fold the pipeline so device r hosts stages r and 2*N_PP-1-r) and any
// uneven layer split (BaPipe-style compute balancing).
class StagePlacement {
 public:
  StagePlacement(int n_layers, int n_pp, int n_loop);
  // Explicit placement: `device_of_stage` maps every stage to its device
  // and `layers_in_stage` gives its (>= 1) layer count, summing to
  // `n_layers`. Every device must host at least one stage.
  StagePlacement(int n_layers, int n_pp, int n_loop,
                 std::vector<int> device_of_stage,
                 std::vector<int> layers_in_stage);

  // Placement implied by `cfg.schedule`: the looping default for the
  // paper's schedules, folded (V) or compute-balanced uneven (unbalanced)
  // for the rival families. `tail_extra_layers` is the cost of the
  // language-model head in layer-equivalents; the unbalanced partition
  // gives the last stage correspondingly fewer layers.
  static StagePlacement for_config(int n_layers, const ParallelConfig& cfg,
                                   double tail_extra_layers = 0.0);

  [[nodiscard]] int n_stages() const { return n_pp_ * n_loop_; }
  [[nodiscard]] int n_pp() const { return n_pp_; }
  [[nodiscard]] int n_loop() const { return n_loop_; }

  // Device hosting stage `s`.
  [[nodiscard]] int device_of_stage(int stage) const;
  // Stages hosted by device `r`, in execution (loop) order.
  [[nodiscard]] std::vector<int> stages_of_device(int device) const;
  // Number of transformer layers in stage `s` (near-identical split:
  // remainder layers go to the earliest stages) unless an explicit
  // partition was given.
  [[nodiscard]] int layers_in_stage(int stage) const;
  // First layer index of stage `s`.
  [[nodiscard]] int first_layer_of_stage(int stage) const;
  // Stage->device map in Schedule form: empty for the looping default.
  [[nodiscard]] const std::vector<int>& explicit_device_map() const {
    return device_map_;
  }

 private:
  int n_layers_;
  int n_pp_;
  int n_loop_;
  std::vector<int> device_map_;   // empty => stage % n_pp
  std::vector<int> layers_;       // empty => near-even split
  std::vector<int> first_layer_;  // prefix sums of layers_ (same emptiness)
};

// ---- Device grid topology ----

// Maps the logical (dp, pp, tp) grid onto cluster nodes. Ranks are laid
// out tp-innermost, then pp, then dp (the Megatron-LM order): tensor
// groups always sit inside one node, pipeline neighbours share a node
// when N_TP * N_PP fits, and data-parallel groups span nodes at scale.
class DeviceGrid {
 public:
  DeviceGrid(const ParallelConfig& cfg, const hw::ClusterSpec& cluster);

  [[nodiscard]] int linear_rank(int dp, int pp, int tp) const;
  [[nodiscard]] int node_of_rank(int rank) const;

  // Number of consecutive linear ranks spanned by a data-parallel group;
  // used to pick the network tier bounding DP collectives.
  [[nodiscard]] int dp_group_extent() const;
  // Members of one data-parallel group living in the same node. NCCL's
  // hierarchical rings let k co-located members share the node's NVLink
  // before touching the inter-node fabric, multiplying the effective
  // per-GPU inter-node collective bandwidth by k.
  [[nodiscard]] int dp_members_per_node() const;
  // Same for a tensor-parallel group (always <= node size by validation).
  [[nodiscard]] int tp_group_extent() const { return cfg_.n_tp; }

 private:
  ParallelConfig cfg_;
  int gpus_per_node_;
};

// The network tier data-parallel collectives run over. When several
// DP-group members share a node, NCCL's hierarchical rings aggregate
// them over NVLink before crossing the inter-node fabric, multiplying
// the effective per-GPU inter-node bandwidth (capped by NVLink itself).
hw::NetTier effective_dp_tier(const DeviceGrid& grid,
                              const hw::ClusterSpec& cluster);

}  // namespace bfpp::parallel
