// Pipeline training simulation: executes one training batch of a
// (model, parallel config) pair on a simulated cluster and measures the
// batch time, throughput and utilization the paper reports.
//
// The mapping from schedule to simulator follows Figure 4's stream
// layout. Per pipeline device:
//   compute stream  - forward/backward ops in the schedule's order, the
//                     optimizer step, and (when communication is not
//                     overlapped) blocking send/recv waits;
//   dp stream       - data-parallel collectives: gradient reductions and
//                     (DP_FS/DP_PS) weight all-gathers;
//   link streams    - one per directed pipeline link, serializing the
//                     activation/gradient transfers that cross devices.
//
// Key modelling rules (each mirrors a paper mechanism):
//  * DP_FS aggregation follows the *contiguous-run rule*: weights are
//    gathered once per maximal run of consecutive same-stage ops and
//    gradients reduce-scattered at the end of each backward run. This
//    reproduces Eqs. (24)-(26) emergently: breadth-first runs span the
//    whole batch (one gather per stage per pass), depth-first runs span
//    one sequence of N_PP micro-batches, and 1F1B/depth-first
//    accumulation degenerate to per-micro-batch repetition.
//  * A two-buffer LRU models the double-buffered reconstruction of
//    Appendix D.1 (compute on one buffer, gather into the other).
//  * Without DP overlap (Megatron-LM flags), the gradient reduction is a
//    single fused all-reduce on the compute stream after all backward
//    work, matching Figure 4a/4b's G row.
//  * Without PP overlap, each cross-device boundary blocks both sides:
//    the sender launches and waits for the transfer, the receiver waits
//    for it before computing - which lets transfer delays cascade around
//    the pipeline ring exactly as Section 5.2 describes.
//  * Tensor-parallel all-reduces that cannot be overlapped (two in the
//    forward pass, two in the recompute; Appendix A.3.3) are folded into
//    the compute-op durations.
//
// Hot path: every task duration is a lookup into an OpCostTable
// (runtime/sim_cache.h) evaluated once per stage/device instead of once
// per op. build_skeleton() computes the placement lookups (device of
// each stage, node of each rank) once per cell, counts the cell's tasks
// and dependencies in closed form, and emits the graph into
// sim::TaskGraph storage sized exactly to them, with static label tags:
// (stage, micro-batch) slot ids come from per-stage offsets and each
// device's contiguous runs are computed into one reused buffer. A count
// that disagrees with the emission throws. When a SimCache is attached
// (api sweeps share one per engine) cells sharing a model x cluster pair
// skip the cost evaluation, and an exact repeat runs the cached graph
// itself; every other cell builds its graph. All of this is
// semantics-preserving - simulated times are bit-identical to the
// pre-rework implementation, pinned byte-for-byte at the Report level by
// the golden corpus in tests/test_sim_diff.cpp (recorded while the
// frozen pre-rework simulator still existed to diff against).
#pragma once

#include <memory>
#include <vector>

#include "hw/cluster.h"
#include "hw/kernel_model.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/sim_cache.h"
#include "schedule/schedule.h"
#include "sim/task_graph.h"

namespace bfpp::runtime {

struct RunResult {
  double batch_time = 0.0;          // seconds per training batch
  double throughput_per_gpu = 0.0;  // useful model flop/s per GPU (Eq. 11)
  double utilization = 0.0;         // throughput / peak
  double compute_idle_fraction = 0.0;  // mean idle share of compute streams
                                       // within their busy span (bubble +
                                       // network stalls)
};

// Simulates one training batch. Exposes the task graph and simulation
// result so benches can render Figure 4/9 style timelines.
class PipelineSim {
 public:
  // `cache`, when non-null, memoizes op-cost tables and graph topology
  // across PipelineSim instances (thread-safe; see runtime/sim_cache.h).
  // Results are identical with and without it.
  PipelineSim(model::TransformerSpec spec, parallel::ParallelConfig cfg,
              hw::ClusterSpec cluster, hw::KernelModel kernel = {},
              std::shared_ptr<SimCache> cache = nullptr);

  // Builds the task graph and runs it. Throws bfpp::ConfigError /
  // bfpp::OutOfMemoryError for invalid or infeasible configurations.
  RunResult run();

  // The graph and stream accessors are valid once run() has returned.
  [[nodiscard]] const sim::TaskGraph& graph() const {
    return skeleton_->graph;
  }
  [[nodiscard]] const sim::SimResult& result() const;
  [[nodiscard]] const std::vector<sim::StreamId>& compute_streams() const {
    return skeleton_->compute_streams;
  }
  [[nodiscard]] const std::vector<sim::StreamId>& dp_streams() const {
    return skeleton_->dp_streams;
  }
  // Streams interleaved for display: compute[0], dp[0], compute[1], ...
  [[nodiscard]] std::vector<sim::StreamId> display_streams() const;

  // ---- Component cost queries (also used by tests) ----

  // Duration of one forward / backward compute op on `stage` (including
  // the non-overlapped tensor-parallel communication).
  [[nodiscard]] double forward_op_seconds(int stage) const;
  [[nodiscard]] double backward_op_seconds(int stage) const;
  // Split-backward (2BP) components. B_x is the recompute plus input
  // gradient (2/3 of the fused backward flops, all of its TP comm); B_w
  // is the weight gradient (the remaining 1/3, no extra comm). Together
  // they cost the same flops as the fused backward.
  [[nodiscard]] double backward_input_op_seconds(int stage) const;
  [[nodiscard]] double backward_weight_op_seconds(int stage) const;
  // Per-GPU payload bytes of one stage's gradients / weights.
  [[nodiscard]] double stage_payload_bytes(int stage) const;
  // Bytes of the boundary activation a pipeline transfer moves.
  [[nodiscard]] double boundary_bytes() const;

 private:
  void build();
  // Evaluates every cost the graph can reference (one kernel-model and
  // collective evaluation per stage/device - the memoizable unit).
  [[nodiscard]] OpCostTable build_cost_table() const;
  // Emits the task graph, sized exactly, with durations read from
  // `table_`.
  [[nodiscard]] SimSkeleton build_skeleton() const;
  [[nodiscard]] double stage_flops(int stage, bool forward) const;
  [[nodiscard]] double tp_comm_seconds() const;

  model::TransformerSpec spec_;
  parallel::ParallelConfig cfg_;
  hw::ClusterSpec cluster_;
  hw::KernelModel kernel_;
  parallel::StagePlacement placement_;

  std::shared_ptr<SimCache> cache_;
  std::shared_ptr<const OpCostTable> table_;
  std::shared_ptr<const SimSkeleton> skeleton_;  // null until built
  std::unique_ptr<sim::SimResult> result_;
};

// Convenience wrapper: build, run, summarize.
RunResult simulate_batch(const model::TransformerSpec& spec,
                         const parallel::ParallelConfig& cfg,
                         const hw::ClusterSpec& cluster);

}  // namespace bfpp::runtime
