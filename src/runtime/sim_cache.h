// Cross-cell simulation caches for the sweep hot path.
//
// Two memos shared by the cells of a sweep: per-stage costs, so the
// kernel-model and collective evaluations run once per model x cluster
// pair instead of once per cell, and whole task graphs, so an exact
// repeat skips graph construction:
//
//   OpCostTable  every duration a pipeline graph can use, evaluated once
//                per stage/device and looked up per task. Memoized under
//                op_cost_key(), which covers every input the table reads
//                *except N_mb* - so all cells of a batch-size sweep that
//                share a model x cluster pair (e.g. the fig5 grids) hit.
//
//   SimSkeleton  a fully built task graph and the table it was timed
//                with. Memoized under sim_topology_key(), which covers
//                every input the graph *structure* depends on -
//                everything except S_mb and the kernel model, which only
//                scale durations. A cell timed by that same table (a
//                miss, or an exact repeat) runs the cached graph
//                read-only; a cell whose table differs (an S_mb or
//                kernel neighbour) builds its own graph, uncached.
//
// Both keys pack each field's raw bytes, so they format nothing.
// SimCache is shared by one api::SimulatorEngine across all cells of a
// sweep, which runs cells concurrently on the shared thread pool - so
// both maps are guarded by a bfpp::Mutex with Clang Thread Safety
// annotations (see docs/CONCURRENCY.md). Builders run outside the lock;
// when two threads race to fill the same key the first insert wins. That
// is safe because a table is a deterministic function of its key, and a
// skeleton's graph structure of its key; a cell that gets a skeleton
// timed with another table builds its own graph instead.
// Entries are immutable once inserted, and concurrent cells read them
// without a lock.
//
// Composition with api::ReportCache (server.h): ReportCache memoizes
// whole Reports keyed on the full request and never re-simulates on a
// hit; SimCache sits below it and accelerates the *misses* by sharing
// per-stage costs and whole graphs across distinct requests that
// ReportCache must treat as unrelated.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "hw/cluster.h"
#include "hw/kernel_model.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "sim/task_graph.h"

namespace bfpp::runtime {

// Every duration a pipeline task graph draws from, pre-evaluated per
// stage (index = pipeline stage) or per device (index = pipeline rank).
// Built by PipelineSim from the same cost expressions the pre-rework
// per-op path evaluated, so looked-up durations are bit-identical to it.
struct OpCostTable {
  // Per stage.
  std::vector<double> forward;          // F op seconds (incl. TP comm)
  std::vector<double> backward;         // fused B op seconds
  std::vector<double> backward_input;   // 2BP B_x op seconds
  std::vector<double> backward_weight;  // 2BP B_w op seconds
  std::vector<double> gather;           // DP_FS weight all-gather seconds
  std::vector<double> reduce_scatter;   // per-stage grad reduce-scatter
  std::vector<double> all_reduce;       // per-stage grad all-reduce (DP_0)
  std::vector<double> fs_stall;         // DP_FS reconstruction stall
  // Per device.
  std::vector<double> fused_reduce;     // blocking fused all-reduce
  std::vector<double> optimizer;        // optimizer step seconds
  std::vector<double> regather;         // DP_PS post-update weight gather
  // Per link tier (boundary transfers).
  double xfer_intra = 0.0;      // sync + wire time, intra-node link
  double xfer_inter = 0.0;      // sync + wire time, inter-node link
  double blocking_intra = 0.0;  // blocking-p2p per-side overhead, intra
  double blocking_inter = 0.0;  // blocking-p2p per-side overhead, inter
};

// A built task graph, the streams PipelineSim reads results from, and
// the table its durations came from. A cell runs a cached skeleton's
// graph only when its own table is that same table.
struct SimSkeleton {
  sim::TaskGraph graph;
  std::vector<sim::StreamId> compute_streams;
  std::vector<sim::StreamId> dp_streams;
  std::shared_ptr<const OpCostTable> table;  // the table graph is timed with
};

// Cache key covering every OpCostTable input except N_mb.
[[nodiscard]] std::string op_cost_key(const model::TransformerSpec& spec,
                                      const parallel::ParallelConfig& cfg,
                                      const hw::ClusterSpec& cluster,
                                      const hw::KernelModel& kernel);

// Cache key covering every graph-structure input except S_mb and the
// kernel model (pure duration scalers).
[[nodiscard]] std::string sim_topology_key(const model::TransformerSpec& spec,
                                           const parallel::ParallelConfig& cfg,
                                           const hw::ClusterSpec& cluster);

// Thread-safe memo shared across the cells of a sweep (one per
// api::SimulatorEngine). See the header comment for the locking story.
class SimCache {
 public:
  struct Stats {
    int64_t cost_hits = 0;
    int64_t cost_misses = 0;
    int64_t skeleton_hits = 0;
    int64_t skeleton_misses = 0;
  };

  // Returns the table cached under `key`, building it with `build`
  // (outside the lock) on a miss. The builder must be a deterministic
  // function of the key.
  std::shared_ptr<const OpCostTable> costs(
      const std::string& key, const std::function<OpCostTable()>& build);

  // Same contract for topology skeletons, except that the table a cached
  // skeleton was timed with may differ from the caller's.
  std::shared_ptr<const SimSkeleton> skeleton(
      const std::string& key, const std::function<SimSkeleton()>& build);

  [[nodiscard]] Stats stats() const;

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const OpCostTable>> costs_
      BFPP_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<const SimSkeleton>>
      skeletons_ BFPP_GUARDED_BY(mu_);
  Stats stats_ BFPP_GUARDED_BY(mu_);
};

}  // namespace bfpp::runtime
