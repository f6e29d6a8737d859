// Cross-cell simulation caches for the sweep hot path.
//
// Building one simulator cell used to pay three per-cell costs on top of
// the O(tasks) graph construction: kernel-model and collective
// evaluations repeated per *op* instead of per stage, the task graph
// itself rebuilt from scratch, and (pre arena/SoA) a heap allocation and
// a formatted label per task. This header holds the two caches that
// remove the first two for sweep neighbors:
//
//   OpCostTable  every duration a pipeline graph can use, evaluated once
//                per stage/device and looked up per task. Memoized under
//                op_cost_key(), which covers every input the table reads
//                *except N_mb* - so all cells of a batch-size sweep that
//                share a model x cluster pair (e.g. the fig5 grids) hit.
//
//   SimSkeleton  a fully built task graph plus one CostRef per task
//                (which table entry timed it) and the table it was timed
//                with. Memoized under sim_topology_key(), which covers
//                every input the graph *structure* depends on -
//                everything except S_mb and the kernel model, which only
//                scale durations. A cell timed by that same table (a
//                miss, or an exact repeat) runs the graph read-only; a
//                neighbor differing only in batch/micro-batch split
//                clones it and re-times it through set_duration instead
//                of rebuilding (incremental re-simulation).
//
// Both keys pack each field's raw bytes, so they format nothing.
// SimCache is shared by one api::SimulatorEngine across all cells of a
// sweep, which runs cells concurrently on the shared thread pool - so
// both maps are guarded by a bfpp::Mutex with Clang Thread Safety
// annotations (see docs/CONCURRENCY.md). Builders run outside the lock;
// when two threads race to fill the same key the first insert wins,
// which is safe because builders are deterministic functions of the key.
// Entries are immutable once inserted, and concurrent cells read them
// without a lock.
//
// Composition with api::ReportCache (server.h): ReportCache memoizes
// whole Reports keyed on the full request and never re-simulates on a
// hit; SimCache sits below it and accelerates the *misses* by sharing
// per-stage costs and graph topology across distinct requests that
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

// Which OpCostTable entry times a task. Recorded once per task at graph
// build; resolving a CostRef against a (possibly different) table is how
// the incremental path re-times a cloned skeleton.
struct CostRef {
  enum class Class : uint8_t {
    kZero = 0,        // rendezvous markers and other zero-length tasks
    kForward,         // forward[index]
    kBackward,        // backward[index]
    kBackwardInput,   // backward_input[index]
    kBackwardWeight,  // backward_weight[index]
    kGather,          // gather[index]
    kReduceScatter,   // reduce_scatter[index]
    kAllReduce,       // all_reduce[index]
    kFusedReduce,     // fused_reduce[index]
    kOptimizer,       // optimizer[index]
    kRegather,        // regather[index]
    kXferIntra,       // xfer_intra
    kXferInter,       // xfer_inter
    kBlockingIntra,   // blocking_intra
    kBlockingInter,   // blocking_inter
  };
  Class cls = Class::kZero;
  int index = -1;         // stage or device, as the class requires
  bool fs_stall = false;  // add fs_stall[index] (run-first op under DP_FS)
};

// Duration of a task timed by `ref` under `table`. Inline: graph
// emission passes a constant class at each call site, and the switch
// folds away.
[[nodiscard]] inline double resolve(const CostRef& ref,
                                    const OpCostTable& table) {
  const auto i = static_cast<size_t>(ref.index);
  double base = 0.0;
  switch (ref.cls) {
    case CostRef::Class::kZero:
      base = 0.0;
      break;
    case CostRef::Class::kForward:
      base = table.forward[i];
      break;
    case CostRef::Class::kBackward:
      base = table.backward[i];
      break;
    case CostRef::Class::kBackwardInput:
      base = table.backward_input[i];
      break;
    case CostRef::Class::kBackwardWeight:
      base = table.backward_weight[i];
      break;
    case CostRef::Class::kGather:
      base = table.gather[i];
      break;
    case CostRef::Class::kReduceScatter:
      base = table.reduce_scatter[i];
      break;
    case CostRef::Class::kAllReduce:
      base = table.all_reduce[i];
      break;
    case CostRef::Class::kFusedReduce:
      base = table.fused_reduce[i];
      break;
    case CostRef::Class::kOptimizer:
      base = table.optimizer[i];
      break;
    case CostRef::Class::kRegather:
      base = table.regather[i];
      break;
    case CostRef::Class::kXferIntra:
      base = table.xfer_intra;
      break;
    case CostRef::Class::kXferInter:
      base = table.xfer_inter;
      break;
    case CostRef::Class::kBlockingIntra:
      base = table.blocking_intra;
      break;
    case CostRef::Class::kBlockingInter:
      base = table.blocking_inter;
      break;
  }
  // Matches the pre-rework `op + op_stall` sum (op_stall == 0.0 when the op
  // is not the first of a DP_FS run), so refilled durations are
  // bit-identical to freshly built ones.
  return ref.fs_stall ? base + table.fs_stall[i] : base;
}

// A built task graph with its timing provenance: cost_refs[t] says which
// table entry produced task t's duration. Cloning the graph and
// re-resolving every ref against a new table yields the graph PipelineSim
// would have built from scratch for the new operating point.
struct SimSkeleton {
  sim::TaskGraph graph;
  std::vector<CostRef> cost_refs;  // one per task
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

  // Same contract for topology skeletons.
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
