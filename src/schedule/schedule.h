// Pipeline-parallel training schedules (the paper's core subject).
//
// A Schedule is, for each pipeline device, the exact order in which that
// device runs its compute work: Forward(stage, micro_batch) and
// Backward(stage, micro_batch) operations. By default stages are placed
// with the looping placement of Figure 3b (stage s on device s mod N_PP),
// so with N_loop == 1 the generators below reduce to the classic
// non-looped schedules:
//
//   breadth_first(n_pp, 1, n_mb)  == GPipe          (Figure 4a)
//   depth_first(n_pp, 1, n_mb)    == 1F1B           (Figure 4b)
//   depth_first(n_pp, L, n_mb)    == Megatron-LM interleaved (Figure 4c)
//   breadth_first(n_pp, L, n_mb)  == the paper's contribution (Figure 4d)
//
// Beyond the paper's generators, this module holds rival schedule
// families from the related work (docs/SCHEDULES.md):
//
//   one_f_one_b_async(n_pp, n_mb)  PipeDream-style async-ordered 1F1B
//   unbalanced(n_pp, n_mb)         BaPipe-style uneven stage partitioning
//   v_schedule(n_pp, n_mb)         controllable-memory V-shape (Qi et al.)
//   two_bp(n_pp, n_mb)             2BP split backward (B_x now, B_w later)
//
// Two generalisations support them: a Schedule may carry an explicit
// stage->device map (lifting the looping assumption; V-schedules fold the
// pipeline), and the backward op may be split into kBackwardInput (input
// gradient, on the critical path) and kBackwardWeight (weight gradient,
// deferrable).
//
// The order is *static*: devices execute their list strictly in order,
// blocking when an operation's inputs have not arrived yet. Whether the
// order is efficient (small bubble, good overlap) is measured by the
// runtime/simulator; whether it is *correct* (complete, locally ordered,
// deadlock-free under blocking in-order execution) is checked by
// validate() below and proven on real data by the threaded executor.
#pragma once

#include <vector>

#include "parallel/config.h"

namespace bfpp::schedule {

// kBackward is the fused backward pass. Split-backward schedules (2BP)
// use kBackwardInput/kBackwardWeight instead: the input gradient must
// flow upstream immediately while the weight gradient can be deferred.
enum class OpKind { kForward, kBackward, kBackwardInput, kBackwardWeight };

struct Op {
  OpKind kind = OpKind::kForward;
  int stage = 0;        // global stage index in [0, n_pp * n_loop)
  int micro_batch = 0;  // in [0, n_mb)

  friend bool operator==(const Op&, const Op&) = default;
};

struct Schedule {
  int n_pp = 1;
  int n_loop = 1;
  int n_mb = 1;
  // device_ops[r] is the ordered compute work of pipeline rank r.
  std::vector<std::vector<Op>> device_ops;
  // Explicit stage->device map; empty means the looping placement
  // (stage s on device s mod n_pp).
  std::vector<int> stage_device;
  // True when backward work is expressed as kBackwardInput +
  // kBackwardWeight pairs instead of fused kBackward ops.
  bool split_backward = false;

  [[nodiscard]] int n_stages() const { return n_pp * n_loop; }
  // Compute passes per (stage, micro-batch): F+B, or F+B_x+B_w.
  [[nodiscard]] int passes() const { return split_backward ? 3 : 2; }
  // Compute operations across all devices.
  [[nodiscard]] int total_ops() const { return passes() * n_stages() * n_mb; }
  // Compute operations per device (devices host n_loop stages each).
  [[nodiscard]] int ops_per_device() const { return passes() * n_loop * n_mb; }
  // Device hosting stage `s` under this schedule's placement.
  [[nodiscard]] int device_of(int stage) const {
    return stage_device.empty() ? stage % n_pp
                                : stage_device[static_cast<size_t>(stage)];
  }
};

// ---- Generators ----

// The paper's breadth-first schedule (Section 4.1): stages run in loop
// order; within a stage, *all* micro-batches run back to back. Forward
// pass first (GPipe-style), then the backward pass in reverse stage
// order. Works for any n_mb >= 1.
Schedule breadth_first(int n_pp, int n_loop, int n_mb);

// The depth-first schedule of Narayanan et al. (Megatron-LM interleaved
// 1F1B): micro-batches run in sequences of n_pp; earlier micro-batches
// are prioritized. Requires n_mb % n_pp == 0 (Section 4.1).
Schedule depth_first(int n_pp, int n_loop, int n_mb);

// Non-looped baselines.
Schedule gpipe(int n_pp, int n_mb);
Schedule one_f_one_b(int n_pp, int n_mb);

// PipeDream-style 1F1B with the *async* warmup: device r keeps
// min(n_mb, n_pp - r) micro-batches in flight (one more than 1F1B's
// n_pp - r - 1), the ordering PipeDream uses so a backward is always
// available without waiting for the freshest forward. Same dependency
// structure, different steady-state order: one extra activation alive
// per device buys a head start on the cooldown.
Schedule one_f_one_b_async(int n_pp, int n_mb);

// BaPipe-style unbalanced pipeline: 1F1B execution order with an
// explicit identity stage->device map. The family's defining feature -
// the uneven, compute-balanced layer->stage partition that compensates
// the language-model head - lives in StagePlacement::for_config; the
// identity map here lifts the looping-ownership assumption in
// validate() and downstream consumers. Works for any n_pp >= 1,
// including non-powers-of-two.
Schedule unbalanced(int n_pp, int n_mb);

// Controllable-memory V-schedule (Qi et al. 2024 shape): the pipeline is
// folded so device r hosts stages r and 2*n_pp-1-r, and ops are emitted
// by a deterministic greedy pass that only schedules ready work
// (deadlock-free by construction), preferring backward once a device has
// `in_flight_budget` forward activations alive (default n_pp). Lower
// budgets trade bubble for memory. Always n_loop == 2.
Schedule v_schedule(int n_pp, int n_mb, int in_flight_budget = 0);

// 2BP split backward: 1F1B-shaped order where each backward is split
// into kBackwardInput (runs in the 1F1B slot, unblocks the upstream
// device sooner) and kBackwardWeight (deferred to the device's tail).
// Lower bubble than 1F1B at the cost of keeping every micro-batch's
// weight-gradient inputs alive until the tail.
Schedule two_bp(int n_pp, int n_mb);

// Appendix C / Figure 9: single-device gradient-accumulation orders.
// Depth-first: each micro-batch runs its full forward+backward before the
// next starts. Breadth-first: layer-major, all micro-batches per stage.
Schedule grad_accumulation_depth_first(int n_stages, int n_mb);
Schedule grad_accumulation_breadth_first(int n_stages, int n_mb);

// The schedule a configuration runs, by kind; the simulator and the
// threaded backend both call this.
// With n_pp == 1 the paper's kinds are the Appendix C orders (stages are
// layer groups on one device): breadth-first and GPipe run
// grad_accumulation_breadth_first, depth-first and 1F1B
// grad_accumulation_depth_first. The zoo kinds keep their own generators.
// Throws bfpp::ConfigError when n_loop does not fit the kind (1 for
// GPipe, 1F1B, 1F1B-async, unbalanced and 2BP; 2 for V), at n_pp == 1 too.
Schedule make_schedule(parallel::ScheduleKind kind, int n_pp, int n_loop,
                       int n_mb);

// Structural validation:
//  1. placement - the stage->device map (when present) covers every
//     device and assigns every stage; ops live on their owning device
//     (no stage gaps);
//  2. completeness - each device runs exactly its stages' passes for
//     every micro-batch, once (F+B, or F+B_x+B_w when split), with no
//     duplicates and no fused/split kind mixing;
//  3. executability - under blocking in-order execution with the pipeline
//     data dependencies (F(s,m) needs F(s-1,m); B(s,m)/B_x(s,m) needs
//     B(s+1,m)/B_x(s+1,m) and F(s,m); B_w(s,m) needs B_x(s,m)), the
//     schedule completes without deadlock.
// Throws bfpp::Error with a diagnostic on violation.
void validate(const Schedule& schedule);

}  // namespace bfpp::schedule
