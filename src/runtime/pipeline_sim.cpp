#include "runtime/pipeline_sim.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "collectives/collectives.h"
#include "common/error.h"
#include "memmodel/memory.h"

namespace bfpp::runtime {

namespace {

using parallel::DpSharding;
using parallel::ScheduleKind;
using schedule::Op;
using schedule::OpKind;
using sim::TaskId;
using sim::TaskKind;
using sim::TaskMeta;

// Builds the effective compute schedule. With a single pipeline device
// the schedule kinds degenerate to the gradient-accumulation orders of
// Appendix C (stages = layer groups on one device).
schedule::Schedule effective_schedule(const parallel::ParallelConfig& cfg) {
  if (cfg.n_pp == 1) {
    switch (cfg.schedule) {
      case ScheduleKind::kBreadthFirst:
      case ScheduleKind::kGpipe:
        return schedule::grad_accumulation_breadth_first(cfg.n_loop, cfg.n_mb);
      case ScheduleKind::kDepthFirst:
      case ScheduleKind::kOneFOneB:
        return schedule::grad_accumulation_depth_first(cfg.n_loop, cfg.n_mb);
      case ScheduleKind::kOneFOneBAsync:
      case ScheduleKind::kUnbalanced:
      case ScheduleKind::kVSchedule:
      case ScheduleKind::kTwoBP:
        break;  // the zoo generators handle n_pp == 1 directly
    }
  }
  return schedule::make_schedule(cfg.schedule, cfg.n_pp, cfg.n_loop, cfg.n_mb);
}

// Placement implied by the schedule family, with the head's cost in
// layer-equivalents so unbalanced partitions can compensate it.
parallel::StagePlacement family_placement(const model::TransformerSpec& spec,
                                          const parallel::ParallelConfig& cfg) {
  const double layer_work = spec.layer_forward_flops_per_token() +
                            spec.layer_backward_flops_per_token();
  const double head_work = spec.head_forward_flops_per_token() +
                           spec.head_backward_flops_per_token();
  return parallel::StagePlacement::for_config(spec.n_layers, cfg,
                                              head_work / layer_work);
}

// Non-overlapped per-reconstruction cost charged to the compute stream
// for every DP_FS weight gather: buffer management, casting and the
// caching-allocator synchronizations Appendix D.2 documents (the paper's
// implementation "fixed... most but not all" of these stalls). Charged
// proportionally to the gathered payload at an effective 100 GB/s.
constexpr double kFsReconstructStallBw = 100e9;

// Effective data-parallel collective tier. When several DP-group
// members share a node, NCCL's hierarchical rings aggregate them over
// NVLink before crossing the inter-node fabric, multiplying the
// effective per-GPU inter-node bandwidth (capped by NVLink itself).
hw::NetTier effective_dp_tier(const parallel::DeviceGrid& grid,
                              const hw::ClusterSpec& cluster) {
  hw::NetTier dp_tier = cluster.tier_for_group_extent(grid.dp_group_extent());
  if (grid.dp_group_extent() > cluster.gpus_per_node) {
    dp_tier.allreduce_bw =
        std::min(cluster.intra_node.allreduce_bw,
                 cluster.inter_node.allreduce_bw * grid.dp_members_per_node());
  }
  return dp_tier;
}

}  // namespace

PipelineSim::PipelineSim(model::TransformerSpec spec,
                         parallel::ParallelConfig cfg, hw::ClusterSpec cluster,
                         hw::KernelModel kernel,
                         std::shared_ptr<SimCache> cache)
    : spec_(std::move(spec)),
      cfg_(cfg),
      cluster_(std::move(cluster)),
      kernel_(kernel),
      placement_(family_placement(spec_, cfg_)),
      cache_(std::move(cache)) {}

double PipelineSim::stage_flops(int stage, bool forward) const {
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double per_token = forward ? spec_.layer_forward_flops_per_token()
                                   : spec_.layer_backward_flops_per_token();
  double flops = placement_.layers_in_stage(stage) * per_token * tokens;
  if (stage == placement_.n_stages() - 1) {
    flops += (forward ? spec_.head_forward_flops_per_token()
                      : spec_.head_backward_flops_per_token()) *
             tokens;
  }
  return flops / cfg_.n_tp;
}

double PipelineSim::tp_comm_seconds() const {
  if (cfg_.n_tp == 1) return 0.0;
  // Two non-overlapped activation all-reduces per layer in each of the
  // forward pass and the recompute (Appendix A.3.3, footnote 11). The
  // two backward gradient all-reduces are overlapped and not charged.
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double payload = 2.0 * tokens * spec_.hidden_size;  // fp16
  return 2.0 * collectives::all_reduce_time(cluster_.intra_node, payload,
                                            cfg_.n_tp);
}

double PipelineSim::forward_op_seconds(int stage) const {
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double eff = kernel_.efficiency(
      tokens, hw::KernelModel::narrow_dim(spec_.hidden_size, cfg_.n_tp));
  return stage_flops(stage, /*forward=*/true) /
             (cluster_.gpu.peak_flops * eff) +
         placement_.layers_in_stage(stage) * tp_comm_seconds();
}

double PipelineSim::backward_op_seconds(int stage) const {
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double eff = kernel_.efficiency(
      tokens, hw::KernelModel::narrow_dim(spec_.hidden_size, cfg_.n_tp));
  // The recompute repeats the forward all-reduces (non-overlapped).
  return stage_flops(stage, /*forward=*/false) /
             (cluster_.gpu.peak_flops * eff) +
         placement_.layers_in_stage(stage) * tp_comm_seconds();
}

double PipelineSim::backward_input_op_seconds(int stage) const {
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double eff = kernel_.efficiency(
      tokens, hw::KernelModel::narrow_dim(spec_.hidden_size, cfg_.n_tp));
  // Recompute (1x forward) + input gradient (1x) out of the fused
  // backward's 3x forward flops; the recompute repeats the forward
  // all-reduces, so B_x carries all the TP communication.
  return (2.0 / 3.0) * stage_flops(stage, /*forward=*/false) /
             (cluster_.gpu.peak_flops * eff) +
         placement_.layers_in_stage(stage) * tp_comm_seconds();
}

double PipelineSim::backward_weight_op_seconds(int stage) const {
  const double tokens = static_cast<double>(cfg_.s_mb) * spec_.seq_len;
  const double eff = kernel_.efficiency(
      tokens, hw::KernelModel::narrow_dim(spec_.hidden_size, cfg_.n_tp));
  return (1.0 / 3.0) * stage_flops(stage, /*forward=*/false) /
         (cluster_.gpu.peak_flops * eff);
}

double PipelineSim::stage_payload_bytes(int stage) const {
  double params = spec_.params_per_layer() * placement_.layers_in_stage(stage);
  if (stage == 0) params += spec_.embedding_params();
  return params / cfg_.n_tp * collectives::kGradPayloadBytesPerParam;
}

double PipelineSim::boundary_bytes() const {
  return spec_.boundary_activation_bytes_per_sample() * cfg_.s_mb / cfg_.n_tp;
}

const sim::SimResult& PipelineSim::result() const {
  check(result_ != nullptr, "PipelineSim: run() has not been called");
  return *result_;
}

std::vector<sim::StreamId> PipelineSim::display_streams() const {
  std::vector<sim::StreamId> out;
  for (size_t r = 0; r < compute_streams().size(); ++r) {
    out.push_back(compute_streams()[r]);
    if (r < dp_streams().size()) out.push_back(dp_streams()[r]);
  }
  return out;
}

OpCostTable PipelineSim::build_cost_table() const {
  // One kernel-model / collective evaluation per stage or device; every
  // graph task duration is a lookup into this table. The expressions are
  // byte-for-byte the ones the pre-rework per-op path evaluated inline.
  const parallel::DeviceGrid grid(cfg_, cluster_);
  const hw::NetTier dp_tier = effective_dp_tier(grid, cluster_);
  const int n_stages = placement_.n_stages();
  const auto n = static_cast<size_t>(n_stages);

  OpCostTable t;
  t.forward.resize(n);
  t.backward.resize(n);
  t.backward_input.resize(n);
  t.backward_weight.resize(n);
  t.gather.resize(n);
  t.reduce_scatter.resize(n);
  t.all_reduce.resize(n);
  t.fs_stall.resize(n);
  for (int s = 0; s < n_stages; ++s) {
    const auto i = static_cast<size_t>(s);
    const double payload = stage_payload_bytes(s);
    t.forward[i] = forward_op_seconds(s);
    t.backward[i] = backward_op_seconds(s);
    t.backward_input[i] = backward_input_op_seconds(s);
    t.backward_weight[i] = backward_weight_op_seconds(s);
    t.gather[i] = collectives::all_gather_time(dp_tier, payload, cfg_.n_dp);
    t.reduce_scatter[i] =
        collectives::reduce_scatter_time(dp_tier, payload, cfg_.n_dp);
    t.all_reduce[i] =
        collectives::all_reduce_time(dp_tier, payload, cfg_.n_dp);
    t.fs_stall[i] = payload / kFsReconstructStallBw;
  }

  t.fused_reduce.resize(static_cast<size_t>(cfg_.n_pp));
  t.optimizer.resize(static_cast<size_t>(cfg_.n_pp));
  t.regather.resize(static_cast<size_t>(cfg_.n_pp));
  const double update_share =
      cfg_.sharding == DpSharding::kNone ? 1.0 : 1.0 / cfg_.n_dp;
  for (int r = 0; r < cfg_.n_pp; ++r) {
    double device_payload = 0.0;
    for (int stage : placement_.stages_of_device(r))
      device_payload += stage_payload_bytes(stage);
    const auto i = static_cast<size_t>(r);
    t.fused_reduce[i] =
        collectives::all_reduce_time(dp_tier, device_payload, cfg_.n_dp);
    const double params_dev =
        device_payload / collectives::kGradPayloadBytesPerParam;
    t.optimizer[i] =
        20.0 * params_dev * update_share / cluster_.gpu.hbm_bw;
    t.regather[i] =
        collectives::all_gather_time(dp_tier, device_payload, cfg_.n_dp);
  }

  const double boundary = boundary_bytes();
  t.xfer_intra = cluster_.intra_node.sync_overhead +
                 collectives::p2p_time(cluster_.intra_node, boundary);
  t.xfer_inter = cluster_.inter_node.sync_overhead +
                 collectives::p2p_time(cluster_.inter_node, boundary);
  t.blocking_intra = cluster_.intra_node.blocking_p2p_overhead;
  t.blocking_inter = cluster_.inter_node.blocking_p2p_overhead;
  return t;
}

SimSkeleton PipelineSim::build_skeleton() const {
  const schedule::Schedule sched = effective_schedule(cfg_);
  schedule::validate(sched);

  const parallel::DeviceGrid grid(cfg_, cluster_);
  const int n_pp = cfg_.n_pp;
  const int n_stages = placement_.n_stages();
  const int n_mb = cfg_.n_mb;
  const bool fs = cfg_.sharding == DpSharding::kFull;
  const bool has_dp = cfg_.n_dp > 1;

  SimSkeleton sk;
  sim::TaskGraph& graph = sk.graph;
  sk.table = table_;
  const OpCostTable& table = *table_;

  // Pre-size the arenas from the schedule's emission bounds so graph
  // construction performs no growth reallocation.
  const int task_bound = schedule::arena_task_bound(sched);
  graph.reserve(task_bound, schedule::arena_dep_bound(sched));

  std::vector<CostRef>& refs = sk.cost_refs;
  refs.reserve(static_cast<size_t>(task_bound));
  auto set_ref = [&refs](TaskId id, CostRef ref) {
    if (static_cast<size_t>(id) >= refs.size()) {
      refs.resize(static_cast<size_t>(id) + 1);
    }
    refs[static_cast<size_t>(id)] = ref;
  };
  // All task definitions flow through these two helpers so every task's
  // duration comes from resolve(ref, table) and its ref is recorded for
  // the incremental re-timing path.
  auto def = [&](TaskId id, sim::StreamId st, CostRef ref,
                 std::span<const TaskId> deps, TaskMeta meta) {
    graph.define_task(id, st, resolve(ref, table), deps, meta);
    set_ref(id, ref);
  };
  auto add = [&](sim::StreamId st, CostRef ref, std::span<const TaskId> deps,
                 TaskMeta meta) {
    const TaskId id = graph.add_task(st, resolve(ref, table), deps, meta);
    set_ref(id, ref);
    return id;
  };
  using Class = CostRef::Class;
  constexpr std::span<const TaskId> kNoDeps;
  auto one = [](const TaskId& t) { return std::span<const TaskId>(&t, 1); };

  // ---- Streams.
  for (int r = 0; r < n_pp; ++r) {
    const std::string gpu = "gpu" + std::to_string(r);
    sk.compute_streams.push_back(graph.add_stream(gpu + ".compute"));
    sk.dp_streams.push_back(graph.add_stream(gpu + ".dp"));
  }
  // Directed pipeline links (from * n_pp + to), created on demand
  // (forward and backward traffic between the same device pair shares
  // the physical link).
  std::vector<sim::StreamId> links(static_cast<size_t>(n_pp) * n_pp, -1);
  auto link_stream = [&](int from, int to) {
    sim::StreamId& s = links[static_cast<size_t>(from) * n_pp + to];
    if (s < 0) {
      s = graph.add_stream("link." + std::to_string(from) + "->" +
                           std::to_string(to));
    }
    return s;
  };
  auto link_intra = [&](int from, int to) {
    return grid.pp_link_intra_node(from, to);
  };

  // ---- Pass A: reserve compute tasks and cross-device edge transfers.
  auto idx = [n_mb](int stage, int mb) {
    return static_cast<size_t>(stage) * static_cast<size_t>(n_mb) +
           static_cast<size_t>(mb);
  };
  const size_t cells = static_cast<size_t>(n_stages) * n_mb;
  const bool split = sched.split_backward;
  std::vector<TaskId> fwd_task(cells, sim::kInvalidTask);
  // The upstream-blocking backward: fused B, or B_x when split.
  std::vector<TaskId> bwd_task(cells, sim::kInvalidTask);
  // Deferred weight gradients (split-backward schedules only).
  std::vector<TaskId> bwd_w_task(split ? cells : 0, sim::kInvalidTask);
  std::vector<TaskId> fwd_edge(cells, sim::kInvalidTask);  // into stage s
  std::vector<TaskId> bwd_edge(cells, sim::kInvalidTask);  // into stage s
  // Rendezvous markers for blocking (non-overlapped) transfers: the wire
  // transfer cannot start before the receiver posts its matching receive,
  // which is how Megatron-LM-style blocking communication lets delays
  // cascade around the pipeline ring (Section 5.2).
  std::vector<TaskId> fwd_post(cells, sim::kInvalidTask);
  std::vector<TaskId> bwd_post(cells, sim::kInvalidTask);
  for (int s = 0; s < n_stages; ++s) {
    for (int m = 0; m < n_mb; ++m) {
      fwd_task[idx(s, m)] = graph.reserve_task();
      bwd_task[idx(s, m)] = graph.reserve_task();
      if (split) bwd_w_task[idx(s, m)] = graph.reserve_task();
      if (s > 0 && placement_.device_of_stage(s - 1) !=
                       placement_.device_of_stage(s)) {
        fwd_edge[idx(s, m)] = graph.reserve_task();
        if (!cfg_.overlap_pp) fwd_post[idx(s, m)] = graph.reserve_task();
      }
      if (s < n_stages - 1 && placement_.device_of_stage(s + 1) !=
                                  placement_.device_of_stage(s)) {
        bwd_edge[idx(s, m)] = graph.reserve_task();
        if (!cfg_.overlap_pp) bwd_post[idx(s, m)] = graph.reserve_task();
      }
    }
  }

  // Index of each stage's last gradient-producing op in its device's
  // list, for DP_0/DP_PS overlapped gradient reduction. With split
  // backward a stage's gradients are final only after its last
  // weight-gradient op.
  const OpKind final_grad_kind =
      split ? OpKind::kBackwardWeight : OpKind::kBackward;
  std::vector<size_t> last_bwd_of_stage(static_cast<size_t>(n_stages), 0);
  for (const auto& ops : sched.device_ops) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == final_grad_kind)
        last_bwd_of_stage[static_cast<size_t>(ops[i].stage)] = i;
    }
  }

  // Contiguous same-stage same-direction runs per device: the unit of
  // DP_FS weight reconstruction and gradient reduce-scatter (the
  // contiguous-run rule, see header).
  struct Run {
    int stage = 0;
    OpKind kind = OpKind::kForward;
    size_t first = 0;
    size_t last = 0;
  };
  std::vector<std::vector<Run>> device_runs(static_cast<size_t>(n_pp));
  for (int r = 0; r < n_pp; ++r) {
    const auto& ops = sched.device_ops[static_cast<size_t>(r)];
    auto& runs = device_runs[static_cast<size_t>(r)];
    for (size_t i = 0; i < ops.size(); ++i) {
      if (runs.empty() || runs.back().stage != ops[i].stage ||
          runs.back().kind != ops[i].kind) {
        runs.push_back({ops[i].stage, ops[i].kind, i, i});
      } else {
        runs.back().last = i;
      }
    }
  }

  // ---- Pass B: define tasks device by device, in schedule order.
  for (int r = 0; r < n_pp; ++r) {
    const auto& ops = sched.device_ops[static_cast<size_t>(r)];
    const sim::StreamId cs = sk.compute_streams[static_cast<size_t>(r)];
    const sim::StreamId ds = sk.dp_streams[static_cast<size_t>(r)];
    std::vector<TaskId> reduce_tasks;

    const auto& runs = device_runs[static_cast<size_t>(r)];
    // DP_FS weight gathers, one per run. Double-buffered prefetch: the
    // gather for run j+1 is posted when run j starts (so it overlaps run
    // j's compute) and can only begin once run j-1's buffer is free.
    // Posting the prefetch *before* run j's trailing reduce-scatter keeps
    // the reduce from head-of-line-blocking the next reconstruction.
    std::vector<TaskId> run_gather(runs.size(), sim::kInvalidTask);
    size_t run_index = 0;  // run containing the current op
    auto post_gather = [&](size_t j, std::span<const TaskId> gather_deps) {
      if (j >= runs.size()) return;
      run_gather[j] =
          add(ds, {Class::kGather, runs[j].stage, false}, gather_deps,
              {"W", TaskKind::kWeightGather, runs[j].stage, -1});
    };

    std::vector<TaskId> deps;  // scratch, reused across ops
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const int s = op.stage;
      const int m = op.micro_batch;
      deps.clear();

      if (run_index < runs.size() && i > runs[run_index].last) ++run_index;
      bool op_stall = false;  // FS reconstruction stall (run-first ops)
      if (fs && has_dp && i == runs[run_index].first) {
        op_stall = true;
        if (run_index == 0) {
          post_gather(0, kNoDeps);
          post_gather(1, kNoDeps);
        } else {
          // Prefetch the next run's weights; buffer frees when the
          // previous run's compute is done.
          const Run& prev = runs[run_index - 1];
          const Op& prev_last = ops[prev.last];
          const size_t prev_idx = idx(prev_last.stage, prev_last.micro_batch);
          const TaskId prev_task =
              prev_last.kind == OpKind::kForward
                  ? fwd_task[prev_idx]
                  : (prev_last.kind == OpKind::kBackwardWeight
                         ? bwd_w_task[prev_idx]
                         : bwd_task[prev_idx]);
          post_gather(run_index + 1, one(prev_task));
        }
        deps.push_back(run_gather[run_index]);
      }

      if (op.kind == OpKind::kForward) {
        if (s > 0) {
          if (placement_.device_of_stage(s - 1) == r) {
            deps.push_back(fwd_task[idx(s - 1, m)]);
          } else {
            const TaskId edge = fwd_edge[idx(s, m)];
            if (!cfg_.overlap_pp) {
              // Blocking receive: post the receive (rendezvous marker),
              // then wait inline for the transfer plus the sync cost.
              const int from = placement_.device_of_stage(s - 1);
              def(fwd_post[idx(s, m)], cs, {Class::kZero, -1, false}, kNoDeps,
                  {"post f", TaskKind::kP2P, s, m});
              add(cs,
                  {link_intra(from, r) ? Class::kBlockingIntra
                                       : Class::kBlockingInter,
                   -1, false},
                  one(edge), {"recv f", TaskKind::kP2P, s, m});
            }
            deps.push_back(edge);
          }
        }
        def(fwd_task[idx(s, m)], cs, {Class::kForward, s, op_stall}, deps,
            {"F", TaskKind::kForward, s, m});
      } else if (op.kind == OpKind::kBackwardWeight) {
        // Deferred weight gradient: local work, gated only on its own
        // B_x (which stashed the output gradient).
        deps.push_back(bwd_task[idx(s, m)]);
        def(bwd_w_task[idx(s, m)], cs, {Class::kBackwardWeight, s, op_stall},
            deps, {"Bw", TaskKind::kBackwardWeight, s, m});
      } else {
        deps.push_back(fwd_task[idx(s, m)]);  // stashed boundary activation
        if (s < n_stages - 1) {
          if (placement_.device_of_stage(s + 1) == r) {
            deps.push_back(bwd_task[idx(s + 1, m)]);
          } else {
            const TaskId edge = bwd_edge[idx(s, m)];
            if (!cfg_.overlap_pp) {
              const int from = placement_.device_of_stage(s + 1);
              def(bwd_post[idx(s, m)], cs, {Class::kZero, -1, false}, kNoDeps,
                  {"post b", TaskKind::kP2P, s, m});
              add(cs,
                  {link_intra(from, r) ? Class::kBlockingIntra
                                       : Class::kBlockingInter,
                   -1, false},
                  one(edge), {"recv b", TaskKind::kP2P, s, m});
            }
            deps.push_back(edge);
          }
        }
        const bool fused = op.kind == OpKind::kBackward;
        def(bwd_task[idx(s, m)], cs,
            {fused ? Class::kBackward : Class::kBackwardInput, s, op_stall},
            deps,
            {fused ? "B" : "Bx",
             fused ? TaskKind::kBackward : TaskKind::kBackwardInput, s, m});
      }

      // Outgoing cross-device transfer of the op's boundary tensor.
      const bool backward_edge_op = op.kind == OpKind::kBackward ||
                                    op.kind == OpKind::kBackwardInput;
      const bool sends_fwd = op.kind == OpKind::kForward && s < n_stages - 1 &&
                             placement_.device_of_stage(s + 1) != r;
      const bool sends_bwd = backward_edge_op && s > 0 &&
                             placement_.device_of_stage(s - 1) != r;
      if (sends_fwd || sends_bwd) {
        const int peer = sends_fwd ? placement_.device_of_stage(s + 1)
                                   : placement_.device_of_stage(s - 1);
        const TaskId edge =
            sends_fwd ? fwd_edge[idx(s + 1, m)] : bwd_edge[idx(s - 1, m)];
        const bool intra = link_intra(r, peer);
        TaskId edge_deps_buf[2];
        size_t edge_dep_count = 0;
        if (cfg_.overlap_pp) {
          edge_deps_buf[edge_dep_count++] = op.kind == OpKind::kForward
                                                ? fwd_task[idx(s, m)]
                                                : bwd_task[idx(s, m)];
        } else {
          // Blocking send: a launch on the compute stream (the batched
          // isend), and a rendezvous on the receiver's matching post.
          const TaskId launch =
              add(cs,
                  {intra ? Class::kBlockingIntra : Class::kBlockingInter, -1,
                   false},
                  kNoDeps, {"send", TaskKind::kP2P, s, m});
          edge_deps_buf[edge_dep_count++] = launch;
          edge_deps_buf[edge_dep_count++] = sends_fwd
                                                ? fwd_post[idx(s + 1, m)]
                                                : bwd_post[idx(s - 1, m)];
        }
        def(edge, link_stream(r, peer),
            {intra ? Class::kXferIntra : Class::kXferInter, -1, false},
            std::span<const TaskId>(edge_deps_buf, edge_dep_count),
            {"xfer", TaskKind::kP2P, s, m});
      }

      // Gradient reduction, keyed on the op that finalizes a stage's
      // gradients (the fused backward, or the weight gradient when split).
      if (has_dp && op.kind == final_grad_kind) {
        const TaskId grad_task =
            split ? bwd_w_task[idx(s, m)] : bwd_task[idx(s, m)];
        if (fs) {
          // Reduce-scatter at the end of each backward run.
          const bool run_end = i + 1 == ops.size() ||
                               ops[i + 1].stage != s ||
                               ops[i + 1].kind != final_grad_kind;
          if (run_end) {
            reduce_tasks.push_back(
                add(ds, {Class::kReduceScatter, s, false}, one(grad_task),
                    {"G", TaskKind::kGradReduce, s, -1}));
          }
        } else if (cfg_.overlap_dp) {
          // One reduction per stage, as soon as its gradients are final.
          if (last_bwd_of_stage[static_cast<size_t>(s)] == i) {
            reduce_tasks.push_back(
                add(ds,
                    {cfg_.sharding == DpSharding::kNone
                         ? Class::kAllReduce
                         : Class::kReduceScatter,
                     s, false},
                    one(grad_task), {"G", TaskKind::kGradReduce, s, -1}));
          }
        }
      }
    }

    // Megatron-LM behaviour: a single fused, blocking gradient reduction
    // after all compute (Figure 4a/4b).
    if (has_dp && !cfg_.overlap_dp) {
      add(cs, {Class::kFusedReduce, r, false}, kNoDeps,
          {"G fused", TaskKind::kGradReduce, -1, -1});
    }

    // Optimizer step (memory-bound; ~20 bytes of state traffic per
    // locally updated parameter).
    const TaskId opt = add(cs, {Class::kOptimizer, r, false}, reduce_tasks,
                           {"S", TaskKind::kOptimizerStep, -1, -1});

    // DP_PS: re-gather the updated weights (overlaps the next batch in
    // steady state; charged here, see header).
    if (has_dp && cfg_.sharding == DpSharding::kPartial) {
      add(cfg_.overlap_dp ? ds : cs, {Class::kRegather, r, false}, one(opt),
          {"W regather", TaskKind::kWeightGather, -1, -1});
    }
  }

  refs.resize(static_cast<size_t>(graph.task_count()));
  return sk;
}

void PipelineSim::build() {
  parallel::validate(cfg_, spec_, cluster_);
  memmodel::check_fits(spec_, cfg_, cluster_);
  check_config(cfg_.overlap_dp || cfg_.sharding != DpSharding::kFull,
               "DP_FS requires an implementation with DP overlap");

  if (cache_ != nullptr) {
    table_ = cache_->costs(op_cost_key(spec_, cfg_, cluster_, kernel_),
                           [this] { return build_cost_table(); });
    skeleton_ = cache_->skeleton(sim_topology_key(spec_, cfg_, cluster_),
                                 [this] { return build_skeleton(); });
  } else {
    table_ = std::make_shared<const OpCostTable>(build_cost_table());
    skeleton_ = std::make_shared<const SimSkeleton>(build_skeleton());
  }
  if (skeleton_->table == table_) {
    // Timed with this very table (a miss, or an exact repeat): run the
    // skeleton's graph read-only, shared with every other reader.
    graph_ = std::shared_ptr<const sim::TaskGraph>(skeleton_,
                                                   &skeleton_->graph);
    return;
  }
  // Incremental re-simulation: a skeleton built for an S_mb/kernel
  // neighbour is cloned and re-timed through each task's recorded
  // CostRef, which yields exactly the graph a from-scratch build would.
  auto graph = std::make_shared<sim::TaskGraph>(skeleton_->graph);
  for (int t = 0; t < graph->task_count(); ++t) {
    graph->set_duration(
        t, resolve(skeleton_->cost_refs[static_cast<size_t>(t)], *table_));
  }
  graph_ = std::move(graph);
}

RunResult PipelineSim::run() {
  if (graph_ == nullptr) build();
  result_ = std::make_unique<sim::SimResult>(sim::run(*graph_));

  RunResult out;
  out.batch_time = result_->makespan();
  const double total_flops =
      spec_.train_flops_per_sample() * cfg_.batch_size();
  out.throughput_per_gpu = total_flops / cfg_.n_gpus() / out.batch_time;
  out.utilization = out.throughput_per_gpu / cluster_.gpu.peak_flops;
  double idle_sum = 0.0;
  for (sim::StreamId cs : compute_streams()) {
    const auto& st = result_->stream(cs);
    const double span = st.last_end - st.first_start;
    if (span > 0.0) idle_sum += st.idle_within_span() / span;
  }
  out.compute_idle_fraction = idle_sum / compute_streams().size();
  return out;
}

RunResult simulate_batch(const model::TransformerSpec& spec,
                         const parallel::ParallelConfig& cfg,
                         const hw::ClusterSpec& cluster) {
  PipelineSim sim(spec, cfg, cluster);
  return sim.run();
}

}  // namespace bfpp::runtime
