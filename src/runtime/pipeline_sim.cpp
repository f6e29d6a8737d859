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
using schedule::Op;
using schedule::OpKind;
using sim::TaskId;
using sim::TaskKind;

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
  const hw::NetTier dp_tier = parallel::effective_dp_tier(grid, cluster_);
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
  const schedule::Schedule sched =
      schedule::make_schedule(cfg_.schedule, cfg_.n_pp, cfg_.n_loop, cfg_.n_mb);
  schedule::validate(sched);

  const parallel::DeviceGrid grid(cfg_, cluster_);
  const int n_pp = cfg_.n_pp;
  const int n_stages = placement_.n_stages();
  const int n_mb = cfg_.n_mb;
  const bool fs = cfg_.sharding == DpSharding::kFull;
  const bool has_dp = cfg_.n_dp > 1;
  const bool split = sched.split_backward;
  const bool blocking = !cfg_.overlap_pp;
  // DP_FS weight reconstruction: one gather per run (see below), whose
  // first op waits on it and pays the reconstruction stall.
  const bool gathers = fs && has_dp;
  const bool fused_reduce = has_dp && !cfg_.overlap_dp;
  const bool regather = has_dp && cfg_.sharding == DpSharding::kPartial;
  // The op that finalizes a stage's gradients: the fused backward, or
  // the weight gradient when the backward is split.
  const OpKind final_grad_kind =
      split ? OpKind::kBackwardWeight : OpKind::kBackward;

  // Placement lookups, once per cell: each stage's device, and each
  // pipeline rank's node (a link is intra-node when both ends share one).
  std::vector<int> device_of(static_cast<size_t>(n_stages));
  for (int s = 0; s < n_stages; ++s) {
    device_of[static_cast<size_t>(s)] = placement_.device_of_stage(s);
  }
  std::vector<int> node_of(static_cast<size_t>(n_pp));
  for (int r = 0; r < n_pp; ++r) {
    node_of[static_cast<size_t>(r)] =
        grid.node_of_rank(grid.linear_rank(0, r, 0));
  }
  auto dev = [&device_of](int stage) {
    return device_of[static_cast<size_t>(stage)];
  };
  auto link_intra = [&node_of](int from, int to) {
    return node_of[static_cast<size_t>(from)] ==
           node_of[static_cast<size_t>(to)];
  };

  // ---- Sizing. Pass A reserves one block of slots per (stage,
  // micro-batch) cell, and every cell of a stage has the same layout:
  // F, B (B_x when split), [B_w], then [edge, [post]] for the forward
  // transfer into the stage and [edge, [post]] for the backward transfer
  // into it, when the neighbouring stage lives on another device. The
  // rendezvous post exists only for blocking transfers.
  struct StageSlots {
    int base = 0;       // id of F(s, 0)
    int stride = 0;     // ids per micro-batch
    int fwd_edge = -1;  // offset of the incoming forward transfer
    int bwd_edge = -1;  // offset of the incoming backward transfer
  };
  const int edge_slots = blocking ? 2 : 1;
  std::vector<StageSlots> slots(static_cast<size_t>(n_stages));
  int reserved = 0;
  int n_tasks = 0;
  int n_deps = 0;
  for (int s = 0; s < n_stages; ++s) {
    StageSlots& st = slots[static_cast<size_t>(s)];
    st.base = reserved;
    st.stride = split ? 3 : 2;
    if (s > 0 && dev(s - 1) != dev(s)) {
      st.fwd_edge = st.stride;
      st.stride += edge_slots;
    }
    if (s < n_stages - 1 && dev(s + 1) != dev(s)) {
      st.bwd_edge = st.stride;
      st.stride += edge_slots;
    }
    reserved += st.stride * n_mb;
    // F waits on its upstream input; B on its stashed activation and its
    // downstream gradient; B_w on its B_x.
    n_deps += n_mb * ((s > 0 ? 1 : 0) + 1 + (s < n_stages - 1 ? 1 : 0) +
                      (split ? 1 : 0));
    // Per transfer: the edge waits on its producer (and, blocking, on
    // the receiver's post); a blocking transfer also adds a receive wait
    // (one dep) and a send launch to the compute streams.
    const int transfers =
        (st.fwd_edge >= 0 ? 1 : 0) + (st.bwd_edge >= 0 ? 1 : 0);
    n_tasks += transfers * n_mb * (blocking ? 2 : 0);
    n_deps += transfers * n_mb * (blocking ? 3 : 1);
  }
  n_tasks += reserved;

  // Index of each stage's last gradient-producing op in its device's
  // list, for DP_0/DP_PS overlapped gradient reduction, and the run
  // counts that size the DP_FS gathers and reduce-scatters.
  std::vector<size_t> last_bwd_of_stage(static_cast<size_t>(n_stages), 0);
  int runs_total = 0;
  int grad_runs = 0;
  int gather_deps = 0;
  for (const auto& ops : sched.device_ops) {
    int runs = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.kind == final_grad_kind)
        last_bwd_of_stage[static_cast<size_t>(op.stage)] = i;
      if (i == 0 || op.stage != ops[i - 1].stage ||
          op.kind != ops[i - 1].kind) {
        ++runs;
        if (op.kind == final_grad_kind) ++grad_runs;
      }
    }
    runs_total += runs;
    // Gathers past the first two wait on the run before the previous one.
    gather_deps += std::max(runs - 2, 0);
  }
  // Overlapped gradient reductions: one per backward run under DP_FS,
  // else one per stage. Each waits on its gradient op and feeds the
  // optimizer step; one step per device, plus the fused reduce and the
  // regather.
  int reduces = 0;
  if (has_dp && fs) {
    reduces = grad_runs;
  } else if (has_dp && cfg_.overlap_dp) {
    reduces = n_stages;
  }
  n_tasks += reduces +
             n_pp * (1 + (fused_reduce ? 1 : 0) + (regather ? 1 : 0));
  n_deps += 2 * reduces + (regather ? n_pp : 0);
  if (gathers) {
    n_tasks += runs_total;
    n_deps += runs_total + gather_deps;
  }

  SimSkeleton sk;
  sim::TaskGraph& graph = sk.graph;
  sk.table = table_;
  const OpCostTable& table = *table_;
  // Streams: compute and dp per device, plus at most two directed links
  // per stage boundary and one per ordered device pair.
  graph.reserve(n_tasks, n_deps,
                2 * n_pp + std::min(2 * (n_stages - 1), n_pp * (n_pp - 1)));
  // Per-stage or per-device table entry, and the same entry plus the
  // DP_FS reconstruction stall when `op_stall` marks a run-first op.
  auto at = [](const std::vector<double>& v, int i) {
    return v[static_cast<size_t>(i)];
  };
  auto stalled = [&](const std::vector<double>& v, int s, bool op_stall) {
    return op_stall ? at(v, s) + at(table.fs_stall, s) : at(v, s);
  };
  auto blocking_cost = [&](bool intra) {
    return intra ? table.blocking_intra : table.blocking_inter;
  };
  constexpr std::span<const TaskId> kNoDeps;
  auto one = [](const TaskId& t) { return std::span<const TaskId>(&t, 1); };

  // ---- Streams.
  sk.compute_streams.reserve(static_cast<size_t>(n_pp));
  sk.dp_streams.reserve(static_cast<size_t>(n_pp));
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

  // ---- Pass A: reserve compute tasks and cross-device edge transfers,
  // addressed through the stage slot layout above. Rendezvous markers
  // (posts) model blocking (non-overlapped) transfers: the wire transfer
  // cannot start before the receiver posts its matching receive, which
  // is how Megatron-LM-style blocking communication lets delays cascade
  // around the pipeline ring (Section 5.2).
  graph.reserve_tasks(reserved);
  auto fwd_task = [&slots](int s, int m) {
    const StageSlots& st = slots[static_cast<size_t>(s)];
    return st.base + m * st.stride;
  };
  // The upstream-blocking backward: fused B, or B_x when split.
  auto bwd_task = [&](int s, int m) { return fwd_task(s, m) + 1; };
  // Deferred weight gradients (split-backward schedules only).
  auto bwd_w_task = [&](int s, int m) { return fwd_task(s, m) + 2; };
  auto fwd_edge = [&](int s, int m) {  // into stage s
    return fwd_task(s, m) + slots[static_cast<size_t>(s)].fwd_edge;
  };
  auto bwd_edge = [&](int s, int m) {  // into stage s
    return fwd_task(s, m) + slots[static_cast<size_t>(s)].bwd_edge;
  };
  auto fwd_post = [&](int s, int m) { return fwd_edge(s, m) + 1; };
  auto bwd_post = [&](int s, int m) { return bwd_edge(s, m) + 1; };

  // Contiguous same-stage same-direction runs of the current device:
  // the unit of DP_FS weight reconstruction and gradient reduce-scatter
  // (the contiguous-run rule, see header). One buffer, reused per device.
  struct Run {
    int stage = 0;
    OpKind kind = OpKind::kForward;
    size_t first = 0;
    size_t last = 0;
  };
  std::vector<Run> runs;
  std::vector<TaskId> run_gather;
  std::vector<TaskId> reduce_tasks;

  // ---- Pass B: define tasks device by device, in schedule order.
  for (int r = 0; r < n_pp; ++r) {
    const auto& ops = sched.device_ops[static_cast<size_t>(r)];
    const sim::StreamId cs = sk.compute_streams[static_cast<size_t>(r)];
    const sim::StreamId ds = sk.dp_streams[static_cast<size_t>(r)];
    reduce_tasks.clear();
    runs.clear();
    if (gathers) {
      for (size_t i = 0; i < ops.size(); ++i) {
        if (runs.empty() || runs.back().stage != ops[i].stage ||
            runs.back().kind != ops[i].kind) {
          runs.push_back({ops[i].stage, ops[i].kind, i, i});
        } else {
          runs.back().last = i;
        }
      }
    }

    // DP_FS weight gathers, one per run. Double-buffered prefetch: the
    // gather for run j+1 is posted when run j starts (so it overlaps run
    // j's compute) and can only begin once run j-1's buffer is free.
    // Posting the prefetch *before* run j's trailing reduce-scatter keeps
    // the reduce from head-of-line-blocking the next reconstruction.
    run_gather.assign(runs.size(), sim::kInvalidTask);
    size_t run_index = 0;  // run containing the current op
    auto post_gather = [&](size_t j, std::span<const TaskId> gather_deps) {
      if (j >= runs.size()) return;
      run_gather[j] =
          graph.add_task(ds, at(table.gather, runs[j].stage), gather_deps,
                         {"W", TaskKind::kWeightGather, runs[j].stage, -1});
    };

    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const int s = op.stage;
      const int m = op.micro_batch;
      // A compute op waits on at most its weight gather, its input and
      // (backward) its downstream gradient.
      TaskId deps_buf[3];
      size_t dep_count = 0;
      auto deps = [&] {
        return std::span<const TaskId>(deps_buf, dep_count);
      };

      bool op_stall = false;  // FS reconstruction stall (run-first ops)
      if (gathers) {
        if (i > runs[run_index].last) ++run_index;
        if (i == runs[run_index].first) {
          op_stall = true;
          if (run_index == 0) {
            post_gather(0, kNoDeps);
            post_gather(1, kNoDeps);
          } else {
            // Prefetch the next run's weights; buffer frees when the
            // previous run's compute is done.
            const Run& prev = runs[run_index - 1];
            const Op& prev_last = ops[prev.last];
            const int ps = prev_last.stage;
            const int pm = prev_last.micro_batch;
            const TaskId prev_task =
                prev_last.kind == OpKind::kForward
                    ? fwd_task(ps, pm)
                    : (prev_last.kind == OpKind::kBackwardWeight
                           ? bwd_w_task(ps, pm)
                           : bwd_task(ps, pm));
            post_gather(run_index + 1, one(prev_task));
          }
          deps_buf[dep_count++] = run_gather[run_index];
        }
      }

      if (op.kind == OpKind::kForward) {
        if (s > 0) {
          if (dev(s - 1) == r) {
            deps_buf[dep_count++] = fwd_task(s - 1, m);
          } else {
            const TaskId edge = fwd_edge(s, m);
            if (blocking) {
              // Blocking receive: post the receive (rendezvous marker),
              // then wait inline for the transfer plus the sync cost.
              graph.define_task(fwd_post(s, m), cs, 0.0, kNoDeps,
                                {"post f", TaskKind::kP2P, s, m});
              graph.add_task(cs, blocking_cost(link_intra(dev(s - 1), r)),
                             one(edge), {"recv f", TaskKind::kP2P, s, m});
            }
            deps_buf[dep_count++] = edge;
          }
        }
        graph.define_task(fwd_task(s, m), cs,
                          stalled(table.forward, s, op_stall), deps(),
                          {"F", TaskKind::kForward, s, m});
      } else if (op.kind == OpKind::kBackwardWeight) {
        // Deferred weight gradient: local work, gated only on its own
        // B_x (which stashed the output gradient).
        deps_buf[dep_count++] = bwd_task(s, m);
        graph.define_task(bwd_w_task(s, m), cs,
                          stalled(table.backward_weight, s, op_stall), deps(),
                          {"Bw", TaskKind::kBackwardWeight, s, m});
      } else {
        deps_buf[dep_count++] = fwd_task(s, m);  // stashed activation
        if (s < n_stages - 1) {
          if (dev(s + 1) == r) {
            deps_buf[dep_count++] = bwd_task(s + 1, m);
          } else {
            const TaskId edge = bwd_edge(s, m);
            if (blocking) {
              graph.define_task(bwd_post(s, m), cs, 0.0, kNoDeps,
                                {"post b", TaskKind::kP2P, s, m});
              graph.add_task(cs, blocking_cost(link_intra(dev(s + 1), r)),
                             one(edge), {"recv b", TaskKind::kP2P, s, m});
            }
            deps_buf[dep_count++] = edge;
          }
        }
        const bool fused = op.kind == OpKind::kBackward;
        graph.define_task(
            bwd_task(s, m), cs,
            stalled(fused ? table.backward : table.backward_input, s,
                    op_stall),
            deps(),
            {fused ? "B" : "Bx",
             fused ? TaskKind::kBackward : TaskKind::kBackwardInput, s, m});
      }

      // Outgoing cross-device transfer of the op's boundary tensor.
      const bool backward_edge_op = op.kind == OpKind::kBackward ||
                                    op.kind == OpKind::kBackwardInput;
      const bool sends_fwd =
          op.kind == OpKind::kForward && s < n_stages - 1 && dev(s + 1) != r;
      const bool sends_bwd = backward_edge_op && s > 0 && dev(s - 1) != r;
      if (sends_fwd || sends_bwd) {
        const int peer = sends_fwd ? dev(s + 1) : dev(s - 1);
        const TaskId edge = sends_fwd ? fwd_edge(s + 1, m) : bwd_edge(s - 1, m);
        const bool intra = link_intra(r, peer);
        TaskId edge_deps_buf[2];
        size_t edge_dep_count = 0;
        if (!blocking) {
          edge_deps_buf[edge_dep_count++] = op.kind == OpKind::kForward
                                                ? fwd_task(s, m)
                                                : bwd_task(s, m);
        } else {
          // Blocking send: a launch on the compute stream (the batched
          // isend), and a rendezvous on the receiver's matching post.
          const TaskId launch = graph.add_task(
              cs, blocking_cost(intra), kNoDeps,
              {"send", TaskKind::kP2P, s, m});
          edge_deps_buf[edge_dep_count++] = launch;
          edge_deps_buf[edge_dep_count++] =
              sends_fwd ? fwd_post(s + 1, m) : bwd_post(s - 1, m);
        }
        graph.define_task(
            edge, link_stream(r, peer),
            intra ? table.xfer_intra : table.xfer_inter,
            std::span<const TaskId>(edge_deps_buf, edge_dep_count),
            {"xfer", TaskKind::kP2P, s, m});
      }

      // Gradient reduction, keyed on the op that finalizes a stage's
      // gradients.
      if (has_dp && op.kind == final_grad_kind) {
        const TaskId grad_task = split ? bwd_w_task(s, m) : bwd_task(s, m);
        if (fs) {
          // Reduce-scatter at the end of each backward run.
          const bool run_end = i + 1 == ops.size() ||
                               ops[i + 1].stage != s ||
                               ops[i + 1].kind != final_grad_kind;
          if (run_end) {
            reduce_tasks.push_back(graph.add_task(
                ds, at(table.reduce_scatter, s), one(grad_task),
                {"G", TaskKind::kGradReduce, s, -1}));
          }
        } else if (cfg_.overlap_dp) {
          // One reduction per stage, as soon as its gradients are final.
          if (last_bwd_of_stage[static_cast<size_t>(s)] == i) {
            reduce_tasks.push_back(graph.add_task(
                ds,
                at(cfg_.sharding == DpSharding::kNone ? table.all_reduce
                                                      : table.reduce_scatter,
                   s),
                one(grad_task), {"G", TaskKind::kGradReduce, s, -1}));
          }
        }
      }
    }

    // Megatron-LM behaviour: a single fused, blocking gradient reduction
    // after all compute (Figure 4a/4b).
    if (fused_reduce) {
      graph.add_task(cs, at(table.fused_reduce, r), kNoDeps,
                     {"G fused", TaskKind::kGradReduce, -1, -1});
    }

    // Optimizer step (memory-bound; ~20 bytes of state traffic per
    // locally updated parameter).
    const TaskId opt =
        graph.add_task(cs, at(table.optimizer, r), reduce_tasks,
                       {"S", TaskKind::kOptimizerStep, -1, -1});

    // DP_PS: re-gather the updated weights (overlaps the next batch in
    // steady state; charged here, see header).
    if (regather) {
      graph.add_task(cfg_.overlap_dp ? ds : cs, at(table.regather, r),
                     one(opt), {"W regather", TaskKind::kWeightGather, -1, -1});
    }
  }

  check(graph.task_count() == n_tasks && graph.total_deps() == n_deps,
        "build_skeleton: emitted %d tasks and %d deps, sized for %d and %d",
        graph.task_count(), graph.total_deps(), n_tasks, n_deps);
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
  }
  // A skeleton cached for an S_mb or kernel neighbour is timed with
  // another table: this cell builds its own graph, uncached, as the
  // cache-less path does.
  if (skeleton_ == nullptr || skeleton_->table != table_) {
    skeleton_ = std::make_shared<const SimSkeleton>(build_skeleton());
  }
}

RunResult PipelineSim::run() {
  if (skeleton_ == nullptr) build();
  result_ = std::make_unique<sim::SimResult>(sim::run(skeleton_->graph));

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
