#include "api/engine.h"

#include <chrono>
#include <cmath>

#include "analytic/theory.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/threaded_pipeline.h"
#include "memmodel/memory.h"
#include "nn/layers.h"
#include "schedule/schedule.h"
#include "tensor/tensor.h"

namespace bfpp::api {

namespace {

using parallel::DpSharding;
using parallel::ParallelConfig;
using parallel::ScheduleKind;

// ---- Simulator backend ----

class SimulatorEngine : public Engine {
 public:
  explicit SimulatorEngine(hw::KernelModel kernel)
      : kernel_(kernel), cache_(std::make_shared<runtime::SimCache>()) {}

  [[nodiscard]] Backend backend() const override {
    return Backend::kSimulator;
  }

  [[nodiscard]] runtime::RunResult evaluate(
      const model::TransformerSpec& spec, const ParallelConfig& cfg,
      const hw::ClusterSpec& cluster) const override {
    runtime::PipelineSim sim(spec, cfg, cluster, kernel_, cache_);
    return sim.run();
  }

 private:
  hw::KernelModel kernel_;
  // Shared across every cell this engine evaluates (sweeps run cells
  // concurrently; SimCache is thread-safe). Memoizes per-stage cost
  // tables across batch sizes and graph topology across micro-batch
  // splits - results are identical with or without it.
  std::shared_ptr<runtime::SimCache> cache_;
};

// ---- Analytic backend ----
//
// Fills a RunResult from the paper's closed-form efficiency model
// (analytic::theory, Figure 2 / Eq. 9), with the theory's free
// parameters derived from the hardware model instead of the figure's
// example constants:
//   * the compute unit (one sample on one GPU at achievable rate)
//     includes the kernel-efficiency model and the non-overlapped
//     tensor-parallel all-reduces the simulator folds into op durations;
//   * beta_net is the data-parallel reduction time of this device's
//     gradient shard (ring collectives over the same hierarchical tier
//     the simulator picks), expressed in compute units;
//   * the overlap window follows the schedule (Section 4.2): batch for
//     breadth-first, sequence for depth-first, micro-batch for the
//     non-looped schedules.
// Deliberately unmodelled (the simulator's job): per-collective latency
// interleaving, the DP_FS reconstruction stall, and blocking-p2p cascade
// effects beyond the theory's per-loop cost constant.
class AnalyticEngine : public Engine {
 public:
  explicit AnalyticEngine(hw::KernelModel kernel) : kernel_(kernel) {}

  [[nodiscard]] Backend backend() const override { return Backend::kAnalytic; }

  [[nodiscard]] runtime::RunResult evaluate(
      const model::TransformerSpec& spec, const ParallelConfig& cfg,
      const hw::ClusterSpec& cluster) const override {
    parallel::validate(cfg, spec, cluster);
    memmodel::check_fits(spec, cfg, cluster);
    check_config(cfg.overlap_dp || cfg.sharding != DpSharding::kFull,
                 "DP_FS requires an implementation with DP overlap");

    // One sample's compute seconds on one GPU at achievable rate,
    // including the non-overlapped TP all-reduces (two in the forward
    // pass, two in the recompute, per layer; Appendix A.3.3).
    const double tokens = static_cast<double>(cfg.s_mb) * spec.seq_len;
    const double eff_kernel = kernel_.efficiency(
        tokens, hw::KernelModel::narrow_dim(spec.hidden_size, cfg.n_tp));
    double tp_comm = 0.0;
    if (cfg.n_tp > 1) {
      const double payload = 2.0 * tokens * spec.hidden_size;  // fp16
      tp_comm = 2.0 * collectives::all_reduce_time(cluster.intra_node,
                                                   payload, cfg.n_tp);
    }
    const double unit =
        spec.train_flops_per_sample() /
            (cluster.gpu.peak_flops * eff_kernel) +
        2.0 * spec.n_layers * cfg.n_tp * tp_comm / cfg.s_mb;

    // The theory works at the S_mb = 1 convention; feeding it beta and
    // beta_net divided by S_mb makes its internal micro-batch count
    // (beta * N_TP * N_PP) equal the configuration's real N_mb while
    // leaving the exposed-communication ratio unchanged.
    analytic::TheoryConfig theory;
    theory.n_pp = cfg.n_pp;
    theory.n_tp = cfg.n_tp;
    theory.n_loop = cfg.n_loop;
    theory.dp_overlap = cfg.overlap_dp;
    theory.pp_overlap = cfg.overlap_pp;
    switch (cfg.schedule) {
      case ScheduleKind::kBreadthFirst:
        theory.window = analytic::TheoryConfig::Window::kBatch;
        break;
      case ScheduleKind::kDepthFirst:
        theory.window = analytic::TheoryConfig::Window::kSequence;
        break;
      case ScheduleKind::kGpipe:
      case ScheduleKind::kOneFOneB:
      case ScheduleKind::kOneFOneBAsync:
      case ScheduleKind::kUnbalanced:
      case ScheduleKind::kVSchedule:
      case ScheduleKind::kTwoBP:
        // The rival families overlap communication within (at most) a
        // micro-batch-sized window, like the non-looped baselines.
        theory.window = analytic::TheoryConfig::Window::kMicroBatch;
        break;
    }
    theory.beta_net = dp_reduction_seconds(spec, cfg, cluster) *
                      (cfg.n_pp * cfg.n_tp) / unit;

    const double beta = cfg.batch_per_gpu();
    const double eff_pipeline = analytic::theoretical_efficiency(
        beta / cfg.s_mb, scaled(theory, cfg.s_mb));
    check_config(eff_pipeline > 0.0,
                 "analytic: configuration below the feasible beta range");

    // Optimizer step (memory-bound), same accounting as the simulator.
    const double params_dev =
        spec.total_params() / (cfg.n_pp * cfg.n_tp);
    const double update_share =
        cfg.sharding == DpSharding::kNone ? 1.0 : 1.0 / cfg.n_dp;
    const double t_opt =
        20.0 * params_dev * update_share / cluster.gpu.hbm_bw;

    runtime::RunResult out;
    out.batch_time = beta * unit / eff_pipeline + t_opt;
    out.throughput_per_gpu =
        spec.train_flops_per_sample() * beta / out.batch_time;
    out.utilization = out.throughput_per_gpu / cluster.gpu.peak_flops;
    out.compute_idle_fraction = 1.0 - eff_pipeline;
    return out;
  }

 private:
  // Seconds to reduce this device's gradient shard across the DP group,
  // over the same effective tier the simulator uses (hierarchical rings
  // aggregate co-located members over NVLink first).
  static double dp_reduction_seconds(const model::TransformerSpec& spec,
                                     const ParallelConfig& cfg,
                                     const hw::ClusterSpec& cluster) {
    if (cfg.n_dp <= 1) return 0.0;
    const hw::NetTier tier = parallel::effective_dp_tier(
        parallel::DeviceGrid(cfg, cluster), cluster);
    const double payload = spec.total_params() / (cfg.n_pp * cfg.n_tp) *
                           collectives::kGradPayloadBytesPerParam;
    if (cfg.sharding == DpSharding::kFull) {
      // Breadth-first DP_FS: per batch, each stage gathers weights once
      // per pass and reduce-scatters once (the contiguous-run rule) -
      // 1.5x the all-reduce wire traffic (Eq. 24).
      return 2.0 * collectives::all_gather_time(tier, payload, cfg.n_dp) +
             collectives::reduce_scatter_time(tier, payload, cfg.n_dp);
    }
    // DP_0: gradient all-reduce. DP_PS: reduce-scatter plus the
    // post-update weight gather - the same wire traffic.
    return collectives::all_reduce_time(tier, payload, cfg.n_dp);
  }

  // Divides the S_mb-dependent knobs by s_mb (see evaluate()).
  static analytic::TheoryConfig scaled(analytic::TheoryConfig theory,
                                       int s_mb) {
    theory.beta_net /= s_mb;
    return theory;
  }

  hw::KernelModel kernel_;
};

// ---- Threaded backend ----

// Largest proxy shapes the real executor will run: one OS thread per
// pipeline device and 2 * N_stage * N_mb real forward/backward ops.
constexpr int kMaxThreadedStages = 64;
constexpr int kMaxThreadedMicroBatches = 128;
constexpr int kProxyHidden = 16;
constexpr int kProxyRowsPerMb = 4;
constexpr uint64_t kProxySeed = 0x5eed;

class ThreadedEngine : public Engine {
 public:
  [[nodiscard]] Backend backend() const override { return Backend::kThreaded; }

  // Executes the scenario's schedule on exec::ThreadedPipeline: one
  // MlpBlock per stage (hidden kProxyHidden), one OS thread per pipeline
  // device, real forward/backward math, gradients cross-checked bitwise
  // against serial single-device execution. The returned batch_time is
  // the measured wall-clock of the proxy run; throughput and utilization
  // are zero because the proxy does not model the target hardware - the
  // backend's value is executability and numerical ground truth, not
  // performance (use the simulator for that).
  [[nodiscard]] runtime::RunResult evaluate(
      const model::TransformerSpec& spec, const ParallelConfig& cfg,
      const hw::ClusterSpec& cluster) const override {
    parallel::validate(cfg, spec, cluster);
    const int n_stages = cfg.n_stages();
    check_config(
        n_stages <= kMaxThreadedStages && cfg.n_mb <= kMaxThreadedMicroBatches,
        "threaded backend executes small shapes only "
        "(N_stage <= %d, N_mb <= %d); got N_stage = %d, N_mb = %d",
        kMaxThreadedStages, kMaxThreadedMicroBatches, n_stages,
        cfg.n_mb);

    // Proxy model and data: one block per stage, deterministic seed.
    Rng model_rng(kProxySeed);
    nn::BlockStack model(n_stages, kProxyHidden, model_rng);
    Rng ref_rng(kProxySeed);
    nn::BlockStack reference(n_stages, kProxyHidden, ref_rng);
    std::vector<tensor::Tensor> inputs, targets;
    Rng data_rng(kProxySeed + 1);
    for (int m = 0; m < cfg.n_mb; ++m) {
      inputs.push_back(
          tensor::Tensor::randn(kProxyRowsPerMb, kProxyHidden, data_rng));
      targets.push_back(
          tensor::Tensor::randn(kProxyRowsPerMb, kProxyHidden, data_rng, 0.2f));
    }

    const schedule::Schedule sched = schedule::make_schedule(
        cfg.schedule, cfg.n_pp, cfg.n_loop, cfg.n_mb);
    schedule::validate(sched);

    exec::ThreadedPipeline pipeline(std::move(model), cfg.n_pp, cfg.n_loop);
    const auto start = std::chrono::steady_clock::now();
    const exec::PipelineResult result =
        pipeline.run_batch(sched, inputs, targets);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    check(std::isfinite(result.loss_sum),
          "threaded backend: non-finite loss");
    float ref_loss = 0.0f;
    for (int m = 0; m < cfg.n_mb; ++m) {
      ref_loss += reference.train_step_accumulate(
          inputs[static_cast<size_t>(m)], targets[static_cast<size_t>(m)]);
    }
    check(result.loss_sum == ref_loss,
          "threaded backend: pipeline loss diverges from serial execution");
    for (int b = 0; b < reference.size(); ++b) {
      auto got = pipeline.model().blocks[static_cast<size_t>(b)].gradients();
      auto want = reference.blocks[static_cast<size_t>(b)].gradients();
      for (size_t k = 0; k < got.size(); ++k) {
        check(tensor::max_abs_diff(*got[k], *want[k]) == 0.0f,
              "threaded backend: gradients of block %d diverge from serial "
              "execution", b);
      }
    }

    runtime::RunResult out;
    out.batch_time = wall.count();
    return out;
  }

};

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSimulator:
      return "simulator";
    case Backend::kAnalytic:
      return "analytic";
    case Backend::kThreaded:
      return "threaded";
  }
  return "?";
}

Backend parse_backend(const std::string& text) {
  const std::string s = to_lower(text);
  if (s == "sim" || s == "simulator") return Backend::kSimulator;
  if (s == "analytic" || s == "theory") return Backend::kAnalytic;
  if (s == "threaded" || s == "exec" || s == "real") return Backend::kThreaded;
  throw ConfigError(str_format(
      "api: unknown backend '%s' (expected simulator/sim, analytic/theory "
      "or threaded/exec)",
      text.c_str()));
}

std::unique_ptr<Engine> make_engine(const RunOptions& options) {
  const hw::KernelModel kernel = options.kernel.value_or(hw::KernelModel{});
  switch (options.backend) {
    case Backend::kSimulator:
      return std::make_unique<SimulatorEngine>(kernel);
    case Backend::kAnalytic:
      return std::make_unique<AnalyticEngine>(kernel);
    case Backend::kThreaded:
      return std::make_unique<ThreadedEngine>();
  }
  throw Error("api: unhandled backend");
}

BackendComparison compare_backends(const model::TransformerSpec& spec,
                                   const parallel::ParallelConfig& cfg,
                                   const hw::ClusterSpec& cluster,
                                   const Engine& reference,
                                   const Engine& candidate,
                                   const std::string& label) {
  BackendComparison out;
  out.label = label.empty() ? cfg.describe() : label;
  out.config = cfg;
  out.reference = reference.evaluate(spec, cfg, cluster);
  out.candidate = candidate.evaluate(spec, cfg, cluster);
  if (out.reference.batch_time > 0.0) {
    out.batch_time_deviation =
        (out.candidate.batch_time - out.reference.batch_time) /
        out.reference.batch_time;
  }
  if (out.reference.utilization > 0.0) {
    out.utilization_deviation =
        (out.candidate.utilization - out.reference.utilization) /
        out.reference.utilization;
  }
  return out;
}

}  // namespace bfpp::api
