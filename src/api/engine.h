// Pluggable execution backends for the bfpp::api experiment layer.
//
// Every api entry point (run / search / sweep) evaluates
// (model, config, cluster) triples through an Engine. Three backends
// cover the repo's three execution paths:
//
//   kSimulator  runtime::PipelineSim - the event-driven simulator behind
//               every paper figure (the default).
//   kAnalytic   analytic::theory - the paper's closed-form efficiency
//               model, hardware-calibrated. Orders of magnitude faster
//               than the simulator: the fast path for huge sweep grids
//               and search spaces.
//   kThreaded   exec::ThreadedPipeline - ground truth. Executes the
//               scenario's schedule on real OS threads with real math
//               (on a proportionally shrunk proxy model) and
//               cross-checks gradients bitwise against serial
//               execution; reports the measured wall-clock. Small
//               shapes only.
//
// All three throw bfpp::ConfigError / bfpp::OutOfMemoryError for
// invalid or infeasible configurations, so the autotuner prunes the
// same space regardless of backend.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "hw/cluster.h"
#include "hw/kernel_model.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"

namespace bfpp::api {

enum class Backend { kSimulator, kAnalytic, kThreaded };

const char* to_string(Backend backend);

// Inverse of to_string. Case-insensitive; accepts "sim"/"simulator",
// "analytic"/"theory", "threaded"/"exec"/"real". Throws
// bfpp::ConfigError on unknown input.
Backend parse_backend(const std::string& text);

// Per-call execution options, threaded through every api entry point.
struct RunOptions {
  Backend backend = Backend::kSimulator;
  // Kernel-efficiency model override (simulator and analytic backends);
  // nullopt = the calibrated V100 default.
  std::optional<hw::KernelModel> kernel;
  // Thread budget for parallel work launched on behalf of this call
  // (search candidate evaluation). 0 = all hardware threads; 1 = serial.
  // Results are byte-identical for every value.
  int threads = 0;
};

// A backend bound to its options. Engines are stateless and cheap;
// make_engine() is the only constructor callers need.
class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual Backend backend() const = 0;

  // Evaluates one training batch of a fully-specified configuration.
  // Throws bfpp::ConfigError / bfpp::OutOfMemoryError for invalid or
  // infeasible configurations.
  [[nodiscard]] virtual runtime::RunResult evaluate(
      const model::TransformerSpec& spec, const parallel::ParallelConfig& cfg,
      const hw::ClusterSpec& cluster) const = 0;
};

std::unique_ptr<Engine> make_engine(const RunOptions& options = {});

// ---- Backend cross-validation (the `bfpp validate` command) ----

// One configuration evaluated on two backends, with the relative
// batch-time deviation ((candidate - reference) / reference).
struct BackendComparison {
  std::string label;
  parallel::ParallelConfig config;
  runtime::RunResult reference;  // from `reference` backend
  runtime::RunResult candidate;  // from `candidate` backend
  double batch_time_deviation = 0.0;
  double utilization_deviation = 0.0;
};

// Evaluates `cfg` on both backends. Throws what the backends throw.
BackendComparison compare_backends(const model::TransformerSpec& spec,
                                   const parallel::ParallelConfig& cfg,
                                   const hw::ClusterSpec& cluster,
                                   const Engine& reference,
                                   const Engine& candidate,
                                   const std::string& label = {});

}  // namespace bfpp::api
