// bfpp::api - the single public surface of the library.
//
// Everything the paper reports is one of two calls:
//   run(scenario)            simulate one training batch of an exact
//                            configuration (wraps runtime::PipelineSim)
//   search(scenario, method) grid-search the configuration space for a
//                            batch size (wraps autotune::find_best)
// both returning a structured Report (JSON/CSV/table emitters included).
//
//   const auto report = api::run(api::ScenarioBuilder()
//                                    .model("52b")
//                                    .cluster("dgx1-v100-ib")
//                                    .pp(8).tp(8).nmb(16)
//                                    .schedule("bf").loop(4)
//                                    .build());
//   std::puts(report.to_json().c_str());
//
// Every entry point takes a RunOptions (engine.h) selecting the
// execution backend - the event-driven simulator (default), the
// closed-form analytic model, or the threaded ground-truth executor -
// plus a kernel-model override and a thread budget. Batch campaigns over
// whole grids of scenarios go through api::sweep() (sweep.h).
//
// Benches, examples and the `bfpp` CLI driver all sit on this layer; no
// caller outside src/ should construct PipelineSim or call find_best
// directly.
#pragma once

#include <string>

#include "api/engine.h"
#include "api/registry.h"
#include "api/report.h"
#include "api/scenario.h"
#include "autotune/autotune.h"
#include "sim/gantt.h"

namespace bfpp::api {

// Simulates one training batch of a fully-specified scenario on the
// backend options select. Throws bfpp::ConfigError /
// bfpp::OutOfMemoryError for invalid or infeasible configurations.
Report run(const Scenario& scenario, const RunOptions& options = {});
// Same, on a caller-supplied engine (the primitive the above wraps).
Report run_with(const Scenario& scenario, const Engine& engine);

// Grid-searches the configuration space for scenario.batch_size and
// returns the best configuration's Report (found == false when nothing
// fits). The scenario only needs model + cluster + batch. Candidates are
// evaluated on the selected backend, options.threads at a time on the
// shared pool (deterministic for every thread count).
Report search(const Scenario& scenario, autotune::Method method,
              const RunOptions& options = {});

// run() plus a Figure-4-style ASCII timeline of the simulated batch.
struct Timeline {
  Report report;
  std::string gantt;
};
Timeline run_with_timeline(const Scenario& scenario,
                           const sim::GanttOptions& options = {});

// Memory-model-only Report (no simulation): fills memory / memory_min
// for the scenario's configuration, leaving the run result zeroed.
// (The memory model is closed-form; options exists for interface
// uniformity and future backends.)
Report estimate_memory(const Scenario& scenario,
                       const RunOptions& options = {});

}  // namespace bfpp::api
