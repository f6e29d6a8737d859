#include "api/api.h"

#include "common/error.h"
#include "common/thread_pool.h"
#include "memmodel/memory.h"
#include "runtime/pipeline_sim.h"

namespace bfpp::api {

namespace {

Report base_report(const Scenario& scenario) {
  Report report;
  report.scenario = scenario.name;
  report.model = scenario.model.name;
  report.cluster = scenario.cluster.name;
  report.n_gpus = scenario.cluster.total_gpus();
  report.batch_size = scenario.batch_size;
  return report;
}

void fill_run(Report& report, const Scenario& scenario,
              const runtime::RunResult& result) {
  report.found = true;
  report.config = scenario.require_config();
  report.result = result;
  report.memory = memmodel::estimate(scenario.model, report.config);
  report.memory_min =
      memmodel::estimate(scenario.model, report.config, /*at_scale=*/true);
}

}  // namespace

Report run_with(const Scenario& scenario, const Engine& engine) {
  Report report = base_report(scenario);
  const runtime::RunResult result = engine.evaluate(
      scenario.model, scenario.require_config(), scenario.cluster);
  fill_run(report, scenario, result);
  return report;
}

Report run(const Scenario& scenario, const RunOptions& options) {
  return run_with(scenario, *make_engine(options));
}

Report search(const Scenario& scenario, autotune::Method method,
              const RunOptions& options) {
  check_config(scenario.batch_size >= 1,
               "api: search needs a scenario with a batch size");
  Report report = base_report(scenario);
  report.method = autotune::to_string(method);
  const std::unique_ptr<Engine> engine = make_engine(options);
  autotune::SearchOptions search_options;
  search_options.jobs = options.threads;
  search_options.evaluate = [&engine](const model::TransformerSpec& spec,
                                      const parallel::ParallelConfig& cfg,
                                      const hw::ClusterSpec& cluster) {
    return engine->evaluate(spec, cfg, cluster);
  };
  const autotune::SearchResult found =
      autotune::find_best(scenario.model, scenario.cluster, method,
                          scenario.batch_size, search_options);
  report.evaluated = found.evaluated;
  report.infeasible = found.infeasible;
  if (found.best) {
    report.found = true;
    report.config = found.best->config;
    report.result = found.best->result;
    report.memory = found.best->memory;
    report.memory_min = found.best->memory_min;
  }
  if (found.frugal) {
    report.frugal = Report::Frugal{found.frugal->config, found.frugal->result,
                                   found.frugal->memory_min};
  }
  return report;
}

Timeline run_with_timeline(const Scenario& scenario,
                           const sim::GanttOptions& options) {
  Timeline timeline;
  timeline.report = base_report(scenario);
  runtime::PipelineSim sim(scenario.model, scenario.require_config(),
                           scenario.cluster);
  const runtime::RunResult result = sim.run();
  fill_run(timeline.report, scenario, result);
  timeline.gantt = sim::render_gantt(sim.graph(), sim.result(),
                                     sim.display_streams(), options);
  return timeline;
}

Report estimate_memory(const Scenario& scenario, const RunOptions& options) {
  (void)options;
  Report report = base_report(scenario);
  report.found = true;
  report.config = scenario.require_config();
  report.memory = memmodel::estimate(scenario.model, report.config);
  report.memory_min =
      memmodel::estimate(scenario.model, report.config, /*at_scale=*/true);
  return report;
}

}  // namespace bfpp::api
