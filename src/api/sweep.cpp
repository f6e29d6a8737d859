#include "api/sweep.h"

#include "api/api.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace bfpp::api {

namespace {

Report build_and_run(const SweepCell& cell, const Engine& engine,
                     const RunOptions& run_options) {
  Scenario scenario;
  try {
    scenario = cell.scenario.build();
  } catch (const ConfigError& e) {
    return failed_report(cell.scenario.partial(), cell.label, cell.method,
                         "[config] ", e.what());
  }
  return run_cell(scenario, cell.label, cell.method, engine, run_options);
}

const AxisSpec kAxes[] = {
    {"model", &ScenarioAxes::model, nullptr, "", false,
     &ScenarioBuilder::model, nullptr},
    {"cluster", &ScenarioAxes::cluster, nullptr, "", false,
     &ScenarioBuilder::cluster, nullptr},
    {"method", &ScenarioAxes::method, nullptr, "", false, nullptr, nullptr},
    {"batch", nullptr, &ScenarioAxes::batch, "b", false, nullptr,
     &ScenarioBuilder::batch},
    {"schedule", &ScenarioAxes::schedule, nullptr, "", true,
     &ScenarioBuilder::schedule, nullptr},
    {"sharding", &ScenarioAxes::sharding, nullptr, "", true,
     &ScenarioBuilder::sharding, nullptr},
    {"pp", nullptr, &ScenarioAxes::pp, "pp", true, nullptr,
     &ScenarioBuilder::pp},
    {"tp", nullptr, &ScenarioAxes::tp, "tp", true, nullptr,
     &ScenarioBuilder::tp},
    {"dp", nullptr, &ScenarioAxes::dp, "dp", true, nullptr,
     &ScenarioBuilder::dp},
    {"smb", nullptr, &ScenarioAxes::smb, "smb", true, nullptr,
     &ScenarioBuilder::smb},
    {"nmb", nullptr, &ScenarioAxes::nmb, "nmb", true, nullptr,
     &ScenarioBuilder::nmb},
    {"loop", nullptr, &ScenarioAxes::loop, "loop", true, nullptr,
     &ScenarioBuilder::loop},
};

}  // namespace

Report failed_report(const Scenario& scenario, const std::string& label,
                     const std::optional<autotune::Method>& method,
                     const char* kind, const char* what) {
  Report report;
  report.scenario = label.empty() ? scenario.name : label;
  report.model = scenario.model.name;
  report.cluster = scenario.cluster.name;
  report.n_gpus = scenario.cluster.total_gpus();
  report.batch_size = scenario.batch_size;
  if (method.has_value()) report.method = autotune::to_string(*method);
  report.found = false;
  report.error = std::string(kind) + what;
  return report;
}

Report run_cell(const Scenario& scenario, const std::string& label,
                const std::optional<autotune::Method>& method,
                const Engine& engine, const RunOptions& run_options) {
  try {
    Report report = method ? search(scenario, *method, run_options)
                           : run_with(scenario, engine);
    if (!label.empty()) report.scenario = label;
    return report;
  } catch (const ConfigError& e) {
    return failed_report(scenario, label, method, "[config] ", e.what());
  } catch (const OutOfMemoryError& e) {
    return failed_report(scenario, label, method, "[oom] ", e.what());
  }
}

ScenarioGrid& ScenarioGrid::push(SweepCell cell) {
  cells_.push_back(std::move(cell));
  return *this;
}

void AxisSpec::apply(const ScenarioAxes& axes, size_t i,
                     SweepCell& cell) const {
  if (ints != nullptr) {
    (cell.scenario.*set_int)((axes.*ints)[i]);
  } else if (set_name != nullptr) {
    (cell.scenario.*set_name)((axes.*names)[i]);
  } else {
    cell.method = autotune::parse_method((axes.*names)[i]);
  }
}

std::span<const AxisSpec> scenario_axes() { return kAxes; }

const AxisSpec* find_axis(std::string_view name) {
  for (const AxisSpec& axis : kAxes) {
    if (name == axis.name) return &axis;
  }
  return nullptr;
}

bool pins_configuration(const ScenarioAxes& axes) {
  for (const AxisSpec& axis : kAxes) {
    if (axis.searched && axis.size(axes) > 0) return true;
  }
  return false;
}

SweepBuilder& SweepBuilder::base(ScenarioBuilder scenario) {
  base_ = std::move(scenario);
  return *this;
}

SweepBuilder& SweepBuilder::axes(ScenarioAxes values) {
  axes_ = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::models(std::vector<std::string> names) {
  axes_.model = std::move(names);
  return *this;
}

SweepBuilder& SweepBuilder::clusters(std::vector<std::string> names) {
  axes_.cluster = std::move(names);
  return *this;
}

SweepBuilder& SweepBuilder::batches(std::vector<int> values) {
  axes_.batch = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::methods(std::vector<std::string> names) {
  axes_.method = std::move(names);
  return *this;
}

SweepBuilder& SweepBuilder::variants(std::vector<SweepVariant> values) {
  variants_ = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::schedules(std::vector<std::string> names) {
  axes_.schedule = std::move(names);
  return *this;
}

SweepBuilder& SweepBuilder::shardings(std::vector<std::string> names) {
  axes_.sharding = std::move(names);
  return *this;
}

SweepBuilder& SweepBuilder::pp(std::vector<int> values) {
  axes_.pp = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::tp(std::vector<int> values) {
  axes_.tp = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::dp(std::vector<int> values) {
  axes_.dp = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::smb(std::vector<int> values) {
  axes_.smb = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::nmb(std::vector<int> values) {
  axes_.nmb = std::move(values);
  return *this;
}

SweepBuilder& SweepBuilder::loops(std::vector<int> values) {
  axes_.loop = std::move(values);
  return *this;
}

ScenarioGrid SweepBuilder::build() const {
  // One level per set axis, in nesting order, each value's label part
  // rendered once; the variants() composite (axis == nullptr) sits
  // after batch.
  struct Level {
    const AxisSpec* axis;
    std::vector<std::string> labels;
  };
  std::vector<Level> levels;
  for (const AxisSpec& axis : kAxes) {
    if (axis.size(axes_) > 0) {
      Level& level = levels.emplace_back(Level{&axis, {}});
      for (size_t i = 0; i < axis.size(axes_); ++i) {
        level.labels.push_back(axis.ints != nullptr
                                   ? axis.prefix +
                                         std::to_string((axes_.*axis.ints)[i])
                                   : (axes_.*axis.names)[i]);
      }
    }
    if (axis.ints == &ScenarioAxes::batch && !variants_.empty()) {
      Level& level = levels.emplace_back(Level{nullptr, {}});
      for (const SweepVariant& v : variants_) {
        level.labels.push_back(v.label.empty() ? v.schedule : v.label);
      }
    }
  }
  check_config(!levels.empty(), "sweep: the grid is empty (set some axes)");
  if (!axes_.method.empty()) {
    check_config(variants_.empty() && !pins_configuration(axes_),
                 "sweep: methods() grid-searches the configuration space "
                 "itself; it composes only with models/clusters/batches");
    check_config(!axes_.batch.empty(), "sweep: a search sweep needs batches()");
  }

  // The row-major product: an odometer over the levels, innermost
  // fastest.
  ScenarioGrid grid;
  std::vector<size_t> at(levels.size(), 0);
  while (true) {
    SweepCell cell;
    cell.scenario = base_;
    for (size_t l = 0; l < levels.size(); ++l) {
      const Level& level = levels[l];
      if (level.axis != nullptr) {
        level.axis->apply(axes_, at[l], cell);
      } else {
        const SweepVariant& variant = variants_[at[l]];
        cell.scenario.schedule(variant.schedule);
        if (variant.loop) cell.scenario.loop(*variant.loop);
        if (variant.megatron) cell.scenario.megatron();
      }
      if (l > 0) cell.label += '/';
      cell.label += level.labels[at[l]];
    }
    cell.scenario.name(cell.label);
    grid.push(std::move(cell));
    size_t l = levels.size();
    while (l > 0 && ++at[l - 1] == levels[l - 1].labels.size()) at[--l] = 0;
    if (l == 0) return grid;
  }
}

std::vector<Report> sweep(const ScenarioGrid& grid,
                          const SweepOptions& options) {
  const std::vector<SweepCell>& cells = grid.cells();
  std::vector<Report> reports(cells.size());
  const std::unique_ptr<Engine> engine = make_engine(options.run);
  // One Report per cell, addressed by index: the result order (and every
  // byte of its CSV) is independent of the jobs value.
  ThreadPool::shared().parallel_for(
      static_cast<int>(cells.size()), options.jobs, [&](int i) {
        reports[static_cast<size_t>(i)] =
            build_and_run(cells[static_cast<size_t>(i)], *engine, options.run);
      });
  return reports;
}

}  // namespace bfpp::api
