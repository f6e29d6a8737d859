#include "api/sweep.h"

#include <array>
#include <iterator>

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
                     ScenarioBuilder& scenario,
                     std::optional<autotune::Method>& method) const {
  if (ints != nullptr) {
    (scenario.*set_int)((axes.*ints)[i]);
  } else if (set_name != nullptr) {
    (scenario.*set_name)((axes.*names)[i]);
  } else {
    method = autotune::parse_method((axes.*names)[i]);
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

void SweepBuilder::walk(const CellVisitor& visit) const {
  // One level per set axis, in nesting order; the variants() composite
  // (axis == nullptr) sits after batch.
  struct Level {
    const AxisSpec* axis;
    size_t size;
    size_t label_start;  // the label's length before this level's part
    size_t at;           // the value the cell has
  };
  std::array<Level, std::size(kAxes) + 1> levels{};
  size_t n_levels = 0;
  for (const AxisSpec& axis : kAxes) {
    if (axis.size(axes_) > 0) {
      levels[n_levels++] = {&axis, axis.size(axes_), 0, 0};
    }
    if (axis.ints == &ScenarioAxes::batch && !variants_.empty()) {
      levels[n_levels++] = {nullptr, variants_.size(), 0, 0};
    }
  }
  check_config(n_levels > 0, "sweep: the grid is empty (set some axes)");
  if (!axes_.method.empty()) {
    check_config(variants_.empty() && !pins_configuration(axes_),
                 "sweep: methods() grid-searches the configuration space "
                 "itself; it composes only with models/clusters/batches");
    check_config(!axes_.batch.empty(), "sweep: a search sweep needs batches()");
  }

  // The row-major product, innermost level fastest. `moved` is the
  // outermost level whose value changed since the previous cell: the
  // levels from it inward are re-applied to the working cell, and the
  // label is cut back to its prefix.
  ScenarioBuilder cell = base_;
  std::optional<autotune::Method> method;
  std::string label;
  label.reserve(64);  // a serve sweep's labels fit: one allocation
  size_t moved = 0;
  while (true) {
    for (size_t l = moved; l < n_levels; ++l) {
      Level& level = levels[l];
      if (l == moved) label.resize(level.label_start);
      level.label_start = label.size();
      if (l > 0) label += '/';
      if (level.axis == nullptr) {
        // A variant replaces the previous one's loop and megatron flag,
        // so both start again from the base's.
        const SweepVariant& variant = variants_[level.at];
        cell.schedule(variant.schedule);
        cell.loop_ = variant.loop ? variant.loop : base_.loop_;
        cell.megatron_ = variant.megatron || base_.megatron_;
        label += variant.label.empty() ? variant.schedule : variant.label;
      } else if (level.axis->ints != nullptr) {
        level.axis->apply(axes_, level.at, cell, method);
        append_int(label += level.axis->prefix,
                   (axes_.*level.axis->ints)[level.at]);
      } else {
        level.axis->apply(axes_, level.at, cell, method);
        label += (axes_.*level.axis->names)[level.at];
      }
    }
    cell.name_ = label;  // assigned in place: no allocation once it fits
    visit(cell, method, label);
    size_t l = n_levels;
    while (l > 0 && ++levels[l - 1].at == levels[l - 1].size) {
      levels[--l].at = 0;
    }
    if (l == 0) return;
    moved = l - 1;
  }
}

ScenarioGrid SweepBuilder::build() const {
  ScenarioGrid grid;
  walk([&grid](const ScenarioBuilder& scenario,
               const std::optional<autotune::Method>& method,
               const std::string& label) {
    grid.push({scenario, method, label});
  });
  return grid;
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
