// Batch experiment campaigns: axis-product grids of scenarios executed
// in parallel on the shared thread pool.
//
// Everything the paper reports is a sweep - Figures 5-9 and the
// Appendix E tables each grid over batch sizes, schedules and methods -
// so the api exposes the loop itself:
//
//   const auto reports = api::sweep(api::SweepBuilder()
//                                       .models({"6.6b"})
//                                       .clusters({"dgx1-v100-eth"})
//                                       .batches({16, 64, 256})
//                                       .methods({"bf", "df"})
//                                       .build(),
//                                   {.jobs = 8});
//   std::fputs(api::to_csv(reports).c_str(), stdout);
//
// A grid is a flat, ordered vector of cells. Each cell is either a
// search cell (method set: grid-search the space for the cell's batch
// size, like api::search) or a run cell (fully-specified grid, like
// api::run). Cells that fail to build or execute produce a Report
// with found == false and the failure recorded in Report::error - one
// row per cell, always, so downstream tables stay rectangular.
//
// Determinism contract: sweep() returns exactly one Report per cell, in
// cell order, independent of jobs - the CSV of a sweep is byte-identical
// for --jobs 1 and --jobs 8.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "autotune/autotune.h"

namespace bfpp::api {

// One cell of a campaign: a scenario recipe (built lazily so structurally
// invalid axis combinations become found == false rows instead of
// aborting the grid) plus an optional search method.
struct SweepCell {
  ScenarioBuilder scenario;
  std::optional<autotune::Method> method;  // set: search cell; unset: run
  std::string label;                       // Report::scenario for the cell
};

class ScenarioGrid {
 public:
  ScenarioGrid& push(SweepCell cell);

  [[nodiscard]] size_t size() const { return cells_.size(); }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const std::vector<SweepCell>& cells() const { return cells_; }

 private:
  std::vector<SweepCell> cells_;
};

// One list per scenario axis. An empty list leaves the axis unset (the
// cells inherit the base scenario); every listed value, 0 and "" too,
// is applied and labelled. run and search hold at most one value each.
struct ScenarioAxes {
  std::vector<std::string> model, cluster, method;
  std::vector<int> batch;
  std::vector<std::string> schedule, sharding;
  std::vector<int> pp, tp, dp, smb, nmb, loop;
};

// One row of the axis table: everything the CLI, the serve parser and
// the grid need to know about an axis.
struct AxisSpec {
  const char* name;  // the JSON key, and the CLI flag after "--"
  // The axis's list in ScenarioAxes: `names` for a name axis, `ints` for
  // an integer axis (the other is null).
  std::vector<std::string> ScenarioAxes::*names;
  std::vector<int> ScenarioAxes::*ints;
  const char* prefix;  // label prefix of an integer value ("b", "pp", ...)
  // Part of the configuration a search enumerates itself, so it cannot
  // be set beside a method.
  bool searched;
  // How one value applies to a cell: through the ScenarioBuilder setter
  // for its kind, or - the method axis, which has none - to the cell's
  // search method.
  ScenarioBuilder& (ScenarioBuilder::*set_name)(const std::string& value);
  ScenarioBuilder& (ScenarioBuilder::*set_int)(int value);

  [[nodiscard]] size_t size(const ScenarioAxes& axes) const {
    return names != nullptr ? (axes.*names).size() : (axes.*ints).size();
  }
  // Applies value `i` of this axis in `axes` to `scenario` or `method`.
  void apply(const ScenarioAxes& axes, size_t i, ScenarioBuilder& scenario,
             std::optional<autotune::Method>& method) const;
};

// The axis table in the grid's nesting order, outermost first:
//   model > cluster > method > batch > schedule > sharding > pp > tp
//   > dp > smb > nmb > loop
std::span<const AxisSpec> scenario_axes();

// The axis called `name`, or nullptr.
const AxisSpec* find_axis(std::string_view name);

// True when an axis a search enumerates itself is set.
bool pins_configuration(const ScenarioAxes& axes);

// A coupled point of the schedule axis: schedule kind plus the loop
// count and capability flags that only make sense together (e.g. the
// Figure 5 columns: bf/loop4, df/loop4/megatron, gpipe, 1f1b/megatron).
struct SweepVariant {
  std::string label;
  std::string schedule;          // parse_schedule_kind names
  std::optional<int> loop;
  bool megatron = false;
};

// Fluent axis-product builder. Every list axis defaults to unset
// (inherit base()); the product runs row-major in the axis table's
// nesting order, with the variants() composite between batch and
// schedule:
//   model > cluster > method > batch > variant > schedule > sharding
//   > pp > tp > dp > smb > nmb > loop
// The methods() axis switches the grid to search cells; it composes only
// with models/clusters/batches (searches enumerate the rest themselves).
//
// walk() is the product itself: an odometer over the set axes that keeps
// one working ScenarioBuilder and, from one cell to the next, re-applies
// only the levels from the outermost one that moved, cutting the label
// back to that level's prefix. So a model, cluster or schedule name is
// resolved once per value, not once per cell. build() collects the same
// walk into a ScenarioGrid; the serve parser builds each cell's
// Scenario straight from it, without a grid.
class SweepBuilder {
 public:
  SweepBuilder& base(ScenarioBuilder scenario);  // shared cell settings
  SweepBuilder& axes(ScenarioAxes values);       // every axis at once

  SweepBuilder& models(std::vector<std::string> names);
  SweepBuilder& clusters(std::vector<std::string> names);
  SweepBuilder& batches(std::vector<int> values);
  SweepBuilder& methods(std::vector<std::string> names);  // search mode
  SweepBuilder& variants(std::vector<SweepVariant> values);

  // Called once per cell, in product order, with the working builder
  // (named by the cell's label), the cell's search method and its label
  // ("6.6b/dgx1-v100-ib/pp4/nmb8"). The three are valid only during the
  // call.
  using CellVisitor =
      std::function<void(const ScenarioBuilder& scenario,
                         const std::optional<autotune::Method>& method,
                         const std::string& label)>;

  // Hands every cell of the axis product to `visit`. Throws
  // bfpp::ConfigError, before the first cell, when the composition is
  // contradictory (methods with grid axes, or an empty grid), and when a
  // value does not resolve (an unknown model, cluster, schedule,
  // sharding or method name), as it is reached.
  void walk(const CellVisitor& visit) const;

  // The axis product as a grid: walk(), collected.
  [[nodiscard]] ScenarioGrid build() const;

 private:
  ScenarioBuilder base_;
  ScenarioAxes axes_;
  std::vector<SweepVariant> variants_;
};

struct SweepOptions {
  // Cells run concurrently on the shared pool (common/thread_pool.h).
  // 0 = all hardware threads; 1 = serial. Output is identical either way.
  int jobs = 0;
  // Backend / kernel override / per-search thread budget for every cell.
  RunOptions run;
};

// Executes every cell of the grid; returns one Report per cell, in cell
// order. ConfigError / OutOfMemoryError inside a cell become
// found == false rows (error prefixed "[config] " / "[oom] "); other
// exceptions are programming errors and propagate.
std::vector<Report> sweep(const ScenarioGrid& grid,
                          const SweepOptions& options = {});

// Runs one built cell: a search when `method` is set, else a run on
// `engine`; Report::scenario is `label` when that is non-empty. A
// ConfigError or OutOfMemoryError becomes the cell's failed_report row.
// sweep() and the serve cell computation both run cells through this.
Report run_cell(const Scenario& scenario, const std::string& label,
                const std::optional<autotune::Method>& method,
                const Engine& engine, const RunOptions& run_options);

// The found == false Report for a cell that failed to build or execute:
// identity fields from `scenario` (ScenarioBuilder::partial() for a cell
// that failed to build), Report::scenario from `label` (falling back to
// the scenario's name) and error = kind + what ("[config] " / "[oom] " +
// the message). sweep() and the serve ReportCache both construct failure
// rows through this, so failed cells render identically everywhere.
Report failed_report(const Scenario& scenario, const std::string& label,
                     const std::optional<autotune::Method>& method,
                     const char* kind, const char* what);

}  // namespace bfpp::api
