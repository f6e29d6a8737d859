#include "api/request.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "api/cli.h"
#include "api/compare.h"
#include "api/report_cache.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// An axis field's values, each read by `read`: a non-empty JSON list
// when `list`, else one value.
template <class T, class Read>
std::vector<T> values_from(const json::Value& v, const char* key, bool list,
                           Read read) {
  if (!list || !v.is_array()) return {(v.*read)(key)};
  std::vector<T> out;
  out.reserve(v.size());
  for (const json::Value& item : v.items()) out.push_back((item.*read)(key));
  check_config(!out.empty(), "serve: \"%s\" must not be an empty list", key);
  return out;
}

hw::KernelModel kernel_from(const json::Value& v,
                            const hw::KernelModel& defaults) {
  check_config(v.is_object(), "serve: \"kernel\" must be an object");
  hw::KernelModel kernel = defaults;
  for (const auto& [key, field] : v.members()) {
    if (key == "max_efficiency") {
      kernel.max_efficiency = field.as_number("kernel.max_efficiency");
    } else if (key == "narrow_half") {
      kernel.narrow_half = field.as_number("kernel.narrow_half");
    } else if (key == "rows_half") {
      kernel.rows_half = field.as_number("kernel.rows_half");
    } else {
      throw ConfigError(str_format(
          "serve: unknown \"kernel\" field '%s' (max_efficiency, "
          "narrow_half or rows_half)",
          key.c_str()));
    }
  }
  return kernel;
}

// The compact JSON to echo back as "id" (empty = none). Extracted before
// the rest of the request parses, so even malformed requests keep their
// correlation id.
std::string id_echo_from(const json::Value& root) {
  check_config(root.is_object(), "serve: a request must be a JSON object");
  const json::Value* id = root.get("id");
  if (id == nullptr) return {};
  if (id->is_string()) return json_quote(id->as_string());
  if (id->is_number()) {
    // Integral ids (the common case: counters, epoch timestamps) echo
    // back digit-for-digit; only genuinely fractional ids round-trip
    // through shortest-faithful double formatting. Non-finite values
    // (e.g. an overflowing 1e400 literal) would print as bare `inf`
    // and corrupt the response line.
    const double x = id->as_number();
    check_config(std::isfinite(x), "serve: \"id\" must be a finite number");
    std::string echo;
    if (x == std::floor(x) && std::abs(x) <= 9007199254740992.0) {
      return append_int(echo, static_cast<long long>(x));
    }
    return append_general(echo, x, 17);
  }
  throw ConfigError("serve: \"id\" must be a string or a number");
}

// The number of cells a sweep's axis lists name: the product of their
// lengths (an unset axis counts once), exactly the cells
// SweepBuilder::walk visits. Stops counting past `cap`, so no product of
// 1 MiB of axis values can overflow.
size_t sweep_cells(const ScenarioAxes& axes, size_t cap) {
  size_t cells = 1;
  for (const AxisSpec& axis : scenario_axes()) {
    cells *= std::max<size_t>(axis.size(axes), 1);
    if (cells > cap) return cap + 1;
  }
  return cells;
}

}  // namespace

void parse_request(const std::string& line, const RunOptions& run_defaults,
                   int jobs_default, Request& req) {
  const json::Value root = json::parse(line);
  req.id_echo = id_echo_from(root);
  req.run = run_defaults;
  req.jobs = jobs_default;

  const json::Value* type = root.get("type");
  check_config(type != nullptr,
               "serve: a request needs a \"type\" (run, search, sweep, "
               "compare, stats, metrics, list, ping or shutdown)");
  req.type = to_lower(type->as_string("type"));
  const bool scenario_request =
      req.type == "run" || req.type == "search" || req.type == "sweep" ||
      req.type == "compare";
  check_config(scenario_request || req.type == "stats" ||
                   req.type == "metrics" || req.type == "list" ||
                   req.type == "ping" || req.type == "shutdown",
               "serve: unknown request type '%s' (run, search, sweep, "
               "compare, stats, metrics, list, ping or shutdown)",
               req.type.c_str());
  const bool sweeping = req.type == "sweep";
  CliOptions cli;  // the scenario, grid and method fields
  cli.command = req.type;

  for (const auto& [key, v] : root.members()) {
    if (key == "id" || key == "type") continue;
    // Most fields are axes: look them up before the other names.
    const AxisSpec* axis = find_axis(key);
    if (axis == nullptr && key == "what" && req.type == "list") {
      req.list_what = v.as_string("what");
      continue;
    }
    check_config(scenario_request,
                 "serve: field \"%s\" is not valid for a '%s' request",
                 key.c_str(), req.type.c_str());
    if (axis != nullptr && req.type != "compare") {
      // run simulates one exact configuration; silently ignoring a
      // search method would mislead (mirrors the CLI's pinned-flag
      // guards).
      check_config(axis->names != &ScenarioAxes::method || req.type != "run",
                   "serve: \"method\" applies to search and sweep "
                   "requests, not run");
      if (axis->ints != nullptr) {
        cli.axes.*axis->ints =
            values_from<int>(v, axis->name, sweeping, &json::Value::as_int);
      } else {
        cli.axes.*axis->names = values_from<std::string>(
            v, axis->name, sweeping, &json::Value::as_string);
      }
    } else if (key == "format") {
      const std::string format = to_lower(v.as_string("format"));
      check_config(format == "json" || format == "csv",
                   "serve: \"format\" must be \"json\" or \"csv\"");
      req.format = format == "csv" ? RowFormat::kCsv : RowFormat::kJson;
    } else if (key == "backend") {
      req.run.backend = parse_backend(v.as_string("backend"));
    } else if (key == "kernel") {
      req.run.kernel =
          kernel_from(v, req.run.kernel.value_or(hw::KernelModel{}));
    } else if (key == "jobs") {
      req.jobs = v.as_int("jobs");
      check_config(req.jobs >= 0, "serve: \"jobs\" must be >= 0");
    } else if (key == "grid") {
      check_config(req.type == "compare",
                   "serve: \"grid\" applies only to 'compare' requests");
      cli.grid = v.as_string("grid");
    } else if (req.type == "compare") {
      // A compare grid is fully named; pinning scenario fields on top of
      // it would be silently ignored, so reject them.
      throw ConfigError(str_format(
          "serve: field \"%s\" is not valid for a 'compare' request "
          "(format, backend, kernel, jobs or grid)",
          key.c_str()));
    } else if (key == "preset") {
      cli.preset = v.as_string("preset");
    } else if (key == "megatron") {
      cli.megatron = v.as_bool("megatron");
    } else if (key == "no_dp_overlap") {
      cli.no_dp_overlap = v.as_bool("no_dp_overlap");
    } else if (key == "no_pp_overlap") {
      cli.no_pp_overlap = v.as_bool("no_pp_overlap");
    } else {
      throw ConfigError(str_format(
          "serve: unknown field \"%s\" for a '%s' request (see "
          "docs/PROTOCOL.md)",
          key.c_str(), req.type.c_str()));
    }
  }
  if (req.type == "list") {
    const std::string what = to_lower(req.list_what);
    check_config(what == "models" || what == "clusters" ||
                     what == "scenarios" || what == "all",
                 "serve: unknown list target '%s' (models, clusters, "
                 "scenarios or all)", req.list_what.c_str());
    req.list_what = what;
  }
  req.run.threads = req.jobs;

  if (req.type == "sweep" || req.type == "compare") {
    // A compare request is a named sweep: the grid comes from
    // compare_grid instead of axis fields, but the cells run through the
    // same cached, coalesced path, so a warm cache serves a repeated
    // compare without recomputing any cell. A sweep's size is checked
    // from its axis lists, before its walk starts.
    const auto add_cell = [&req](const ScenarioBuilder& scenario,
                                 const std::optional<autotune::Method>& method,
                                 const std::string& label) {
      // The builder is named by the label, so the built scenario's name
      // is the row's label: the one copy of it the cell keeps.
      RequestCell& cell = req.cells.emplace_back();
      cell.method = method;
      try {
        cell.built = scenario.build();
      } catch (const ConfigError& e) {
        cell.failed = failed_report(scenario.partial(), label, method,
                                    "[config] ", e.what());
        return;
      }
      cell.key = cache_key(*cell.built, method, req.run);
    };
    if (req.type == "compare") {
      const ScenarioGrid grid = compare_grid(cli.grid);
      req.cells.reserve(grid.size());
      for (const SweepCell& cell : grid.cells()) {
        add_cell(cell.scenario, cell.method, cell.label);
      }
    } else {
      const size_t cells = sweep_cells(cli.axes, kMaxCellsPerRequest);
      check_config(cells <= kMaxCellsPerRequest,
                   "serve: a sweep may name at most %zu cells (the product "
                   "of its axis lengths); split it into smaller sweeps",
                   kMaxCellsPerRequest);
      req.cells.reserve(cells);
      sweep_from_cli(std::move(cli)).walk(add_cell);
    }
  } else if (req.type == "run" || req.type == "search") {
    // One fully-validated cell. A structurally invalid scenario throws
    // here and becomes an {"ok":false} line; infeasibility discovered
    // during execution becomes a found=false report instead.
    RequestCell& cell = req.cells.emplace_back();
    cell.built = scenario_from_cli(cli);
    cell.label = cli.preset.empty() ? "serve" : "";
    if (req.type == "search") cell.method = search_method(cli);
    cell.key = cache_key(*cell.built, cell.method, req.run);
  }
}

}  // namespace bfpp::api
