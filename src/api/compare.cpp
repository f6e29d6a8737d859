#include "api/compare.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// One fixed operating point: the Figure 5 cross-validation shapes (the
// same points `bfpp validate` checks the analytic backend on).
struct ComparePoint {
  const char* model;
  const char* cluster;
  int n_pp, n_tp, n_dp;
  std::vector<int> batches;
};

// The family columns in table order. Breadth-first and depth-first
// anchor the comparison exactly as in Figure 5 (N_loop = 4; depth-first
// with Megatron-LM capability flags); the rival families run with their
// own structural requirements (V-schedules fold two stages per device,
// the others are non-looped).
const std::vector<SweepVariant>& compare_variants() {
  static const std::vector<SweepVariant> variants = {
      {"bf", "bf", 4, false},
      {"df", "df", 4, true},
      {"1f1b-async", "1f1b-async", std::nullopt, false},
      {"unbalanced", "unbalanced", std::nullopt, false},
      {"v", "v", 2, false},
      {"2bp", "2bp", std::nullopt, false},
  };
  return variants;
}

std::vector<ComparePoint> points_for(const std::string& name) {
  if (name == "fig5-quick") {
    return {{"6.6b", "dgx1-v100-ib", 4, 2, 8, {64, 128}}};
  }
  if (name == "fig5") {
    return {{"52b", "dgx1-v100-ib", 8, 8, 1, {16, 32, 64}},
            {"6.6b", "dgx1-v100-ib", 4, 2, 8, {64, 128, 256}}};
  }
  if (name == "fig6") {
    return {{"52b", "dgx1-v100-eth", 8, 8, 1, {16, 32, 64}}};
  }
  throw ConfigError(
      str_format("compare: unknown grid '%s' (fig5-quick, fig5 or fig6)",
                 name.c_str()));
}

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

}  // namespace

ScenarioGrid compare_grid(const std::string& name) {
  ScenarioGrid grid;
  for (const ComparePoint& point : points_for(name)) {
    for (int batch : point.batches) {
      for (const SweepVariant& variant : compare_variants()) {
        ScenarioBuilder builder;
        builder.model(point.model)
            .cluster(point.cluster)
            .pp(point.n_pp)
            .tp(point.n_tp)
            .dp(point.n_dp)
            .smb(1)
            .nmb(batch / point.n_dp)
            .schedule(variant.schedule);
        if (variant.loop) builder.loop(*variant.loop);
        if (variant.megatron) builder.megatron();
        SweepCell cell;
        cell.label = str_format("%s/b%d/%s", point.model, batch,
                                variant.label.c_str());
        cell.scenario = builder.name(cell.label);
        grid.push(std::move(cell));
      }
    }
  }
  return grid;
}

Table compare_table(const std::vector<Report>& reports) {
  // Row = the label up to its last '/', column = the family after it;
  // both keep first-seen order, so the table mirrors compare_grid's
  // row-major (point, batch, family) emission regardless of which
  // cells were feasible.
  std::vector<std::string> row_order, family_order;
  std::map<std::string, std::map<std::string, std::string>> cells;
  for (const Report& report : reports) {
    const size_t cut = report.scenario.rfind('/');
    const std::string row =
        cut == std::string::npos ? report.scenario
                                 : report.scenario.substr(0, cut);
    const std::string family =
        cut == std::string::npos ? std::string("?")
                                 : report.scenario.substr(cut + 1);
    if (cells.find(row) == cells.end()) row_order.push_back(row);
    auto& row_cells = cells[row];
    if (row_cells.find(family) == row_cells.end() &&
        std::find(family_order.begin(), family_order.end(), family) ==
            family_order.end()) {
      family_order.push_back(family);
    }
    row_cells[family] =
        report.found
            ? format_percent(report.result.utilization, 5) + ' ' +
                  format_percent(report.result.compute_idle_fraction, 4) +
                  ' ' + format_fixed(report.memory.total() / kGiB, 1, 5) + 'G'
            : "-";
  }

  std::vector<std::string> header = {"Point"};
  header.insert(header.end(), family_order.begin(), family_order.end());
  Table table(std::move(header));
  for (const std::string& row : row_order) {
    std::vector<std::string> line = {row};
    for (const std::string& family : family_order) {
      const auto it = cells[row].find(family);
      line.push_back(it == cells[row].end() ? "-" : it->second);
    }
    table.add_row(std::move(line));
  }
  return table;
}

std::string compare_legend() {
  return "cells: utilization  compute-idle  peak GB/GPU   "
         "('-' = infeasible on this point)\n";
}

}  // namespace bfpp::api
