// `bfpp compare`: head-to-head tables of the schedule zoo on the
// paper's fixed operating points.
//
// A compare grid is an ordinary ScenarioGrid - one cell per
// (operating point, batch size, schedule family) - so it runs through
// api::sweep on the CLI (byte-identical across --jobs) and through
// the same cached, coalesced cell path as a sweep on `bfpp serve`. The
// family columns put every rival schedule of docs/SCHEDULES.md next to
// breadth-first on the Figure 5/6 shapes:
//
//   bf           breadth-first, N_loop = 4 (ours)
//   df           depth-first, N_loop = 4, Megatron-LM flags
//   1f1b-async   PipeDream async-ordered 1F1B
//   unbalanced   BaPipe unbalanced stages (compute-balanced cuts)
//   v            controllable-memory V-schedule (N_loop = 2)
//   2bp          split backward (B_x now, B_w deferred)
//
// Cells whose family is structurally infeasible on a point become
// found == false rows (never holes), so the table stays rectangular.
#pragma once

#include <string>
#include <vector>

#include "api/report.h"
#include "api/sweep.h"
#include "common/table.h"

namespace bfpp::api {

// Builds the named grid, row-major in (point, batch, family) order with
// cell labels "model/b<batch>/<family>". Throws bfpp::ConfigError on an
// unknown grid name. The named grids, smallest first:
//   fig5-quick  6.6B point only, batches {64, 128} (CI smoke)
//   fig5        both Figure 5 points, full batch lists
//   fig6        the 52B shape on the Ethernet cluster, where inter-node
//               bandwidth rather than compute separates the schedules
ScenarioGrid compare_grid(const std::string& name);

// One row per (model, batch) point, one column per schedule family.
// Cells show "util% idle% memGB" (the 2BP column's higher memGB against
// its lower idle% is the deferred-B_w tradeoff); infeasible cells
// render "-". Reports must carry the compare_grid labels.
Table compare_table(const std::vector<Report>& reports);

// The one-line legend for the table's cell format.
std::string compare_legend();

}  // namespace bfpp::api
