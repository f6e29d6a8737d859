// ASCII Gantt-chart renderer for simulated timelines.
//
// Reproduces the visual layout of the paper's Figure 4 and Figure 9:
// one text row per stream, time flowing left to right, to scale.
// Cell legend:
//   0-9  forward pass of micro-batch (index mod 10)
//   a-z  backward pass of micro-batch (index mod 26)
//   +    split-backward weight gradient (2BP B_w)
//   G    data-parallel gradient reduction
//   W    DP_FS weight reconstruction (all-gather)
//   S    optimizer step
//   >    pipeline-parallel transfer
//   T    tensor-parallel communication
//   .    idle
#pragma once

#include <string>
#include <vector>

#include "sim/task_graph.h"

namespace bfpp::sim {

struct GanttOptions {
  int width = 100;           // characters across the full makespan
  bool show_legend = true;   // append the legend block
};

// Renders the given streams (in order) as an ASCII chart. Streams not
// listed are omitted (e.g. to hide per-link transfer streams).
std::string render_gantt(const TaskGraph& graph, const SimResult& result,
                         const std::vector<StreamId>& streams,
                         const GanttOptions& options = {});

}  // namespace bfpp::sim
