#include "sim/gantt.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::sim {

namespace {

char cell_char(const TaskMeta& meta) {
  switch (meta.kind) {
    case TaskKind::kForward:
      return static_cast<char>('0' + (meta.micro_batch >= 0
                                          ? meta.micro_batch % 10
                                          : 0));
    case TaskKind::kBackward:
    case TaskKind::kBackwardInput:
      return static_cast<char>('a' + (meta.micro_batch >= 0
                                          ? meta.micro_batch % 26
                                          : 0));
    case TaskKind::kBackwardWeight:
      return '+';
    case TaskKind::kGradReduce:
      return 'G';
    case TaskKind::kWeightGather:
      return 'W';
    case TaskKind::kOptimizerStep:
      return 'S';
    case TaskKind::kP2P:
      return '>';
    case TaskKind::kTensorComm:
      return 'T';
    case TaskKind::kGeneric:
      return '#';
  }
  return '#';
}

}  // namespace

std::string render_gantt(const TaskGraph& graph, const SimResult& result,
                         const std::vector<StreamId>& streams,
                         const GanttOptions& options) {
  check(options.width > 0, "render_gantt: width must be positive");
  const double makespan = result.makespan();
  const double scale =
      makespan > 0.0 ? static_cast<double>(options.width) / makespan : 0.0;

  size_t name_width = 0;
  for (StreamId s : streams) {
    name_width = std::max(name_width, graph.stream_name(s).size());
  }

  std::string out;
  for (StreamId s : streams) {
    std::string row(static_cast<size_t>(options.width), '.');
    for (TaskId t : graph.stream_tasks(s)) {
      const TaskTime& tt = result.time(t);
      int lo = static_cast<int>(std::floor(tt.start * scale));
      int hi = static_cast<int>(std::ceil(tt.end * scale));
      lo = std::clamp(lo, 0, options.width - 1);
      hi = std::clamp(hi, lo + 1, options.width);
      const char c = cell_char(graph.meta(t));
      for (int x = lo; x < hi; ++x) row[static_cast<size_t>(x)] = c;
    }
    const std::string& name = graph.stream_name(s);
    out += name;
    out.append(name_width - name.size() + 1, ' ');
    out += "|" + row + "|\n";
  }
  out += str_format("%*s total: %s\n", static_cast<int>(name_width), "",
                    format_time(makespan).c_str());
  if (options.show_legend) {
    out +=
        "legend: 0-9 forward(mb)  a-z backward(mb)  + weight-grad  "
        "G grad-reduce  W weight-gather  S optimizer  > p2p  . idle\n";
  }
  return out;
}

}  // namespace bfpp::sim
