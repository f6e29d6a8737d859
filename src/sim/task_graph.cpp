#include "sim/task_graph.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::sim {

std::string TaskMeta::label() const {
  std::string out(tag != nullptr ? tag : "");
  if (stage >= 0) {
    out += " s";
    out += std::to_string(stage);
  }
  if (micro_batch >= 0) {
    out += " m";
    out += std::to_string(micro_batch);
  }
  return out;
}

StreamId TaskGraph::add_stream(std::string name) {
  stream_names_.push_back(std::move(name));
  stream_order_.emplace_back();
  return static_cast<StreamId>(stream_names_.size()) - 1;
}

void TaskGraph::reserve(int tasks, int total_deps) {
  const auto n = static_cast<size_t>(std::max(tasks, 0));
  stream_.reserve(n);
  duration_.reserve(n);
  meta_.reserve(n);
  dep_begin_.reserve(n);
  dep_count_.reserve(n);
  defined_.reserve(n);
  deps_arena_.reserve(static_cast<size_t>(std::max(total_deps, 0)));
}

TaskId TaskGraph::reserve_task() {
  stream_.push_back(-1);
  duration_.push_back(0.0);
  meta_.emplace_back();
  dep_begin_.push_back(0);
  dep_count_.push_back(0);
  defined_.push_back(0);
  return static_cast<TaskId>(duration_.size()) - 1;
}

void TaskGraph::define_task(TaskId id, StreamId stream, double duration,
                            std::span<const TaskId> deps, TaskMeta meta) {
  check(id >= 0 && id < task_count(), "define_task: invalid task id");
  check(stream >= 0 && stream < stream_count(),
        "define_task: invalid stream id");
  check(duration >= 0.0, "define_task: negative duration");
  check(!defined_[static_cast<size_t>(id)],
        "define_task: task already defined");
  for (TaskId d : deps) {
    check(d >= 0 && d < task_count(), "define_task: invalid dependency id");
  }
  stream_[static_cast<size_t>(id)] = stream;
  duration_[static_cast<size_t>(id)] = duration;
  meta_[static_cast<size_t>(id)] = meta;
  dep_begin_[static_cast<size_t>(id)] = static_cast<int>(deps_arena_.size());
  dep_count_[static_cast<size_t>(id)] = static_cast<int>(deps.size());
  deps_arena_.insert(deps_arena_.end(), deps.begin(), deps.end());
  defined_[static_cast<size_t>(id)] = 1;
  stream_order_[static_cast<size_t>(stream)].push_back(id);
}

TaskId TaskGraph::add_task(StreamId stream, double duration,
                           std::span<const TaskId> deps, TaskMeta meta) {
  const TaskId id = reserve_task();
  define_task(id, stream, duration, deps, meta);
  return id;
}

void TaskGraph::set_duration(TaskId t, double duration) {
  check(t >= 0 && t < task_count(), "set_duration: invalid task id");
  check(defined_[static_cast<size_t>(t)], "set_duration: task not defined");
  check(duration >= 0.0, "set_duration: negative duration");
  duration_[static_cast<size_t>(t)] = duration;
}

SimResult run(const TaskGraph& graph) {
  const int n = graph.task_count();
  for (int i = 0; i < n; ++i) {
    check(graph.defined_[static_cast<size_t>(i)],
          "run: reserved task was never defined: id %d", i);
  }

  // Full dependency structure: explicit deps plus the implicit
  // same-stream predecessor edge, as a CSR successor table
  // (count, prefix-sum, fill) - no per-task successor vectors.
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  std::vector<int> succ_offset(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    indegree[static_cast<size_t>(i)] =
        graph.dep_count_[static_cast<size_t>(i)];
    for (TaskId d : graph.deps(i)) ++succ_offset[static_cast<size_t>(d) + 1];
  }
  for (StreamId s = 0; s < graph.stream_count(); ++s) {
    const auto& order = graph.stream_tasks(s);
    for (size_t k = 1; k < order.size(); ++k) {
      ++succ_offset[static_cast<size_t>(order[k - 1]) + 1];
      ++indegree[static_cast<size_t>(order[k])];
    }
  }
  for (int i = 0; i < n; ++i) {
    succ_offset[static_cast<size_t>(i) + 1] +=
        succ_offset[static_cast<size_t>(i)];
  }
  std::vector<TaskId> succ(static_cast<size_t>(succ_offset.back()));
  std::vector<int> succ_fill(succ_offset.begin(), succ_offset.end() - 1);
  for (int i = 0; i < n; ++i) {
    for (TaskId d : graph.deps(i)) {
      succ[static_cast<size_t>(succ_fill[static_cast<size_t>(d)]++)] = i;
    }
  }
  for (StreamId s = 0; s < graph.stream_count(); ++s) {
    const auto& order = graph.stream_tasks(s);
    for (size_t k = 1; k < order.size(); ++k) {
      succ[static_cast<size_t>(
          succ_fill[static_cast<size_t>(order[k - 1])]++)] = order[k];
    }
  }

  // Kahn's algorithm, propagating times. Processing order does not matter
  // for correctness because start times only depend on predecessors (a
  // max over end times), so the flat ready list below yields exactly the
  // times the pre-arena std::queue implementation produced.
  std::vector<TaskTime> times(static_cast<size_t>(n));
  std::vector<TaskId> ready;
  ready.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<size_t>(i)] == 0) ready.push_back(i);
  }
  size_t head = 0;
  double makespan = 0.0;
  std::vector<double> start(static_cast<size_t>(n), 0.0);
  while (head < ready.size()) {
    const TaskId t = ready[head++];
    auto& tt = times[static_cast<size_t>(t)];
    tt.start = start[static_cast<size_t>(t)];
    tt.end = tt.start + graph.duration(t);
    makespan = std::max(makespan, tt.end);
    const int lo = succ_offset[static_cast<size_t>(t)];
    const int hi = succ_offset[static_cast<size_t>(t) + 1];
    for (int k = lo; k < hi; ++k) {
      const TaskId s = succ[static_cast<size_t>(k)];
      auto& s_start = start[static_cast<size_t>(s)];
      s_start = std::max(s_start, tt.end);
      if (--indegree[static_cast<size_t>(s)] == 0) ready.push_back(s);
    }
  }

  if (static_cast<int>(ready.size()) != n) {
    // Deadlock: report a few blocked tasks to aid debugging schedules.
    std::vector<std::string> blocked;
    for (int i = 0; i < n && blocked.size() < 5; ++i) {
      if (indegree[static_cast<size_t>(i)] > 0) {
        blocked.push_back(
            str_format("#%d '%s' on %s", i, graph.label(i).c_str(),
                       graph.stream_name(graph.stream_of(i)).c_str()));
      }
    }
    throw Error("simulation deadlock (dependency cycle); blocked tasks: " +
                join(blocked, ", "));
  }

  std::vector<StreamStats> stats(static_cast<size_t>(graph.stream_count()));
  for (StreamId s = 0; s < graph.stream_count(); ++s) {
    auto& st = stats[static_cast<size_t>(s)];
    const auto& order = graph.stream_tasks(s);
    if (order.empty()) continue;
    st.first_start = times[static_cast<size_t>(order.front())].start;
    st.last_end = times[static_cast<size_t>(order.back())].end;
    for (TaskId t : order) st.busy += graph.duration(t);
  }

  return SimResult(std::move(times), std::move(stats), makespan);
}

}  // namespace bfpp::sim
