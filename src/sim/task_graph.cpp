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
  streams_.push_back({std::move(name)});
  return static_cast<StreamId>(streams_.size()) - 1;
}

void TaskGraph::reserve(int tasks, int total_deps, int streams) {
  tasks_.reserve(static_cast<size_t>(std::max(tasks, 0)));
  deps_arena_.reserve(static_cast<size_t>(std::max(total_deps, 0)));
  streams_.reserve(static_cast<size_t>(std::max(streams, 0)));
}

TaskId TaskGraph::reserve_tasks(int count) {
  check(count >= 0, "reserve_tasks: negative count");
  const auto first = static_cast<TaskId>(tasks_.size());
  tasks_.resize(tasks_.size() + static_cast<size_t>(count));
  return first;
}

void TaskGraph::define_task(TaskId id, StreamId stream, double duration,
                            std::span<const TaskId> deps,
                            const TaskMeta& meta) {
  check(id >= 0 && id < task_count(), "define_task: invalid task id");
  check(stream >= 0 && stream < stream_count(),
        "define_task: invalid stream id");
  check(duration >= 0.0, "define_task: negative duration");
  Task& t = tasks_[static_cast<size_t>(id)];
  check(t.stream < 0, "define_task: task already defined");
  for (TaskId d : deps) {
    check(d >= 0 && d < task_count(), "define_task: invalid dependency id");
  }
  t.duration = duration;
  t.meta = meta;
  t.stream = stream;
  t.dep_begin = static_cast<int>(deps_arena_.size());
  t.dep_count = static_cast<int>(deps.size());
  for (TaskId d : deps) deps_arena_.push_back(d);
  Stream& s = streams_[static_cast<size_t>(stream)];
  if (s.tail == kInvalidTask) {
    s.head = id;
  } else {
    tasks_[static_cast<size_t>(s.tail)].next = id;
  }
  s.tail = id;
}

TaskId TaskGraph::add_task(StreamId stream, double duration,
                           std::span<const TaskId> deps,
                           const TaskMeta& meta) {
  const auto id = static_cast<TaskId>(tasks_.size());
  tasks_.emplace_back();
  define_task(id, stream, duration, deps, meta);
  return id;
}

SimResult run(const TaskGraph& graph) {
  const int n = graph.task_count();
  const auto un = static_cast<size_t>(n);
  const std::vector<TaskGraph::Task>& tasks = graph.tasks_;

  // One scratch buffer: indegree[n], succ_begin[n + 1], succ[explicit
  // deps], ready[n]. The CSR table holds the explicit dependency edges
  // only; a task's in-stream successor is its `next` link.
  std::vector<int> scratch(3 * un + 1 + graph.deps_arena_.size(), 0);
  int* const indegree = scratch.data();
  int* const succ_begin = indegree + n;
  int* const succ = succ_begin + n + 1;
  int* const ready = succ + graph.deps_arena_.size();
  for (int i = 0; i < n; ++i) {
    const TaskGraph::Task& t = tasks[static_cast<size_t>(i)];
    if (t.stream < 0) {
      throw Error(
          str_format("run: reserved task was never defined: id %d", i));
    }
    indegree[i] += t.dep_count;
    if (t.next != kInvalidTask) ++indegree[t.next];
    for (TaskId d : graph.deps(i)) ++succ_begin[d];
  }
  // Inclusive prefix sum: succ_begin[d] is the end of d's successor
  // list; filling backwards leaves it at the list's start.
  for (int i = 1; i <= n; ++i) succ_begin[i] += succ_begin[i - 1];
  for (int i = n - 1; i >= 0; --i) {
    for (TaskId d : graph.deps(i)) succ[--succ_begin[d]] = i;
  }

  // Kahn's algorithm, propagating times. Processing order does not matter
  // for correctness because start times only depend on predecessors (a
  // max over end times), so the flat ready list below yields exactly the
  // times the pre-arena std::queue implementation produced. A task is
  // processed only after its stream predecessor (the next link is an
  // edge), so each stream's busy time sums its durations in stream order.
  std::vector<TaskTime> times(un);
  std::vector<StreamStats> stats(graph.streams_.size());
  int ready_end = 0;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready[ready_end++] = i;
  }
  auto release = [&](TaskId s, double end) {
    double& start = times[static_cast<size_t>(s)].start;
    start = std::max(start, end);
    if (--indegree[s] == 0) ready[ready_end++] = s;
  };
  double makespan = 0.0;
  for (int head = 0; head < ready_end; ++head) {
    const TaskId t = ready[head];
    const TaskGraph::Task& task = tasks[static_cast<size_t>(t)];
    TaskTime& tt = times[static_cast<size_t>(t)];
    tt.end = tt.start + task.duration;
    makespan = std::max(makespan, tt.end);
    stats[static_cast<size_t>(task.stream)].busy += task.duration;
    for (int k = succ_begin[t]; k < succ_begin[t + 1]; ++k) {
      release(succ[k], tt.end);
    }
    if (task.next != kInvalidTask) release(task.next, tt.end);
  }

  if (ready_end != n) {
    // Deadlock: report a few blocked tasks to aid debugging schedules.
    std::vector<std::string> blocked;
    for (int i = 0; i < n && blocked.size() < 5; ++i) {
      if (indegree[i] > 0) {
        blocked.push_back(
            str_format("#%d '%s' on %s", i, graph.label(i).c_str(),
                       graph.stream_name(graph.stream_of(i)).c_str()));
      }
    }
    throw Error("simulation deadlock (dependency cycle); blocked tasks: " +
                join(blocked, ", "));
  }

  for (size_t s = 0; s < stats.size(); ++s) {
    const TaskGraph::Stream& stream = graph.streams_[s];
    if (stream.head == kInvalidTask) continue;
    stats[s].first_start = times[static_cast<size_t>(stream.head)].start;
    stats[s].last_end = times[static_cast<size_t>(stream.tail)].end;
  }

  return SimResult(std::move(times), std::move(stats), makespan);
}

}  // namespace bfpp::sim
