// Discrete-event task-graph simulator.
//
// This is the substrate on which all pipeline-schedule experiments run.
// It models a cluster the way the paper's Figure 4 draws one: each device
// exposes a small number of *streams* (compute, data-parallel network,
// pipeline-parallel network), a stream executes its tasks strictly in
// submission order (in-order, one at a time, like a CUDA stream), and a
// task may additionally wait on tasks in other streams (like CUDA events).
//
// A task's start time is therefore
//     start = max(end(previous task in stream), max over deps end(dep))
// and its end time is start + duration. The pipeline bubble, the benefit
// of overlap, and the cost of blocking communication all emerge from this
// rule; nothing about scheduling quality is asserted anywhere else.
//
// Tasks may be *reserved* before they are defined, which allows encoding
// circular wait patterns (e.g. two devices that both block on a receive
// before their send). run() detects such cycles and reports them as
// deadlocks instead of silently mis-simulating.
//
// Storage layout: one flat record per task (stream, duration, meta,
// dependency extent and the next task of its stream), indexed by
// TaskId, and one contiguous arena holding every dependency list.
// Stream order is an intrusive list: each stream keeps its head and
// tail task, and each task links to the next task defined on its
// stream, so no stream owns a container. A builder that knows its sizes
// reserves both arrays once and writes every task in place; TaskMeta
// carries a static tag (see below) instead of an owned, eagerly
// formatted label string. run() builds a CSR table of the explicit
// dependency edges (count, prefix-sum, fill), follows the stream links
// for the implicit in-order edges, and drives Kahn's algorithm off a
// flat ready array. Task times are bit-identical to the pre-arena
// implementation (pinned by the golden corpus in tests/test_sim_diff.cpp,
// recorded against it) because start times are a max over predecessor
// end times, which is independent of both processing order and
// successor-list order.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace bfpp::sim {

using StreamId = int;
using TaskId = int;

inline constexpr TaskId kInvalidTask = -1;

// Classification used by timeline renderers and per-kind busy-time stats.
// The simulator itself treats all kinds identically.
enum class TaskKind {
  kGeneric = 0,
  kForward,
  kBackward,
  kBackwardInput,   // split backward: recompute + input gradient (2BP B_x)
  kBackwardWeight,  // split backward: deferred weight gradient (2BP B_w)
  kGradReduce,     // data-parallel gradient reduction (G in Fig. 4)
  kWeightGather,   // DP_FS weight reconstruction (W in Fig. 9)
  kOptimizerStep,  // S in Fig. 4
  kP2P,            // pipeline-parallel activation/gradient transfer
  kTensorComm,     // tensor-parallel all-reduce folded into compute
};

// Per-task metadata. POD by design: `tag` must point to storage that
// outlives the graph (in practice a string literal such as "F" or
// "recv b"); the human-readable label is synthesized on demand by
// label() as `tag[ s<stage>][ m<micro_batch>]`, so building a graph
// never formats strings.
struct TaskMeta {
  const char* tag = "";
  TaskKind kind = TaskKind::kGeneric;
  int stage = -1;        // pipeline stage index, if applicable
  int micro_batch = -1;  // micro-batch index, if applicable

  // Diagnostic label, e.g. {"F", ..., 2, 5} -> "F s2 m5". Matches the
  // strings the pre-arena implementation stored eagerly.
  [[nodiscard]] std::string label() const;
};

class SimResult;
class TaskGraph;
SimResult run(const TaskGraph& graph);

// A static DAG of tasks on in-order streams. Built once; run() only
// reads it, so concurrent runs may share one graph.
class TaskGraph {
 public:
  // Creates a stream (an in-order execution resource). `name` is used in
  // diagnostics and timeline output, e.g. "gpu0.compute".
  StreamId add_stream(std::string name);

  // Pre-sizes the task, dependency and stream arrays. Purely an
  // optimization: a builder that knows its counts (runtime::PipelineSim)
  // allocates each array once, at exactly the size it fills.
  void reserve(int tasks, int total_deps, int streams);

  // Adds a fully-defined task. `deps` are completion dependencies on
  // previously created (or reserved) tasks; the implicit predecessor in
  // the same stream is always an additional dependency.
  TaskId add_task(StreamId stream, double duration, std::span<const TaskId> deps,
                  const TaskMeta& meta = {});
  TaskId add_task(StreamId stream, double duration,
                  std::initializer_list<TaskId> deps,
                  const TaskMeta& meta = {}) {
    return add_task(stream, duration,
                    std::span<const TaskId>(deps.begin(), deps.size()), meta);
  }

  // Reserves `count` consecutive task ids, so that earlier tasks can
  // depend on them, and returns the first; each must be defined later
  // with define_task() before run().
  TaskId reserve_tasks(int count);
  void define_task(TaskId id, StreamId stream, double duration,
                   std::span<const TaskId> deps, const TaskMeta& meta = {});
  void define_task(TaskId id, StreamId stream, double duration,
                   std::initializer_list<TaskId> deps,
                   const TaskMeta& meta = {}) {
    define_task(id, stream, duration,
                std::span<const TaskId>(deps.begin(), deps.size()), meta);
  }

  [[nodiscard]] int task_count() const {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] int stream_count() const {
    return static_cast<int>(streams_.size());
  }
  [[nodiscard]] const std::string& stream_name(StreamId s) const {
    return streams_[static_cast<size_t>(s)].name;
  }
  [[nodiscard]] const TaskMeta& meta(TaskId t) const { return task(t).meta; }
  [[nodiscard]] std::string label(TaskId t) const { return meta(t).label(); }
  [[nodiscard]] StreamId stream_of(TaskId t) const { return task(t).stream; }
  // Dependencies of a task, in the order they were declared.
  [[nodiscard]] std::span<const TaskId> deps(TaskId t) const {
    return {deps_arena_.data() + task(t).dep_begin,
            static_cast<size_t>(task(t).dep_count)};
  }
  // Total dependency-arena size (sum of per-task dep counts).
  [[nodiscard]] int total_deps() const {
    return static_cast<int>(deps_arena_.size());
  }

  // The tasks of one stream in submission (== execution) order: a
  // forward range that walks the stream's next links.
  class StreamTasks {
   public:
    class iterator {
     public:
      iterator(const TaskGraph* graph, TaskId t) : graph_(graph), t_(t) {}
      TaskId operator*() const { return t_; }
      iterator& operator++() {
        t_ = graph_->task(t_).next;
        return *this;
      }
      bool operator==(const iterator& other) const { return t_ == other.t_; }

     private:
      const TaskGraph* graph_;
      TaskId t_;
    };
    StreamTasks(const TaskGraph* graph, TaskId head)
        : graph_(graph), head_(head) {}
    [[nodiscard]] iterator begin() const { return {graph_, head_}; }
    [[nodiscard]] iterator end() const { return {graph_, kInvalidTask}; }

   private:
    const TaskGraph* graph_;
    TaskId head_;
  };
  [[nodiscard]] StreamTasks stream_tasks(StreamId s) const {
    return {this, streams_[static_cast<size_t>(s)].head};
  }

 private:
  friend SimResult run(const TaskGraph& graph);

  struct Task {
    double duration = 0.0;
    TaskMeta meta;
    StreamId stream = -1;  // -1 while reserved but not yet defined
    int dep_begin = 0;     // offset into deps_arena_
    int dep_count = 0;
    TaskId next = kInvalidTask;  // the next task defined on `stream`
  };
  struct Stream {
    std::string name;
    TaskId head = kInvalidTask;  // first and last task defined on it
    TaskId tail = kInvalidTask;
  };

  [[nodiscard]] const Task& task(TaskId t) const {
    return tasks_[static_cast<size_t>(t)];
  }

  std::vector<Task> tasks_;
  // Shared dependency arena; each task's deps are one contiguous slice,
  // appended at define time (definition order, not id order).
  std::vector<TaskId> deps_arena_;
  std::vector<Stream> streams_;
};

struct TaskTime {
  double start = 0.0;
  double end = 0.0;
};

struct StreamStats {
  double busy = 0.0;        // sum of task durations
  double first_start = 0.0;
  double last_end = 0.0;
  // Idle time between the stream's first task start and last task end.
  [[nodiscard]] double idle_within_span() const {
    return (last_end - first_start) - busy;
  }
};

// The outcome of simulating a TaskGraph.
class SimResult {
 public:
  SimResult(std::vector<TaskTime> task_times, std::vector<StreamStats> stats,
            double makespan)
      : task_times_(std::move(task_times)),
        stream_stats_(std::move(stats)),
        makespan_(makespan) {}

  [[nodiscard]] double makespan() const { return makespan_; }
  [[nodiscard]] const TaskTime& time(TaskId t) const {
    return task_times_[static_cast<size_t>(t)];
  }
  [[nodiscard]] const StreamStats& stream(StreamId s) const {
    return stream_stats_[static_cast<size_t>(s)];
  }

 private:
  std::vector<TaskTime> task_times_;
  std::vector<StreamStats> stream_stats_;
  double makespan_ = 0.0;
};

// Runs the simulation. Throws bfpp::Error (with the names of some blocked
// tasks) if the graph contains a dependency cycle, i.e. the schedule
// deadlocks.
SimResult run(const TaskGraph& graph);

}  // namespace bfpp::sim
