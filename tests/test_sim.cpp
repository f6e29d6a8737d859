// Tests for the discrete-event task-graph simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/gantt.h"
#include "sim/task_graph.h"

namespace bfpp::sim {
namespace {

// The message run() throws for `g`, or "" when it simulates.
std::string run_error(const TaskGraph& g) {
  try {
    (void)run(g);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A stream's tasks in execution order.
std::vector<TaskId> order_of(const TaskGraph& g, StreamId s) {
  std::vector<TaskId> out;
  for (TaskId t : g.stream_tasks(s)) out.push_back(t);
  return out;
}

TEST(TaskGraph, SingleTask) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  const TaskId t = g.add_task(s, 2.5, {});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(t).start, 0.0);
  EXPECT_DOUBLE_EQ(r.time(t).end, 2.5);
  EXPECT_DOUBLE_EQ(r.makespan(), 2.5);
}

TEST(TaskGraph, StreamSerializesTasks) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  const TaskId a = g.add_task(s, 1.0, {});
  const TaskId b = g.add_task(s, 2.0, {});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(a).end, 1.0);
  EXPECT_DOUBLE_EQ(r.time(b).start, 1.0);
  EXPECT_DOUBLE_EQ(r.time(b).end, 3.0);
}

TEST(TaskGraph, ParallelStreamsOverlap) {
  TaskGraph g;
  const StreamId s0 = g.add_stream("a");
  const StreamId s1 = g.add_stream("b");
  g.add_task(s0, 3.0, {});
  g.add_task(s1, 2.0, {});
  EXPECT_DOUBLE_EQ(run(g).makespan(), 3.0);
}

TEST(TaskGraph, CrossStreamDependencyDelaysStart) {
  TaskGraph g;
  const StreamId s0 = g.add_stream("a");
  const StreamId s1 = g.add_stream("b");
  const TaskId producer = g.add_task(s0, 4.0, {});
  const TaskId consumer = g.add_task(s1, 1.0, {producer});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(consumer).start, 4.0);
  EXPECT_DOUBLE_EQ(r.makespan(), 5.0);
}

TEST(TaskGraph, InOrderStreamBlocksSuccessors) {
  // Head-of-line blocking: task b waits on a slow producer; the later
  // task c (no deps) must still wait for b because streams are in-order.
  TaskGraph g;
  const StreamId s0 = g.add_stream("producer");
  const StreamId s1 = g.add_stream("consumer");
  const TaskId slow = g.add_task(s0, 10.0, {});
  const TaskId b = g.add_task(s1, 1.0, {slow});
  const TaskId c = g.add_task(s1, 1.0, {});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(b).start, 10.0);
  EXPECT_DOUBLE_EQ(r.time(c).start, 11.0);
}

TEST(TaskGraph, DiamondDependency) {
  TaskGraph g;
  const StreamId s = g.add_stream("a");
  const StreamId t = g.add_stream("b");
  const StreamId u = g.add_stream("c");
  const TaskId root = g.add_task(s, 1.0, {});
  const TaskId left = g.add_task(t, 2.0, {root});
  const TaskId right = g.add_task(u, 5.0, {root});
  const TaskId sink = g.add_task(s, 1.0, {left, right});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(sink).start, 6.0);
  EXPECT_DOUBLE_EQ(r.makespan(), 7.0);
}

TEST(TaskGraph, ZeroDurationTasks) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  const TaskId a = g.add_task(s, 0.0, {});
  const TaskId b = g.add_task(s, 0.0, {a});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(b).end, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan(), 0.0);
}

TEST(TaskGraph, ReservedTaskForwardDependency) {
  // A task may depend on a reserved (not yet defined) future task.
  TaskGraph g;
  const StreamId s0 = g.add_stream("a");
  const StreamId s1 = g.add_stream("b");
  const TaskId future = g.reserve_tasks(1);
  const TaskId waiter = g.add_task(s0, 1.0, {future});
  g.define_task(future, s1, 3.0, {});
  const SimResult r = run(g);
  EXPECT_DOUBLE_EQ(r.time(waiter).start, 3.0);
}

TEST(TaskGraph, UndefinedReservedTaskRejected) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  const TaskId future = g.reserve_tasks(1);
  g.add_task(s, 1.0, {future});
  EXPECT_EQ(run_error(g), "run: reserved task was never defined: id 0");
}

TEST(TaskGraph, DeadlockDetected) {
  // Two devices that both recv-before-send: a genuine schedule deadlock.
  TaskGraph g;
  const StreamId s0 = g.add_stream("dev0");
  const StreamId s1 = g.add_stream("dev1");
  const TaskId send0 = g.reserve_tasks(1);
  const TaskId send1 = g.reserve_tasks(1);
  // dev0 sends after dev1's send, and dev1 after dev0's.
  g.define_task(send0, s0, 1.0, {send1}, {"send", TaskKind::kP2P, 0, 3});
  g.define_task(send1, s1, 1.0, {send0}, {"send", TaskKind::kP2P, 1, 3});
  EXPECT_EQ(run_error(g),
            "simulation deadlock (dependency cycle); blocked tasks: "
            "#0 'send s0 m3' on dev0, #1 'send s1 m3' on dev1");
}

TEST(TaskGraph, DeadlockViaStreamOrder) {
  // The cycle goes through implicit in-stream ordering, not only deps.
  TaskGraph g;
  const StreamId s0 = g.add_stream("dev0");
  const StreamId s1 = g.add_stream("dev1");
  const TaskId recv0 = g.reserve_tasks(1);
  const TaskId send1 = g.reserve_tasks(1);
  g.define_task(recv0, s0, 1.0, {send1});     // dev0 blocks on dev1's send
  const TaskId send0 = g.add_task(s0, 1.0, {});  // queued behind recv0
  g.define_task(send1, s1, 1.0, {send0});     // dev1 waits on dev0's send
  // send0 is blocked only by its in-stream predecessor.
  EXPECT_EQ(run_error(g),
            "simulation deadlock (dependency cycle); blocked tasks: "
            "#0 '' on dev0, #1 '' on dev1, #2 '' on dev0");
}

TEST(TaskGraph, StreamOrderIsDefinitionOrderNotIdOrder) {
  // Reserved ids defined out of id order on two interleaved streams: a
  // stream runs its tasks in the order they were defined on it.
  TaskGraph g;
  const StreamId a = g.add_stream("a");
  const StreamId b = g.add_stream("b");
  const TaskId first = g.reserve_tasks(4);
  g.define_task(first + 3, a, 2.0, {});
  g.define_task(first + 1, b, 1.0, {first + 3});
  g.define_task(first + 0, a, 1.0, {});
  const TaskId tail = g.add_task(b, 0.5, {first + 0});
  g.define_task(first + 2, a, 3.0, {first + 1});
  ASSERT_EQ(first, 0);
  EXPECT_EQ(order_of(g, a), (std::vector<TaskId>{3, 0, 2}));
  EXPECT_EQ(order_of(g, b), (std::vector<TaskId>{1, tail}));
  EXPECT_EQ(tail, 4);

  const SimResult r = run(g);
  const double want[][2] = {{2, 3}, {2, 3}, {3, 6}, {0, 2}, {3, 3.5}};
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_EQ(r.time(t).start, want[t][0]) << "task " << t;
    EXPECT_EQ(r.time(t).end, want[t][1]) << "task " << t;
  }
  EXPECT_EQ(r.makespan(), 6.0);
  EXPECT_EQ(r.stream(a).busy, 6.0);
  EXPECT_EQ(r.stream(a).first_start, 0.0);
  EXPECT_EQ(r.stream(a).last_end, 6.0);
  EXPECT_EQ(r.stream(b).busy, 1.5);
  EXPECT_EQ(r.stream(b).first_start, 2.0);
  EXPECT_EQ(r.stream(b).last_end, 3.5);
}

TEST(TaskGraph, EmptyStreamHasNoTasks) {
  TaskGraph g;
  const StreamId used = g.add_stream("used");
  const StreamId idle = g.add_stream("idle");
  g.add_task(used, 1.0, {});
  EXPECT_TRUE(order_of(g, idle).empty());
  const SimResult r = run(g);
  EXPECT_EQ(r.stream(idle).busy, 0.0);
  EXPECT_EQ(r.stream(idle).last_end, 0.0);
}

TEST(TaskGraph, StreamStatsBusyAndIdle) {
  TaskGraph g;
  const StreamId s0 = g.add_stream("a");
  const StreamId s1 = g.add_stream("b");
  const TaskId gap = g.add_task(s0, 4.0, {});
  g.add_task(s1, 1.0, {});
  g.add_task(s1, 1.0, {gap});
  const SimResult r = run(g);
  const StreamStats& st = r.stream(s1);
  EXPECT_DOUBLE_EQ(st.busy, 2.0);
  EXPECT_DOUBLE_EQ(st.first_start, 0.0);
  EXPECT_DOUBLE_EQ(st.last_end, 5.0);
  EXPECT_DOUBLE_EQ(st.idle_within_span(), 3.0);
}

TEST(TaskGraph, NegativeDurationRejected) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  EXPECT_THROW(g.add_task(s, -1.0, {}), Error);
}

TEST(TaskGraph, InvalidDependencyRejected) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  EXPECT_THROW(g.add_task(s, 1.0, {42}), Error);
}

TEST(TaskGraph, DoubleDefineRejected) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  const TaskId t = g.reserve_tasks(1);
  g.define_task(t, s, 1.0, {});
  EXPECT_THROW(g.define_task(t, s, 1.0, {}), Error);
}

TEST(TaskGraph, LargeChainIsLinear) {
  TaskGraph g;
  const StreamId s = g.add_stream("s");
  TaskId prev = g.add_task(s, 1.0, {});
  for (int i = 0; i < 9999; ++i) prev = g.add_task(s, 1.0, {prev});
  EXPECT_DOUBLE_EQ(run(g).makespan(), 10000.0);
}

TEST(Gantt, RendersRowsToScale) {
  TaskGraph g;
  const StreamId s = g.add_stream("gpu0");
  g.add_task(s, 1.0, {}, {"f0", TaskKind::kForward, 0, 0});
  g.add_task(s, 1.0, {}, {"b0", TaskKind::kBackward, 0, 0});
  const SimResult r = run(g);
  GanttOptions opt;
  opt.width = 10;
  const std::string chart = render_gantt(g, r, {s}, opt);
  EXPECT_NE(chart.find("gpu0 |00000aaaaa|"), std::string::npos);
}

TEST(Gantt, IdleShownAsDots) {
  TaskGraph g;
  const StreamId s0 = g.add_stream("a");
  const StreamId s1 = g.add_stream("b");
  const TaskId slow = g.add_task(s0, 4.0, {}, {"w", TaskKind::kForward, 0, 1});
  g.add_task(s1, 4.0, {slow}, {"x", TaskKind::kBackward, 0, 2});
  const SimResult r = run(g);
  GanttOptions opt;
  opt.width = 8;
  opt.show_legend = false;
  const std::string chart = render_gantt(g, r, {s0, s1}, opt);
  EXPECT_NE(chart.find("a |1111....|"), std::string::npos);
  EXPECT_NE(chart.find("b |....cccc|"), std::string::npos);
}

}  // namespace
}  // namespace bfpp::sim
