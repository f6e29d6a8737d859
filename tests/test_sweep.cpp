// Tests for the multi-backend execution layer and parallel sweep
// campaigns: the shared work-stealing thread pool, the Engine backends
// (simulator / analytic / threaded), SweepBuilder grids, sweep()
// determinism across thread counts, and the sweep/validate CLI surface.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/cli.h"
#include "api/compare.h"
#include "api/engine.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace bfpp::api {
namespace {

// The message of the E that `f` throws ("" when it throws none).
template <class E, class F>
std::string error_text(F f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

// ---- Thread pool ----

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, 8, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialAndEmptyLoops) {
  ThreadPool pool(2);
  int sum = 0;  // jobs = 1 runs inline on the caller: no races
  pool.parallel_for(5, 1, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 10);
  pool.parallel_for(0, 8, [&](int) { FAIL() << "empty loop ran a body"; });
}

TEST(ThreadPool, NestedLoopsDoNotDeadlock) {
  // A 1-worker pool forces the nested waits onto the helping path.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(4, 4, [&](int) {
    pool.parallel_for(8, 4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, RethrowsTheLowestIndexError) {
  ThreadPool pool(4);
  for (int jobs : {1, 4}) {
    try {
      pool.parallel_for(64, jobs, [](int i) {
        if (i % 7 == 3) {  // lowest failing index is 3
          throw ConfigError("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected throw";
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "jobs=" << jobs;
    }
  }
}

TEST(ThreadPool, ResolveJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.resolve_jobs(0), 4);  // workers + caller
  EXPECT_EQ(pool.resolve_jobs(2), 2);
}

TEST(ThreadPool, SubmitRunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> runs(200);
  std::atomic<size_t> finished{0};
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < runs.size(); ++i) {
      pool.submit([&runs, &finished, i] {
        runs[i].fetch_add(1);
        finished.fetch_add(1);
      });
    }
    while (finished.load() < runs.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, DestructionRunsQueuedTasksBeforeJoining) {
  // The one worker is held in the first task until 20 ms after the
  // pool's scope closes, so the other tasks are still queued when the
  // destructor starts.
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  std::thread releaser;
  {
    ThreadPool pool(1);
    pool.submit([&] {
      held = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (int i = 0; i < 50; ++i) pool.submit([&] { ran.fetch_add(1); });
    while (!held) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release = true;
    });
  }
  releaser.join();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SubmittedTaskCanRunASharedParallelFor) {
  // What a server executor does: its compute() runs the request's cells
  // through ThreadPool::shared().
  std::atomic<int> total{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 4; ++t) {
      pool.submit([&total] {
        ThreadPool::shared().parallel_for(
            32, 0, [&total](int) { total.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(total.load(), 4 * 32);
}

// The non-blocking loop, waited on by polling: a test must not block a
// pool thread on it.
void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ThreadPool, AsyncLoopRunsEveryIndexOnceThenDoneOnceOnTheLastThread) {
  ThreadPool pool(4);
  for (const int width : {1, 3, 0, 64}) {
    constexpr int kN = 200;
    std::vector<std::atomic<int>> runs(kN);
    std::vector<std::thread::id> ran_on(kN);  // index i's slot: fn(i) only
    std::atomic<int> returned{0};
    std::atomic<int> done_calls{0};
    std::atomic<bool> finished{false};
    int returned_at_done = -1;
    std::thread::id done_on;
    pool.parallel_for_async(
        kN, width,
        [&](int i) {
          runs[static_cast<size_t>(i)].fetch_add(1);
          ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
          returned.fetch_add(1);
        },
        [&](std::exception_ptr error) {
          EXPECT_EQ(error, nullptr);
          returned_at_done = returned.load();
          done_on = std::this_thread::get_id();
          done_calls.fetch_add(1);
          finished = true;
        });
    wait_for(finished);
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1) << "width " << width;
    EXPECT_EQ(returned_at_done, kN);  // after every fn call returned
    // On a pool thread that ran an index, never on the starting thread.
    EXPECT_NE(done_on, std::this_thread::get_id());
    EXPECT_NE(std::find(ran_on.begin(), ran_on.end(), done_on), ran_on.end());
    if (width == 1) {
      // One driver: every index and done ran on that one thread.
      for (const std::thread::id& id : ran_on) EXPECT_EQ(id, done_on);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(done_calls.load(), 1);
  }
}

TEST(ThreadPool, AsyncLoopHandsTheLowestIndexErrorToDone) {
  ThreadPool pool(4);
  for (const int width : {1, 4, 0}) {
    std::atomic<bool> finished{false};
    std::string message;
    pool.parallel_for_async(
        64, width,
        [](int i) {
          if (i % 7 == 3) throw ConfigError("item " + std::to_string(i));
        },
        [&](std::exception_ptr error) {
          message = error_text<ConfigError>([&] {
            if (error) std::rethrow_exception(error);
          });
          finished = true;
        });
    wait_for(finished);
    EXPECT_EQ(message, "item 3") << "width " << width;
  }
}

TEST(ThreadPool, AsyncLoopOfNothingRunsDoneAtOnceOnTheCaller) {
  ThreadPool pool(2);
  bool done = false;
  pool.parallel_for_async(
      0, 4, [](int) { FAIL() << "empty loop ran a body"; },
      [&](std::exception_ptr error) {
        EXPECT_EQ(error, nullptr);
        done = true;
      });
  EXPECT_TRUE(done);  // no thread hop: set before the call returned
}

TEST(ThreadPool, AsyncLoopStartsFromInsideAPoolTask) {
  // What a served request's follower does when its leader abandons: it
  // may start cells from a pool thread, which must not wait for them.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::atomic<int> loops_done{0};
  std::atomic<bool> outer_done{false};
  pool.parallel_for_async(
      4, 0,
      [&](int) {
        pool.parallel_for_async(
            16, 0, [&](int) { total.fetch_add(1); },
            [&](std::exception_ptr) { loops_done.fetch_add(1); });
      },
      [&](std::exception_ptr) { outer_done = true; });
  wait_for(outer_done);
  while (loops_done.load() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(total.load(), 4 * 16);
}

TEST(ThreadPool, AsyncLoopDrivenByTheCallerKeepsWidthOneSerial) {
  ThreadPool pool(2);
  std::vector<std::thread::id> ran_on(8);
  bool done = false;
  pool.parallel_for_async(
      8, 1,
      [&](int i) {
        ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      },
      [&](std::exception_ptr) { done = true; }, /*caller_drives=*/true);
  EXPECT_TRUE(done);  // the caller was the only driver
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// Lowers the soft RLIMIT_NPROC, which caps a user's threads and
// processes together, to `limit`, keeping the hard one.
bool set_thread_cap(rlim_t limit) {
  rlimit cap{};
  if (::getrlimit(RLIMIT_NPROC, &cap) != 0 || cap.rlim_max < limit) {
    return false;
  }
  cap.rlim_cur = limit;
  return ::setrlimit(RLIMIT_NPROC, &cap) == 0;
}

// Forking a multi-threaded process and then spawning threads in the child
// is outside what ThreadSanitizer supports.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BFPP_TSAN 1
#endif
#endif

TEST(ThreadPool, RunsWithTheThreadsThatSpawnAndThrowsWhenNoneDo) {
#if defined(__SANITIZE_THREAD__) || defined(BFPP_TSAN)
  GTEST_SKIP() << "fork + threads under TSan";
#endif
  // A forked child runs as nobody when the test runs as root, whom
  // RLIMIT_NPROC does not bind. It fills a cap of 1 itself, so that pool
  // must throw. The user's other threads are not known, so the cap then
  // rises one step at a time: the first pool that constructs had room
  // for about one thread, far fewer than it asked for, and must still
  // run tasks.
  constexpr int kAsked = 64;
  constexpr int kSkip = 77;
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stderr);  // the pool's spawn warning
    if (::geteuid() == 0 && (::setgid(65534) != 0 || ::setuid(65534) != 0)) {
      ::_exit(kSkip);
    }
    for (rlim_t limit = 1; limit <= (rlim_t{1} << 15); ++limit) {
      if (!set_thread_cap(limit)) ::_exit(kSkip);
      try {
        ThreadPool pool(kAsked);
        if (pool.size() == kAsked) ::_exit(kSkip);  // the cap does not bind
        if (limit == 1) ::_exit(1);                 // it spawned past the cap
        std::atomic<bool> ran{false};
        pool.submit([&ran] { ran = true; });
        while (!ran) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ::_exit(0);
      } catch (const ConfigError&) {
        // No room yet: no thread spawned.
      }
    }
    ::_exit(kSkip);
  }
  int status = 0;
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == kSkip) {
    GTEST_SKIP() << "RLIMIT_NPROC does not bind";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- Backends ----

TEST(Backend, NamesRoundTrip) {
  for (Backend b :
       {Backend::kSimulator, Backend::kAnalytic, Backend::kThreaded}) {
    EXPECT_EQ(parse_backend(to_string(b)), b);
  }
  EXPECT_EQ(parse_backend("SIM"), Backend::kSimulator);
  EXPECT_EQ(parse_backend("theory"), Backend::kAnalytic);
  EXPECT_EQ(parse_backend("exec"), Backend::kThreaded);
  EXPECT_THROW(parse_backend("cuda"), ConfigError);
}

Scenario fig5a(int batch) {
  return ScenarioBuilder()
      .model("52b")
      .cluster("dgx1-v100-ib")
      .pp(8)
      .tp(8)
      .nmb(batch)
      .schedule("bf")
      .loop(4)
      .build();
}

TEST(Backend, AnalyticTracksTheSimulatorOnFigure5a) {
  // The closed-form model and the simulator implement the same paper;
  // on the Figure 5a operating point they must agree on batch time
  // within tolerance (the analytic path skips latency interleaving and
  // reconstruction stalls, so exact equality is not expected).
  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  const BackendComparison cmp =
      compare_backends(fig5a(16).model, fig5a(16).require_config(),
                       fig5a(16).cluster, *make_engine({}), *make_engine(analytic));
  EXPECT_GT(cmp.candidate.utilization, 0.3);
  EXPECT_LT(std::abs(cmp.batch_time_deviation), 0.15);
  EXPECT_LT(std::abs(cmp.utilization_deviation), 0.15);
}

TEST(Backend, AnalyticPrunesLikeTheSimulator) {
  // Invalid and out-of-memory configurations must throw the same error
  // classes so a search prunes the same space on either backend.
  const Scenario oom = ScenarioBuilder()
                           .model("52b")
                           .cluster("dgx1-v100-ib")
                           .pp(1)
                           .tp(1)
                           .dp(64)
                           .nmb(1)
                           .schedule("gpipe")
                           .build();
  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  EXPECT_THROW(run(oom, analytic), OutOfMemoryError);
  const Report row =
      run_cell(oom, "oom", std::nullopt, *make_engine(analytic), analytic);
  EXPECT_FALSE(row.found);
  EXPECT_EQ(row.error.rfind("[oom] ", 0), 0u);
}

TEST(Backend, AnalyticSearchFindsAConfig) {
  // The fast path for huge grids: a full method search on the
  // closed-form model.
  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  analytic.threads = 2;
  const Report report = search(ScenarioBuilder()
                                   .model("6.6b")
                                   .cluster("dgx1-v100-ib")
                                   .batch(64)
                                   .build(),
                               autotune::Method::kBreadthFirst, analytic);
  EXPECT_TRUE(report.found);
  EXPECT_GT(report.evaluated, 0);
  EXPECT_EQ(report.config.batch_size(), 64);
  EXPECT_GT(report.result.utilization, 0.2);
}

TEST(Backend, ThreadedExecutesSmallShapesForReal) {
  // 4 devices x 2 loops x 8 micro-batches on real OS threads; the
  // backend bitwise-checks gradients against serial execution and
  // reports the measured wall-clock.
  const Scenario s = ScenarioBuilder()
                         .model("6.6b")
                         .cluster("dgx1-v100-ib")
                         .pp(4)
                         .tp(2)
                         .dp(8)
                         .smb(1)
                         .nmb(8)
                         .schedule("bf")
                         .loop(2)
                         .build();
  RunOptions threaded;
  threaded.backend = Backend::kThreaded;
  const Report report = run(s, threaded);
  EXPECT_TRUE(report.found);
  EXPECT_GT(report.result.batch_time, 0.0);
  EXPECT_DOUBLE_EQ(report.result.throughput_per_gpu, 0.0);  // proxy shape
  EXPECT_GT(report.memory.total(), 0.0);  // memory model still applies
}

TEST(Backend, ThreadedRejectsLargeShapes) {
  const Scenario s = ScenarioBuilder()
                         .model("52b")
                         .cluster("dgx1-v100-ib:64")
                         .pp(8)
                         .tp(8)
                         .dp(8)
                         .nmb(512)
                         .schedule("bf")
                         .loop(4)
                         .build();
  RunOptions threaded;
  threaded.backend = Backend::kThreaded;
  EXPECT_THROW(run(s, threaded), ConfigError);
  const Report row =
      run_cell(s, "big", std::nullopt, *make_engine(threaded), threaded);
  EXPECT_FALSE(row.found);
  EXPECT_EQ(row.error.rfind("[config] ", 0), 0u);
}

// run_cell turns exactly the two configuration-rejection errors into
// found=false rows; anything else is a programming error and must
// propagate.
class ThrowingEngine : public Engine {
 public:
  explicit ThrowingEngine(int kind) : kind_(kind) {}
  [[nodiscard]] Backend backend() const override {
    return Backend::kSimulator;
  }
  [[nodiscard]] runtime::RunResult evaluate(
      const model::TransformerSpec&, const parallel::ParallelConfig&,
      const hw::ClusterSpec&) const override {
    if (kind_ == 0) throw ConfigError("config");
    if (kind_ == 1) throw OutOfMemoryError("oom");
    throw Error("programming error");
  }

 private:
  int kind_;
};

TEST(RunCell, AbsorbsOnlyConfigurationErrors) {
  const Scenario s = fig5a(16);
  const Report config = run_cell(s, "c", std::nullopt, ThrowingEngine(0), {});
  EXPECT_FALSE(config.found);
  EXPECT_EQ(config.error, "[config] config");
  const Report oom = run_cell(s, "o", std::nullopt, ThrowingEngine(1), {});
  EXPECT_FALSE(oom.found);
  EXPECT_EQ(oom.error, "[oom] oom");
  EXPECT_THROW(run_cell(s, "e", std::nullopt, ThrowingEngine(2), {}), Error);
}

// ---- SweepBuilder / ScenarioGrid ----

TEST(SweepBuilder, ProductOrderIsMethodMajorThenBatch) {
  const ScenarioGrid grid = SweepBuilder()
                                .models({"6.6b"})
                                .clusters({"dgx1-v100-eth"})
                                .batches({16, 64})
                                .methods({"bf", "df"})
                                .build();
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid.cells()[0].label, "6.6b/dgx1-v100-eth/bf/b16");
  EXPECT_EQ(grid.cells()[1].label, "6.6b/dgx1-v100-eth/bf/b64");
  EXPECT_EQ(grid.cells()[2].label, "6.6b/dgx1-v100-eth/df/b16");
  EXPECT_EQ(grid.cells()[3].label, "6.6b/dgx1-v100-eth/df/b64");
  EXPECT_EQ(*grid.cells()[2].method, autotune::Method::kDepthFirst);
}

TEST(SweepBuilder, RunGridsComposeAxesOverABase) {
  const ScenarioGrid grid =
      SweepBuilder()
          .base(ScenarioBuilder().model("52b").cluster("dgx1-v100-ib").smb(1))
          .axes({.schedule = {"bf"},
                 .pp = {8},
                 .tp = {8},
                 .nmb = {16, 32},
                 .loop = {2, 4}})
          .build();
  ASSERT_EQ(grid.size(), 4u);  // nmb x loop
  const Scenario first = grid.cells()[0].scenario.build();
  EXPECT_EQ(first.config->n_mb, 16);
  EXPECT_EQ(first.config->n_loop, 2);
  EXPECT_FALSE(grid.cells()[0].method.has_value());
}

TEST(SweepBuilder, AStepOntoTheNextVariantStartsFromTheBase) {
  // The walk keeps one working builder. A variant's loop count and
  // megatron flag must not stick to it: gpipe after a megatron df/loop4
  // is plain gpipe, and so is every cell of the next batch.
  const std::vector<SweepVariant> variants = {
      {"df", "df", 4, true},
      {"gpipe", "gpipe", std::nullopt, false},
      {"1f1b", "1f1b", std::nullopt, true},
      {"bf", "bf", 2, false},
  };
  const ScenarioBuilder base =
      ScenarioBuilder().model("52b").cluster("dgx1-v100-ib").pp(8).tp(8).smb(
          1);
  SweepBuilder sweep;
  sweep.base(base).batches({16, 32}).variants(variants);
  std::vector<std::string> labels;
  std::vector<parallel::ParallelConfig> walked;
  sweep.walk([&](const ScenarioBuilder& cell,
                 const std::optional<autotune::Method>& method,
                 const std::string& label) {
    EXPECT_FALSE(method.has_value());
    labels.push_back(label);
    const Scenario built = cell.build();
    EXPECT_EQ(built.name, label);
    walked.push_back(*built.config);
  });
  ASSERT_EQ(walked.size(), 8u);
  size_t i = 0;
  for (const int batch : {16, 32}) {
    for (const SweepVariant& variant : variants) {
      ScenarioBuilder expected = base;
      expected.batch(batch).schedule(variant.schedule);
      if (variant.loop) expected.loop(*variant.loop);
      if (variant.megatron) expected.megatron();
      EXPECT_EQ(labels[i], "b" + std::to_string(batch) + "/" + variant.label);
      EXPECT_EQ(walked[i].describe(), expected.build().config->describe())
          << labels[i];
      ++i;
    }
  }
  // build() collects the same walk.
  const ScenarioGrid grid = sweep.build();
  ASSERT_EQ(grid.size(), labels.size());
  for (size_t c = 0; c < grid.size(); ++c) {
    EXPECT_EQ(grid.cells()[c].label, labels[c]);
    EXPECT_EQ(grid.cells()[c].scenario.build().config->describe(),
              walked[c].describe());
  }
}

TEST(SweepBuilder, MethodsRejectGridAxes) {
  EXPECT_THROW(
      SweepBuilder().axes({.method = {"bf"}, .batch = {16}, .pp = {8}}).build(),
      ConfigError);
  EXPECT_THROW(SweepBuilder().methods({"bf"}).build(), ConfigError);
  EXPECT_THROW(SweepBuilder().build(), ConfigError);  // empty grid
}

TEST(AxisTable, NamesTheTwelveAxesOnceInNestingOrder) {
  std::vector<std::string> names;
  for (const AxisSpec& axis : scenario_axes()) {
    names.push_back(axis.name);
    EXPECT_EQ(find_axis(axis.name), &axis);
    EXPECT_NE(axis.names == nullptr, axis.ints == nullptr) << axis.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "model", "cluster", "method", "batch", "schedule",
                       "sharding", "pp", "tp", "dp", "smb", "nmb", "loop"}));
  EXPECT_EQ(find_axis("--pp"), nullptr);
  // A search may set only model, cluster, method and batch.
  ScenarioAxes axes;
  axes.model = {"6.6b"};
  axes.cluster = {"dgx1-v100-ib"};
  axes.method = {"bf"};
  axes.batch = {64};
  EXPECT_FALSE(pins_configuration(axes));
  axes.loop = {0};
  EXPECT_TRUE(pins_configuration(axes));
}

TEST(SweepBuilder, ZeroAndEmptyValuesAreValuesNotUnset) {
  // Only an empty list leaves an axis unset: 0 is applied and labelled
  // (its cell fails to build, a [config] row), and "" is a name that no
  // schedule has.
  const ScenarioGrid grid = SweepBuilder()
                                .axes({.model = {"6.6b"},
                                       .cluster = {"dgx1-v100-ib"},
                                       .pp = {0, 4},
                                       .tp = {2},
                                       .nmb = {8}})
                                .build();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.cells()[0].label, "6.6b/dgx1-v100-ib/pp0/tp2/nmb8");
  EXPECT_EQ(grid.cells()[1].label, "6.6b/dgx1-v100-ib/pp4/tp2/nmb8");
  EXPECT_THROW((void)grid.cells()[0].scenario.build(), ConfigError);
  EXPECT_EQ(grid.cells()[1].scenario.build().config->n_pp, 4);
  EXPECT_EQ(SweepBuilder().batches({0}).build().cells()[0].label, "b0");
  EXPECT_THROW(
      (void)SweepBuilder().axes({.model = {"6.6b"}, .schedule = {""}}).build(),
      ConfigError);
}

// ---- sweep() ----

TEST(Sweep, OneReportPerCellInCellOrder) {
  // Mixed outcomes: feasible cells, a structurally invalid cell
  // (depth-first with N_mb % N_PP != 0) and an OOM cell all produce
  // exactly one row, in cell order.
  ScenarioGrid grid;
  grid.push({ScenarioBuilder()
                 .model("6.6b")
                 .cluster("dgx1-v100-ib")
                 .pp(4)
                 .tp(2)
                 .dp(8)
                 .nmb(8)
                 .schedule("bf")
                 .loop(2),
             std::nullopt, "ok"});
  grid.push({ScenarioBuilder()
                 .model("6.6b")
                 .cluster("dgx1-v100-ib")
                 .pp(4)
                 .tp(2)
                 .dp(8)
                 .nmb(6)
                 .schedule("df")
                 .loop(2)
                 .megatron(),
             std::nullopt, "invalid"});
  grid.push({ScenarioBuilder()
                 .model("52b")
                 .cluster("dgx1-v100-ib")
                 .pp(1)
                 .tp(1)
                 .dp(64)
                 .nmb(1)
                 .schedule("gpipe"),
             std::nullopt, "oom"});
  const std::vector<Report> reports = sweep(grid);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].scenario, "ok");
  EXPECT_TRUE(reports[0].found);
  EXPECT_EQ(reports[1].scenario, "invalid");
  EXPECT_FALSE(reports[1].found);
  EXPECT_EQ(reports[1].error.rfind("[config] ", 0), 0u);
  EXPECT_EQ(reports[2].scenario, "oom");
  EXPECT_FALSE(reports[2].found);
  EXPECT_EQ(reports[2].error.rfind("[oom] ", 0), 0u);
  // The failure reason lands in the JSON output.
  EXPECT_NE(reports[2].to_json().find("\"error\": \"[oom] "),
            std::string::npos);
}

TEST(Sweep, CsvIsByteIdenticalAcrossJobCounts) {
  // The acceptance contract: a search sweep's CSV must not depend on the
  // thread count. The analytic backend keeps this test fast while still
  // exercising the full sweep-of-searches nesting.
  const ScenarioGrid grid = SweepBuilder()
                                .models({"6.6b"})
                                .clusters({"dgx1-v100-eth"})
                                .batches({16, 64, 256})
                                .methods({"bf", "df"})
                                .build();
  SweepOptions serial;
  serial.jobs = 1;
  serial.run.backend = Backend::kAnalytic;
  serial.run.threads = 1;
  SweepOptions wide;
  wide.jobs = 8;
  wide.run.backend = Backend::kAnalytic;
  wide.run.threads = 4;
  const std::string csv_serial = to_csv(sweep(grid, serial));
  const std::string csv_wide = to_csv(sweep(grid, wide));
  EXPECT_EQ(csv_serial, csv_wide);
  // One row per (method, batch) cell plus the header.
  EXPECT_EQ(static_cast<int>(
                std::count(csv_serial.begin(), csv_serial.end(), '\n')),
            7);
}

TEST(Sweep, RunCellsAreDeterministicAcrossJobCountsOnTheSimulator) {
  const ScenarioGrid grid =
      SweepBuilder()
          .base(ScenarioBuilder().model("6.6b").cluster("dgx1-v100-ib").smb(1))
          .axes({.schedule = {"bf"},
                 .pp = {4},
                 .tp = {2},
                 .nmb = {8, 16},
                 .loop = {2, 4}})
          .build();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 8;
  EXPECT_EQ(to_csv(sweep(grid, serial)), to_csv(sweep(grid, wide)));
}

TEST(Sweep, CellsSharingASkeletonAreDeterministicAcrossJobCounts) {
  // Per schedule, the repeated S_mb values share one topology key, so at
  // jobs=8 concurrent cells run the one cached skeleton graph read-only
  // (exact repeats) or build their own graphs (S_mb neighbours).
  // TSan runs this suite.
  const ScenarioGrid grid =
      SweepBuilder()
          .base(ScenarioBuilder().model("6.6b").cluster("dgx1-v100-ib"))
          .axes({.schedule = {"bf", "v"},
                 .pp = {4},
                 .tp = {2},
                 .smb = {1, 2, 1, 2, 1, 2, 1, 2},
                 .nmb = {8},
                 .loop = {2}})
          .build();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 8;
  const std::vector<Report> reports = sweep(grid, serial);
  ASSERT_EQ(reports.size(), 16u);
  for (const Report& report : reports) EXPECT_TRUE(report.found);
  EXPECT_EQ(to_csv(reports), to_csv(sweep(grid, wide)));
}

// ---- Compare: the schedule-zoo head-to-head surface ----

TEST(Compare, GridIsRowMajorPointBatchFamily) {
  const ScenarioGrid grid = compare_grid("fig5-quick");
  ASSERT_EQ(grid.size(), 12u);  // 1 point x 2 batches x 6 families
  EXPECT_EQ(grid.cells()[0].label, "6.6b/b64/bf");
  EXPECT_EQ(grid.cells()[5].label, "6.6b/b64/2bp");
  EXPECT_EQ(grid.cells()[6].label, "6.6b/b128/bf");
  for (const SweepCell& cell : grid.cells()) {
    EXPECT_FALSE(cell.method.has_value());  // run cells, never searches
  }
  EXPECT_THROW(compare_grid("fig7"), ConfigError);
}

TEST(Compare, EveryFamilyProducesAFeasibleRowOnTheQuickGrid) {
  const std::vector<Report> reports = sweep(compare_grid("fig5-quick"), {});
  ASSERT_EQ(reports.size(), 12u);
  for (const Report& report : reports) {
    EXPECT_TRUE(report.found) << report.scenario << ": " << report.error;
  }
  // The 2BP tradeoff is visible in the rows themselves: against
  // 1f1b-async on the same point, less idle, more memory.
  const Report& async_row = reports[2];
  const Report& two_bp_row = reports[5];
  ASSERT_EQ(async_row.scenario, "6.6b/b64/1f1b-async");
  ASSERT_EQ(two_bp_row.scenario, "6.6b/b64/2bp");
  EXPECT_LT(two_bp_row.result.compute_idle_fraction,
            async_row.result.compute_idle_fraction);
  EXPECT_GT(two_bp_row.memory.total(), async_row.memory.total());
}

TEST(Compare, CsvIsByteIdenticalAcrossJobCounts) {
  const ScenarioGrid grid = compare_grid("fig5-quick");
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 8;
  EXPECT_EQ(to_csv(sweep(grid, serial)), to_csv(sweep(grid, wide)));
}

TEST(Compare, TableHasOneColumnPerFamily) {
  const std::string text =
      compare_table(sweep(compare_grid("fig5-quick"), {})).to_string();
  for (const char* family :
       {"bf", "df", "1f1b-async", "unbalanced", "v", "2bp"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("6.6b/b64"), std::string::npos);
  EXPECT_NE(text.find("6.6b/b128"), std::string::npos);
}

// ---- CLI: sweep / compare / validate / --output ----

TEST(Cli, ParsesSweepAxisLists) {
  const CliOptions options =
      parse_cli({"sweep", "--model", "6.6b", "--cluster", "dgx1-v100-eth",
                 "--batch", "16,64,256", "--method", "bf,df", "--jobs", "8",
                 "--csv"});
  EXPECT_EQ(options.command, "sweep");
  EXPECT_EQ(options.axes.model, std::vector<std::string>{"6.6b"});
  EXPECT_EQ(options.axes.batch, (std::vector<int>{16, 64, 256}));
  EXPECT_EQ(options.axes.method, (std::vector<std::string>{"bf", "df"}));
  EXPECT_EQ(options.jobs, 8);
  EXPECT_TRUE(options.csv);
  const ScenarioGrid grid = sweep_from_cli(options).build();
  EXPECT_EQ(grid.size(), 6u);  // one cell per (method, batch)
}

TEST(Cli, SweepGridFlagsDescribeRunCells) {
  const CliOptions options = parse_cli(
      {"sweep", "--pp", "4,8", "--tp", "2", "--nmb", "16", "--schedule",
       "bf", "--loop", "2,4", "--model", "6.6b"});
  const ScenarioGrid grid = sweep_from_cli(options).build();
  EXPECT_EQ(grid.size(), 4u);  // pp x loop
  for (const SweepCell& cell : grid.cells()) {
    EXPECT_FALSE(cell.method.has_value());
  }
}

TEST(Cli, SweepRunsAZeroAxisValueLikeRunDoes) {
  // `--pp 0,4` is two cells, pp0 and pp4: the pp0 cell is the found=0
  // row carrying the message `bfpp run --pp 0` fails with.
  const std::string run_error = error_text<ConfigError>([] {
    scenario_from_cli(parse_cli(
        {"run", "--model", "6.6b", "--pp", "0", "--tp", "2", "--nmb", "8"}));
  });
  EXPECT_EQ(run_error,
            "scenario: N_TP*N_PP = 0 does not divide the cluster's 64 GPUs; "
            "set dp() explicitly");
  const ScenarioGrid grid =
      sweep_from_cli(parse_cli({"sweep", "--model", "6.6b", "--pp", "0,4",
                                "--tp", "2", "--nmb", "8"}))
          .build();
  SweepOptions options;
  options.run.backend = Backend::kAnalytic;
  const std::vector<Report> reports = sweep(grid, options);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].scenario, "6.6b/dgx1-v100-ib/pp0/tp2/nmb8");
  EXPECT_FALSE(reports[0].found);
  EXPECT_EQ(reports[0].error, "[config] " + run_error);
  EXPECT_EQ(reports[1].scenario, "6.6b/dgx1-v100-ib/pp4/tp2/nmb8");
  EXPECT_TRUE(reports[1].found) << reports[1].error;
  // The failed row keeps the identity the cell named: its model and
  // cluster, and no batch (the cell names none).
  EXPECT_EQ(reports[0].model, reports[1].model);
  EXPECT_EQ(reports[0].cluster, reports[1].cluster);
  EXPECT_EQ(reports[0].model, "6.6B");
  EXPECT_EQ(reports[0].cluster, "DGX-1 V100 (InfiniBand)");
  EXPECT_EQ(reports[0].n_gpus, 64);
  EXPECT_EQ(reports[0].batch_size, 0);
}

TEST(Cli, FailedSweepCellsKeepTheBatchTheyName) {
  const ScenarioGrid grid = sweep_from_cli(parse_cli(
      {"sweep", "--model", "6.6b", "--cluster", "dgx1-v100-eth:4", "--pp",
       "0", "--tp", "2", "--batch", "64"})).build();
  SweepOptions options;
  options.run.backend = Backend::kAnalytic;
  const std::vector<Report> reports = sweep(grid, options);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].found);
  EXPECT_EQ(reports[0].to_csv_row().rfind(
                "6.6b/dgx1-v100-eth:4/b64/pp0/tp2,6.6B,DGX-1 V100 "
                "(Ethernet),,32,64,2,0,",
                0),
            0u)
      << reports[0].to_csv_row();
}

TEST(Cli, RejectsBadSweepAndBackendFlags) {
  EXPECT_THROW(parse_cli({"sweep", "--batch", "16,sixty-four"}), ConfigError);
  EXPECT_THROW(parse_cli({"run", "--backend", "cuda"}), ConfigError);
  EXPECT_THROW(parse_cli({"run", "--output"}), ConfigError);
  EXPECT_THROW(sweep_from_cli(parse_cli(
                   {"sweep", "--preset", "fig5a-bf-b16"})).build(),
               ConfigError);
  // Search sweeps cannot pin grid axes.
  EXPECT_THROW(sweep_from_cli(parse_cli({"sweep", "--method", "bf", "--batch",
                                        "16", "--pp", "8"})).build(),
               ConfigError);
}

TEST(Cli, AxisErrorTextsArePinned) {
  // Scripts match on these texts; the axis parsing behind them must not
  // move them.
  EXPECT_EQ(error_text<ConfigError>([] {
              scenario_from_cli(parse_cli(
                  {"run", "--preset", "fig5a-bf-b16", "--pp", "4"}));
            }),
            "cli: --preset cannot be combined with scenario flags "
            "(--model/--cluster/--pp/--tp/--dp/--smb/--nmb/--loop/"
            "--batch/--schedule/--sharding/--megatron/--no-*-overlap)");
  EXPECT_EQ(error_text<ConfigError>([] {
              scenario_from_cli(parse_cli(
                  {"search", "--model", "6.6b", "--batch", "64", "--pp", "4"}));
            }),
            "cli: search explores the configuration space itself; only "
            "--model/--cluster/--batch/--method apply");
  EXPECT_EQ(error_text<ConfigError>([] {
              (void)sweep_from_cli(parse_cli({"sweep", "--method", "bf",
                                              "--batch", "16", "--pp", "8"}))
                  .build();
            }),
            "cli: a --method sweep grid-searches the configuration space "
            "per cell; only --model/--cluster/--batch axes apply");
  EXPECT_EQ(error_text<ConfigError>(
                [] { parse_cli({"sweep", "--pp", ","}); }),
            "cli: --pp expects a comma-separated list of integers, got ','");
  EXPECT_EQ(error_text<ConfigError>(
                [] { parse_cli({"sweep", "--model", ","}); }),
            "cli: --model expects a comma-separated list of names, got ','");
  for (const char* command : {"run", "sweep"}) {
    EXPECT_EQ(error_text<UsageError>(
                  [&] { parse_cli({command, "--pp", "8x"}); }),
              "cli: --pp expects a non-negative integer, got '8x'")
        << command;
  }
  std::vector<const char*> argv = {"bfpp", "run", "--pp", "8x"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data())),
            2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "bfpp: cli: --pp expects a non-negative integer, got '8x'\n");
}

TEST(SweepBuilder, ErrorTextsArePinned) {
  EXPECT_EQ(error_text<ConfigError>([] { (void)SweepBuilder().build(); }),
            "sweep: the grid is empty (set some axes)");
  EXPECT_EQ(error_text<ConfigError>([] {
              (void)SweepBuilder()
                  .axes({.method = {"bf"}, .batch = {16}, .pp = {8}})
                  .build();
            }),
            "sweep: methods() grid-searches the configuration space itself; "
            "it composes only with models/clusters/batches");
  EXPECT_EQ(error_text<ConfigError>(
                [] { (void)SweepBuilder().methods({"bf"}).build(); }),
            "sweep: a search sweep needs batches()");
}

TEST(Cli, UsageMentionsTheNewCommands) {
  const std::string usage = cli_usage();
  for (const char* needle :
       {"sweep", "compare", "validate", "--backend", "--jobs", "--output",
        "--grid", "fig5-quick", "1f1b-async", "2bp"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
  }
}

TEST(Cli, CompareCommandParsesItsGrid) {
  const CliOptions options = parse_cli({"compare", "--grid", "fig6"});
  EXPECT_EQ(options.command, "compare");
  EXPECT_EQ(options.grid, "fig6");
  EXPECT_EQ(parse_cli({"compare"}).grid, "fig5-quick");  // default
  // --grid is compare-only.
  EXPECT_THROW(parse_cli({"run", "--grid", "fig5"}), ConfigError);
}

// The exit code and stderr of `bfpp <args>`.
std::pair<int, std::string> cli_outcome(std::vector<const char*> args) {
  args.insert(args.begin(), "bfpp");
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = cli_main(static_cast<int>(args.size()),
                            const_cast<char**>(args.data()));
  (void)testing::internal::GetCapturedStdout();
  return {code, testing::internal::GetCapturedStderr()};
}

TEST(Cli, CommandsRejectFlagsTheyIgnore) {
  // Mirrors serve: a run request rejects "method", a compare request
  // every field that is not one of its own. Both exit 2.
  EXPECT_EQ(cli_outcome({"run", "--method", "zz"}),
            std::make_pair(2, std::string("bfpp: cli: --method applies to "
                                          "search and sweep commands, not "
                                          "run\n")));
  EXPECT_EQ(cli_outcome({"compare", "--pp", "8"}),
            std::make_pair(
                2, std::string("bfpp: cli: --pp is not valid for a 'compare' "
                               "command (--grid, --jobs, --backend, --json, "
                               "--csv or --output)\n")));
  for (const char* flag :
       {"--model", "--cluster", "--batch", "--method", "--schedule",
        "--sharding", "--tp", "--dp", "--smb", "--nmb", "--loop", "--preset",
        "--width"}) {
    EXPECT_THROW(parse_cli({"compare", flag, "1"}), UsageError) << flag;
  }
  for (const char* flag : {"--megatron", "--no-dp-overlap", "--no-pp-overlap",
                           "--no-overlap", "--timeline"}) {
    EXPECT_THROW(parse_cli({"compare", flag}), UsageError) << flag;
  }
  // --timeline and --width are run's alone, and a timeline needs at
  // least one column.
  for (const char* command : {"search", "sweep", "list", "validate", "serve"}) {
    EXPECT_THROW(parse_cli({command, "--timeline"}), UsageError) << command;
    EXPECT_THROW(parse_cli({command, "--width", "7"}), UsageError) << command;
  }
  EXPECT_EQ(cli_outcome({"search", "--timeline", "--width", "7"}),
            std::make_pair(2, std::string("bfpp: cli: --timeline applies to "
                                          "run commands, not search\n")));
  EXPECT_EQ(cli_outcome({"run", "--timeline", "--width", "0"}),
            std::make_pair(
                2, std::string("bfpp: cli: --width must be at least 1\n")));
  // What the commands do use still parses.
  EXPECT_NO_THROW(parse_cli({"compare", "--grid", "fig6", "--jobs", "2",
                             "--backend", "analytic", "--csv", "--output",
                             "out.csv"}));
  EXPECT_NO_THROW(parse_cli({"search", "--method", "df", "--batch", "64"}));
  EXPECT_NO_THROW(parse_cli({"sweep", "--method", "bf,df", "--batch", "64"}));
  EXPECT_NO_THROW(parse_cli({"run", "--pp", "8", "--timeline"}));
  EXPECT_NO_THROW(parse_cli({"run", "--timeline", "--width", "1"}));
}

TEST(Cli, SweepRejectsUnknownScheduleFamilyEagerly) {
  // A misspelled --schedule axis entry must fail the whole sweep with a
  // UsageError (exit 2), not quietly become found=0 rows.
  EXPECT_THROW(sweep_from_cli(parse_cli({"sweep", "--pp", "4", "--schedule",
                                         "bf,zigzag"}))
                   .build(),
               UsageError);
  // Known zoo families pass straight through.
  EXPECT_NO_THROW(sweep_from_cli(parse_cli({"sweep", "--pp", "4", "--schedule",
                                            "bf,1f1b-async,2bp"}))
                      .build());
}

TEST(Cli, OutputFlagWritesTheReportToAFile) {
  const std::string path = testing::TempDir() + "bfpp_cli_output.csv";
  std::vector<std::string> args = {
      "run",    "--model",    "6.6b", "--pp",   "4",      "--tp",
      "2",      "--nmb",      "8",    "--schedule", "bf", "--loop",
      "2",      "--csv",      "--output", path};
  std::vector<char*> argv = {const_cast<char*>("bfpp")};
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_EQ(cli_main(static_cast<int>(argv.size()), argv.data()), 0);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_EQ(content.str().rfind("scenario,model,cluster", 0), 0u);
  EXPECT_NE(content.str().find("6.6B"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, OutputFlagFailsLoudlyWhenTheWriteFails) {
  // /dev/full accepts the fopen but fails the flush with ENOSPC — the
  // disk-full shape. The CLI must exit nonzero, not report success
  // over a truncated file.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);
  std::vector<std::string> args = {
      "run",    "--model",    "6.6b", "--pp",   "4",      "--tp",
      "2",      "--nmb",      "8",    "--schedule", "bf", "--loop",
      "2",      "--csv",      "--output", "/dev/full"};
  std::vector<char*> argv = {const_cast<char*>("bfpp")};
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  const int exit_code = cli_main(static_cast<int>(argv.size()), argv.data());
  const std::string message = testing::internal::GetCapturedStderr();
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(message.find("/dev/full"), std::string::npos) << message;
}

}  // namespace
}  // namespace bfpp::api
