// Seeded property tests for the schedule generators: random
// (family x pp x micro-batch x placement) points - including
// non-power-of-two pipelines - must validate, conserve work, and
// simulate deadlock-free when emitted into the task-graph arena with
// unit costs; the simulator must size the graphs it emits for them
// exactly, and on an ideal cluster its bubbles must match the paper's
// closed forms. Complements test_schedule.cpp's example-based tests with
// breadth over the parameter space.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"
#include "schedule/schedule.h"
#include "sim/task_graph.h"

namespace bfpp::schedule {
namespace {

using parallel::ScheduleKind;

struct Point {
  ScheduleKind kind = ScheduleKind::kBreadthFirst;
  int n_pp = 1;
  int n_loop = 1;
  int n_mb = 1;
  std::string tag;
};

// Random generator point with family-appropriate shape constraints.
// Pipeline sizes deliberately include the non-power-of-two corners
// (3, 5, 6, 7) that the unbalanced family exists for.
Point random_point(Rng& rng, int i) {
  static const ScheduleKind kKinds[] = {
      ScheduleKind::kGpipe,        ScheduleKind::kOneFOneB,
      ScheduleKind::kDepthFirst,   ScheduleKind::kBreadthFirst,
      ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
      ScheduleKind::kVSchedule,    ScheduleKind::kTwoBP,
  };
  static const int kPipelines[] = {1, 2, 3, 4, 5, 6, 7, 8};
  Point p;
  p.kind = kKinds[rng.uniform_index(std::size(kKinds))];
  p.n_pp = kPipelines[rng.uniform_index(std::size(kPipelines))];
  switch (p.kind) {
    case ScheduleKind::kBreadthFirst:
    case ScheduleKind::kDepthFirst:
      p.n_loop = 1 << rng.uniform_index(3);  // 1, 2 or 4
      break;
    case ScheduleKind::kVSchedule:
      p.n_loop = 2;
      break;
    default:
      p.n_loop = 1;
      break;
  }
  p.n_mb = p.kind == ScheduleKind::kDepthFirst
               ? p.n_pp * static_cast<int>(1 + rng.uniform_index(4))
               : static_cast<int>(1 + rng.uniform_index(16));
  p.tag = "#" + std::to_string(i) + " " +
          std::string(parallel::to_string(p.kind)) + " pp" +
          std::to_string(p.n_pp) + " loop" + std::to_string(p.n_loop) + " mb" +
          std::to_string(p.n_mb);
  return p;
}

// Emits a schedule into the task-graph arena with unit compute costs and
// the pipeline data dependencies (F(s,m) after F(s-1,m); B(s,m) after
// B(s+1,m) and F(s,m); B_w(s,m) after B_x(s,m)), then runs it. Reserved
// cells + in-order definition exercise the same reserve/define pattern
// the simulator uses; sim::run throws on any dependency cycle.
sim::SimResult simulate_unit_costs(const Schedule& s) {
  sim::TaskGraph g;
  std::vector<sim::StreamId> streams;
  for (int r = 0; r < s.n_pp; ++r) {
    streams.push_back(g.add_stream("dev" + std::to_string(r)));
  }
  const int n_stages = s.n_stages();
  const int cells = n_stages * s.n_mb;
  auto idx = [&](int stage, int m) {
    return static_cast<size_t>(stage) * static_cast<size_t>(s.n_mb) +
           static_cast<size_t>(m);
  };
  std::vector<sim::TaskId> fwd(static_cast<size_t>(cells));
  std::vector<sim::TaskId> bwd(static_cast<size_t>(cells));
  std::vector<sim::TaskId> bww(
      s.split_backward ? static_cast<size_t>(cells) : 0);
  for (int c = 0; c < cells; ++c) {
    fwd[static_cast<size_t>(c)] = g.reserve_tasks(1);
    bwd[static_cast<size_t>(c)] = g.reserve_tasks(1);
    if (s.split_backward) bww[static_cast<size_t>(c)] = g.reserve_tasks(1);
  }
  for (int r = 0; r < s.n_pp; ++r) {
    for (const Op& op : s.device_ops[static_cast<size_t>(r)]) {
      const int st = op.stage;
      const int m = op.micro_batch;
      std::vector<sim::TaskId> deps;
      sim::TaskId id = sim::kInvalidTask;
      switch (op.kind) {
        case OpKind::kForward:
          if (st > 0) deps.push_back(fwd[idx(st - 1, m)]);
          id = fwd[idx(st, m)];
          break;
        case OpKind::kBackward:
        case OpKind::kBackwardInput:
          deps.push_back(fwd[idx(st, m)]);
          if (st < n_stages - 1) deps.push_back(bwd[idx(st + 1, m)]);
          id = bwd[idx(st, m)];
          break;
        case OpKind::kBackwardWeight:
          deps.push_back(bwd[idx(st, m)]);
          id = bww[idx(st, m)];
          break;
      }
      g.define_task(id, streams[static_cast<size_t>(r)], 1.0,
                    std::span<const sim::TaskId>(deps.data(), deps.size()));
    }
  }
  return sim::run(g);
}

TEST(ScheduleProps, SeededPointsValidateConserveAndSimulate) {
  Rng rng(0x5c8ed01e);
  for (int i = 0; i < 200; ++i) {
    const Point p = random_point(rng, i);
    const Schedule s =
        make_schedule(p.kind, p.n_pp, p.n_loop, p.n_mb);
    ASSERT_NO_THROW(validate(s)) << p.tag;

    // Work conservation: every (stage, micro-batch) cell runs each of
    // its passes exactly once across the whole pipeline - splitting the
    // backward must move work, never create or destroy it.
    std::map<std::tuple<int, int, int>, int> count;
    auto cell = [](OpKind kind, int stage, int m) {
      return std::make_tuple(static_cast<int>(kind), stage, m);
    };
    for (const auto& ops : s.device_ops) {
      for (const Op& op : ops) {
        ++count[cell(op.kind, op.stage, op.micro_batch)];
      }
    }
    EXPECT_EQ(static_cast<int>(count.size()), s.total_ops()) << p.tag;
    for (const auto& [key, n] : count) EXPECT_EQ(n, 1) << p.tag;
    for (int st = 0; st < s.n_stages(); ++st) {
      for (int m = 0; m < s.n_mb; ++m) {
        EXPECT_EQ(count[cell(OpKind::kForward, st, m)], 1) << p.tag;
        const int fused = count[cell(OpKind::kBackward, st, m)];
        const int bx = count[cell(OpKind::kBackwardInput, st, m)];
        const int bw = count[cell(OpKind::kBackwardWeight, st, m)];
        // 2BP conservation: B_x + B_w together replace the fused B.
        EXPECT_EQ(fused + (bx + bw) / 2, 1) << p.tag;
        EXPECT_EQ(bx, bw) << p.tag;
      }
    }

    // Deadlock-freedom under real in-order stream execution, not just
    // validate()'s abstract replay: emit into the arena and run.
    const sim::SimResult result = simulate_unit_costs(s);
    // With unit costs the critical path is at least one full
    // forward+backward chain through every stage.
    EXPECT_GE(result.makespan(), 2.0 * s.n_stages()) << p.tag;
    // And no device can beat its own op count.
    EXPECT_GE(result.makespan(), static_cast<double>(s.ops_per_device()))
        << p.tag;
  }
}

// The V-schedule's greedy emission as first written: every round, each
// device scans every micro-batch for its earliest ready forward (down
// leg first) and backward (up leg first). v_schedule() must emit exactly
// this order; it finds the same ops through per-stage cursors.
std::vector<std::vector<Op>> reference_v_ops(int n_pp, int n_mb,
                                             int in_flight_budget) {
  const int n_stages = 2 * n_pp;
  const int budget = in_flight_budget > 0 ? in_flight_budget : n_pp;
  std::vector<std::vector<Op>> device_ops(static_cast<size_t>(n_pp));
  std::vector<std::vector<bool>> fwd(
      static_cast<size_t>(n_stages),
      std::vector<bool>(static_cast<size_t>(n_mb), false));
  std::vector<std::vector<bool>> bwd = fwd;
  std::vector<int> in_flight(static_cast<size_t>(n_pp), 0);
  auto done = [](const std::vector<std::vector<bool>>& grid, int st, int m) {
    return grid[static_cast<size_t>(st)][static_cast<size_t>(m)];
  };
  auto fwd_ready = [&](int st, int m) {
    return !done(fwd, st, m) && (st == 0 || done(fwd, st - 1, m));
  };
  auto bwd_ready = [&](int st, int m) {
    return !done(bwd, st, m) && done(fwd, st, m) &&
           (st == n_stages - 1 || done(bwd, st + 1, m));
  };
  int remaining = 2 * n_stages * n_mb;
  while (remaining > 0) {
    bool progress = false;
    for (int r = 0; r < n_pp; ++r) {
      const int down = r;
      const int up = n_stages - 1 - r;
      Op fwd_op{}, bwd_op{};
      bool has_fwd = false, has_bwd = false;
      for (int m = 0; m < n_mb && !has_fwd; ++m) {
        for (int st : {down, up}) {
          if (fwd_ready(st, m)) {
            fwd_op = {OpKind::kForward, st, m};
            has_fwd = true;
            break;
          }
        }
      }
      for (int m = 0; m < n_mb && !has_bwd; ++m) {
        for (int st : {up, down}) {
          if (bwd_ready(st, m)) {
            bwd_op = {OpKind::kBackward, st, m};
            has_bwd = true;
            break;
          }
        }
      }
      const auto ri = static_cast<size_t>(r);
      if (has_bwd && (in_flight[ri] >= budget || !has_fwd)) {
        device_ops[ri].push_back(bwd_op);
        bwd[static_cast<size_t>(bwd_op.stage)]
           [static_cast<size_t>(bwd_op.micro_batch)] = true;
        --in_flight[ri];
      } else if (has_fwd) {
        device_ops[ri].push_back(fwd_op);
        fwd[static_cast<size_t>(fwd_op.stage)]
           [static_cast<size_t>(fwd_op.micro_batch)] = true;
        ++in_flight[ri];
      } else {
        continue;
      }
      --remaining;
      progress = true;
    }
    if (!progress) break;  // v_schedule() throws here; the diff shows it
  }
  return device_ops;
}

TEST(ScheduleProps, VScheduleEmitsTheGreedyReferenceOrder) {
  int cases = 0;
  for (int n_pp = 1; n_pp <= 8; ++n_pp) {
    for (int n_mb = 1; n_mb <= 64; ++n_mb) {
      for (int budget = 0; budget <= n_pp + 2; ++budget) {
        ASSERT_EQ(v_schedule(n_pp, n_mb, budget).device_ops,
                  reference_v_ops(n_pp, n_mb, budget))
            << "pp" << n_pp << " mb" << n_mb << " budget" << budget;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 3840);
}

TEST(ScheduleProps, SimulatorGraphIsSizedExactly) {
  // runtime::PipelineSim counts its graph's tasks and dependencies in
  // closed form, reserves exactly that, and checks the count against
  // what it emitted: a miscount throws a plain bfpp::Error, which fails
  // this test (configuration and memory rejections are skipped).
  // Seeded points cover every family, sharding mode and overlap flag,
  // intra- and inter-node links and non-power-of-two pipelines.
  struct Grid {
    int pp, tp, dp, nodes;
  };
  static const Grid kGrids[] = {
      {8, 8, 1, 8}, {4, 2, 8, 8}, {2, 4, 8, 8}, {8, 2, 4, 8},
      {1, 8, 8, 8}, {3, 8, 1, 3}, {5, 4, 2, 5}, {6, 4, 1, 3},
  };
  Rng rng(0x51e5);
  int simulated = 0;
  int gathered = 0;  // DP_FS with data parallelism: per-run gathers
  int blocking = 0;  // non-overlapped pipeline transfers
  int fused = 0;     // fused blocking gradient reduction
  int regathered = 0;
  int split = 0;
  for (int i = 0; i < 300; ++i) {
    const Grid& g = kGrids[rng.uniform_index(std::size(kGrids))];
    Point p = random_point(rng, i);
    parallel::ParallelConfig cfg;
    cfg.schedule = p.kind;
    cfg.n_pp = g.pp;
    cfg.n_tp = g.tp;
    cfg.n_dp = g.dp;
    cfg.n_loop = p.n_loop;
    cfg.n_mb = p.kind == ScheduleKind::kDepthFirst ? g.pp * (1 + i % 3)
                                                   : p.n_mb;
    const parallel::DpSharding shardings[] = {parallel::DpSharding::kNone,
                                              parallel::DpSharding::kPartial,
                                              parallel::DpSharding::kFull};
    cfg.sharding = shardings[rng.uniform_index(3)];
    cfg.overlap_pp = rng.uniform() < 0.5;
    cfg.overlap_dp =
        cfg.sharding == parallel::DpSharding::kFull || rng.uniform() < 0.6;
    const hw::ClusterSpec cluster = rng.uniform() < 0.5
                                        ? hw::dgx1_v100_infiniband(g.nodes)
                                        : hw::dgx1_v100_ethernet(g.nodes);
    try {
      runtime::PipelineSim sim(model::model_6_6b(), cfg, cluster);
      (void)sim.run();
    } catch (const ConfigError&) {
      continue;
    } catch (const OutOfMemoryError&) {
      continue;
    } catch (const Error& e) {
      // The V-schedule deadlocks under blocking transfers; its graph was
      // built (and its size checked) before run() found the cycle.
      const bool deadlock = std::string(e.what()).starts_with(
          "simulation deadlock");
      if (!deadlock || p.kind != ScheduleKind::kVSchedule ||
          cfg.overlap_pp) {
        ADD_FAILURE() << cfg.describe() << " on " << cluster.name << ": "
                      << e.what();
        continue;
      }
    }
    ++simulated;
    const bool has_dp = cfg.n_dp > 1;
    gathered += has_dp && cfg.sharding == parallel::DpSharding::kFull;
    blocking += !cfg.overlap_pp && cfg.n_pp > 1;
    fused += has_dp && !cfg.overlap_dp;
    regathered += has_dp && cfg.sharding == parallel::DpSharding::kPartial;
    split += p.kind == ScheduleKind::kTwoBP;
  }
  EXPECT_GE(simulated, 100);
  EXPECT_GE(gathered, 10);
  EXPECT_GE(blocking, 10);
  EXPECT_GE(fused, 10);
  EXPECT_GE(regathered, 10);
  EXPECT_GE(split, 5);
}

// A cluster that charges nothing but compute: free links and
// collectives, a zero-time optimizer step and room for any model.
// `n_gpus` GPUs on one node.
hw::ClusterSpec ideal_cluster(int n_gpus, double peak_flops) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const hw::NetTier free_tier{"free", kInf, kInf, 0.0, 0.0, 0.0};
  hw::ClusterSpec c;
  c.name = "ideal";
  c.gpu.peak_flops = peak_flops;
  c.gpu.memory_bytes = 1e18;
  c.gpu.hbm_bw = kInf;
  c.n_nodes = 1;
  c.gpus_per_node = n_gpus;
  c.intra_node = free_tier;
  c.inter_node = free_tier;
  return c;
}

TEST(ScheduleProps, IdealClusterBubblesMatchClosedForms) {
  // On an ideal cluster (N_TP = N_DP = 1) the only idle time left is the
  // pipeline bubble, so the simulator must reproduce the paper's bubble
  // formulas: Eq. 4, (N_PP - 1) / N_mb, for the non-looped families and
  // Eq. 9, (N_PP - 1) / (N_loop * N_mb), for the looped ones. 2BP
  // defers B_w into the bubble, which then only idles for T_F + T_Bx of
  // each T_F + T_B. Bubble = (makespan - busy) / busy per compute
  // stream. Each point runs cache-less and on one SimCache shared by the
  // whole sweep; both must match.
  //
  // Tolerance: model::validate() requires vocab_size >= 1, so no public
  // TransformerSpec has a zero-cost head, and the stages cannot all cost
  // the same. A vocab-1 head on the 52B layers adds 2 * S_h flop per
  // token to the last stage only, ~1e-5 of a layer. Two checks bound
  // what that can do:
  //  - the mean bubble over compute streams is within 1.5e-5 relative
  //    (measured worst case 1.48e-5, at nmb32 loop4);
  //  - each stream's bubble is within the head's own perturbation. The
  //    makespan is the longest path through a graph whose shape the head
  //    does not change, so lengthening tasks by a total of D (the head's
  //    extra busy time) moves it by at most D; a stream's bubble then
  //    moves by at most D * (1 + bubble) / busy. The largest measured
  //    move is 3e-5 relative, at pp2 nmb32 loop4.
  //
  // The hardware speed is seeded per point: the bubble is a ratio of
  // durations and must not depend on it. The V-schedule is left out: at
  // its default in-flight budget its bubble does not fall as 1/N_mb.
  constexpr double kRelTol = 1.5e-5;
  model::TransformerSpec spec = model::model_52b();
  spec.vocab_size = 1;
  hw::KernelModel flat;
  flat.narrow_half = 0.0;  // efficiency == max_efficiency at any shape
  flat.rows_half = 0.0;

  struct Family {
    ScheduleKind kind;
    bool looped;
  };
  static const Family kFamilies[] = {
      {ScheduleKind::kGpipe, false},        {ScheduleKind::kOneFOneB, false},
      {ScheduleKind::kOneFOneBAsync, false}, {ScheduleKind::kUnbalanced, false},
      {ScheduleKind::kTwoBP, false},        {ScheduleKind::kBreadthFirst, true},
      {ScheduleKind::kDepthFirst, true},
  };
  Rng rng(0x0eb4);
  auto cache = std::make_shared<runtime::SimCache>();
  int points = 0;
  for (const Family& family : kFamilies) {
    for (const int n_pp : {2, 4, 8}) {
      for (const int n_mb : {8, 16, 32}) {
        for (const int n_loop : {1, 2, 4}) {
          if (!family.looped && n_loop > 1) continue;
          parallel::ParallelConfig cfg;
          cfg.schedule = family.kind;
          cfg.n_pp = n_pp;
          cfg.n_mb = n_mb;
          cfg.n_loop = n_loop;
          flat.max_efficiency = rng.uniform(0.3, 0.9);
          const hw::ClusterSpec cluster =
              ideal_cluster(n_pp, rng.uniform(50e12, 500e12));
          const std::string tag = cfg.describe();

          double expected = static_cast<double>(n_pp - 1) / (n_loop * n_mb);
          double makespan[2] = {0.0, 0.0};
          for (const bool cached : {false, true}) {
            runtime::PipelineSim sim(spec, cfg, cluster, flat,
                                     cached ? cache : nullptr);
            (void)sim.run();
            if (family.kind == ScheduleKind::kTwoBP && !cached) {
              expected *=
                  (sim.forward_op_seconds(0) +
                   sim.backward_input_op_seconds(0)) /
                  (sim.forward_op_seconds(0) + sim.backward_op_seconds(0));
            }
            const sim::SimResult& result = sim.result();
            makespan[cached] = result.makespan();
            double min_busy = std::numeric_limits<double>::infinity();
            double max_busy = 0.0;
            double mean_bubble = 0.0;
            for (const sim::StreamId cs : sim.compute_streams()) {
              const double busy = result.stream(cs).busy;
              min_busy = std::min(min_busy, busy);
              max_busy = std::max(max_busy, busy);
              mean_bubble += (result.makespan() - busy) / busy / n_pp;
            }
            const std::string where = tag + (cached ? " (cached)" : "");
            EXPECT_NEAR(mean_bubble, expected, kRelTol * expected) << where;
            const double head_bound =
                (max_busy - min_busy) * (1.0 + expected) / min_busy + 1e-12;
            for (const sim::StreamId cs : sim.compute_streams()) {
              const double busy = result.stream(cs).busy;
              EXPECT_NEAR((result.makespan() - busy) / busy, expected,
                          head_bound)
                  << where << " on " << sim.graph().stream_name(cs);
            }
          }
          EXPECT_EQ(makespan[0], makespan[1]) << tag;
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(points, 5 * 9 + 2 * 27);
  // The sweep shares nothing by topology (every point is distinct), but
  // every cached run went through the cache.
  EXPECT_EQ(cache->stats().skeleton_misses, points);
}

}  // namespace
}  // namespace bfpp::schedule
