// Differential harness for the simulator hot path, retargeted at a
// golden corpus now that the frozen pre-rework simulator is gone.
//
// A seeded scenario corpus (random family x grid x micro-batching x
// sharding x overlap points, including infeasible ones) runs through
// the simulator (runtime::PipelineSim) and every observable
// - task labels and times, the rendered timeline, RunResult doubles
// (hexfloat, so bit-exact) and the full api::Report wire form - is
// condensed into one digest line per scenario and byte-compared
// against tests/golden/. The goldens were recorded while the frozen
// legacy simulator still existed, under the old harness's assertion
// that both implementations agree byte-for-byte, so they carry the
// pre-rework semantics forward. Any change to costs, schedules or the
// simulator shows up as a reviewable one-line-per-scenario diff that
// has to be re-recorded deliberately (BFPP_UPDATE_GOLDEN=1, see
// golden_util.h).
//
// The SimCache paths - a repeat running the cached graph, a neighbour
// building its own - are pinned differentially, against a cold,
// cache-less run of the same cell, which is the equality the cache
// actually promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "golden_util.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"
#include "sim/gantt.h"

namespace bfpp::runtime {
namespace {

using parallel::DpSharding;
using parallel::ParallelConfig;
using parallel::ScheduleKind;

struct Scenario {
  model::TransformerSpec spec;
  ParallelConfig cfg;
  hw::ClusterSpec cluster;
  std::string tag;  // for failure messages
};

// Outcome of running the simulator on one scenario: either a result
// bundle or the thrown error's message (rejections are part of the
// pinned surface too - same diagnostic, forever).
struct Outcome {
  bool ok = false;
  std::string error;
  RunResult result;
  std::string gantt;
  int task_count = 0;
  std::vector<std::string> labels;
  std::vector<sim::TaskTime> times;
};

// Everything pinned about a cell that has run.
Outcome observe(const PipelineSim& sim, const RunResult& result) {
  Outcome out;
  out.ok = true;
  out.result = result;
  out.gantt = sim::render_gantt(sim.graph(), sim.result(),
                                sim.display_streams());
  out.task_count = sim.graph().task_count();
  for (int t = 0; t < out.task_count; ++t) {
    out.labels.push_back(sim.graph().label(t));
    out.times.push_back(sim.result().time(t));
  }
  return out;
}

Outcome run_arena(const Scenario& sc, std::shared_ptr<SimCache> cache = {}) {
  try {
    PipelineSim sim(sc.spec, sc.cfg, sc.cluster, {}, std::move(cache));
    const RunResult result = sim.run();
    return observe(sim, result);
  } catch (const Error& e) {
    Outcome out;
    out.error = e.what();
    return out;
  }
}

// Full-depth comparison of two outcomes; returns true when the scenario
// simulated cleanly on both (for corpus coverage accounting).
bool expect_identical(const Outcome& cold, const Outcome& cached,
                      const std::string& tag) {
  EXPECT_EQ(cold.ok, cached.ok) << tag << ": cold said '" << cold.error
                                << "', cached said '" << cached.error << "'";
  if (!cold.ok || !cached.ok) {
    EXPECT_EQ(cold.error, cached.error) << tag;
    return false;
  }
  // RunResult: exact double equality, not approximate - the cached
  // paths are semantics-preserving by construction.
  EXPECT_EQ(cold.result.batch_time, cached.result.batch_time) << tag;
  EXPECT_EQ(cold.result.throughput_per_gpu, cached.result.throughput_per_gpu)
      << tag;
  EXPECT_EQ(cold.result.utilization, cached.result.utilization) << tag;
  EXPECT_EQ(cold.result.compute_idle_fraction,
            cached.result.compute_idle_fraction)
      << tag;
  // Structure: same tasks in the same id order with the same labels
  // (exercises every synthesized-label pattern) and the same times.
  EXPECT_EQ(cold.task_count, cached.task_count) << tag;
  if (cold.task_count != cached.task_count) return false;
  for (int t = 0; t < cold.task_count; ++t) {
    const auto u = static_cast<size_t>(t);
    EXPECT_EQ(cold.labels[u], cached.labels[u]) << tag << " task " << t;
    EXPECT_EQ(cold.times[u].start, cached.times[u].start)
        << tag << " task " << t << " (" << cold.labels[u] << ")";
    EXPECT_EQ(cold.times[u].end, cached.times[u].end) << tag << " task " << t;
    if (cold.labels[u] != cached.labels[u] ||
        cold.times[u].start != cached.times[u].start ||
        cold.times[u].end != cached.times[u].end) {
      return false;  // one divergent task is enough detail per scenario
    }
  }
  // Rendered timeline must match character for character.
  EXPECT_EQ(cold.gantt, cached.gantt) << tag;
  return true;
}

// FNV-1a over the per-task detail + rendered timeline. The golden file
// stores one digest line per scenario instead of every task time, so a
// 96-scenario corpus stays reviewable; hexfloat headline doubles in
// the same line localize *what* moved when the digest does.
uint64_t fnv1a(uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string record(int index, const Outcome& out, const std::string& tag) {
  if (!out.ok) {
    return str_format("#%02d rejected \"%s\"  %s\n", index, out.error.c_str(),
                      tag.c_str());
  }
  uint64_t digest = 14695981039346656037ull;
  for (int t = 0; t < out.task_count; ++t) {
    const auto u = static_cast<size_t>(t);
    digest = fnv1a(digest, out.labels[u]);
    digest = fnv1a(digest, str_format("|%a|%a\n", out.times[u].start,
                                      out.times[u].end));
  }
  digest = fnv1a(digest, out.gantt);
  return str_format("#%02d ok tasks=%d batch=%a util=%a digest=%016llx  %s\n",
                    index, out.task_count, out.result.batch_time,
                    out.result.utilization,
                    static_cast<unsigned long long>(digest), tag.c_str());
}

// Seeded corpus: random (family x grid x micro-batching x sharding x
// overlap) points, including non-power-of-two pipelines. Infeasible
// points stay in the corpus - the rejection diagnostic is pinned too.
std::vector<Scenario> corpus(uint64_t seed, int n) {
  struct Grid {
    int pp, tp, dp, nodes;
  };
  static const Grid kGrids[] = {
      {8, 8, 1, 8}, {4, 2, 8, 8}, {2, 4, 8, 8}, {4, 4, 4, 8},
      {2, 2, 16, 8}, {8, 2, 4, 8}, {1, 8, 8, 8}, {3, 8, 1, 3},
      {5, 4, 2, 5}, {6, 4, 1, 3},
  };
  static const ScheduleKind kKinds[] = {
      ScheduleKind::kGpipe,        ScheduleKind::kOneFOneB,
      ScheduleKind::kDepthFirst,   ScheduleKind::kBreadthFirst,
      ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
      ScheduleKind::kVSchedule,    ScheduleKind::kTwoBP,
  };
  Rng rng(seed);
  std::vector<Scenario> out;
  for (int i = 0; i < n; ++i) {
    const Grid& g = kGrids[rng.uniform_index(std::size(kGrids))];
    const ScheduleKind kind = kKinds[rng.uniform_index(std::size(kKinds))];
    Scenario sc;
    sc.spec = rng.uniform() < 0.2 ? model::model_52b() : model::model_6_6b();
    sc.cluster = rng.uniform() < 0.5 ? hw::dgx1_v100_infiniband(g.nodes)
                                     : hw::dgx1_v100_ethernet(g.nodes);
    ParallelConfig& cfg = sc.cfg;
    cfg.n_pp = g.pp;
    cfg.n_tp = g.tp;
    cfg.n_dp = g.dp;
    cfg.schedule = kind;
    switch (kind) {
      case ScheduleKind::kBreadthFirst:
        cfg.n_loop = 1 << rng.uniform_index(3);  // 1, 2 or 4
        break;
      case ScheduleKind::kDepthFirst:
        cfg.n_loop = 1 << rng.uniform_index(3);
        break;
      case ScheduleKind::kVSchedule:
        cfg.n_loop = 2;
        break;
      default:
        cfg.n_loop = 1;
        break;
    }
    cfg.n_mb = kind == ScheduleKind::kDepthFirst
                   ? g.pp * static_cast<int>(1 + rng.uniform_index(4))
                   : 2 << rng.uniform_index(3);  // 2, 4 or 8
    cfg.s_mb = 1 + static_cast<int>(rng.uniform_index(2));
    const DpSharding shardings[] = {DpSharding::kNone, DpSharding::kPartial,
                                    DpSharding::kFull};
    cfg.sharding = shardings[rng.uniform_index(3)];
    cfg.overlap_pp = rng.uniform() < 0.7;
    cfg.overlap_dp = cfg.sharding == DpSharding::kFull || rng.uniform() < 0.7;
    sc.tag = "seed " + std::to_string(seed) + " #" + std::to_string(i) + ": " +
             cfg.describe();
    out.push_back(std::move(sc));
  }
  return out;
}

TEST(SimDiff, SeededCorpusMatchesGolden) {
  // Same seed and size as the original legacy-vs-arena harness, so the
  // golden file pins exactly the corpus the rework was proven on.
  std::string blob;
  int clean = 0;
  int index = 0;
  for (const Scenario& sc : corpus(/*seed=*/0xbf2023, /*n=*/96)) {
    const Outcome out = run_arena(sc);
    if (out.ok) ++clean;
    blob += record(index++, out, sc.tag);
  }
  // The corpus must actually exercise the simulator, not just the
  // validators - require a healthy feasible share (~40% of the points
  // survive the structural checks at this seed). Checked before the
  // golden diff so a degenerate corpus cannot be "recorded over".
  EXPECT_GE(clean, 32);
  bfpp::testing::check_golden("sim_corpus.txt", blob);
}

TEST(SimDiff, CachedPathsMatchColdPath) {
  // One shared cache across three cells: exact repeat (full hit) and
  // batch-size neighbor (cost-table hit, new topology). Every cached
  // evaluation must be bit-identical to a cold, cache-less one.
  Scenario base;
  base.spec = model::model_6_6b();
  base.cluster = hw::dgx1_v100_infiniband();
  base.cfg.n_pp = 4;
  base.cfg.n_tp = 2;
  base.cfg.n_dp = 8;
  base.cfg.s_mb = 1;
  base.cfg.n_mb = 8;
  base.cfg.n_loop = 4;
  base.cfg.schedule = ScheduleKind::kBreadthFirst;
  base.tag = "cache base";

  Scenario batch_neighbor = base;  // different N_mb, same S_mb
  batch_neighbor.cfg.n_mb = 16;
  batch_neighbor.tag = "cache batch-neighbor";
  auto cache = std::make_shared<SimCache>();
  EXPECT_TRUE(expect_identical(run_arena(base), run_arena(base, cache),
                               base.tag));
  auto stats = cache->stats();
  EXPECT_EQ(stats.cost_misses, 1);
  EXPECT_EQ(stats.skeleton_misses, 1);

  // Exact repeat: both lookups hit.
  EXPECT_TRUE(expect_identical(run_arena(base), run_arena(base, cache),
                               "cache repeat"));
  stats = cache->stats();
  EXPECT_EQ(stats.cost_hits, 1);
  EXPECT_EQ(stats.skeleton_hits, 1);

  // Batch-size neighbor: same model x cluster costs, new topology.
  EXPECT_TRUE(expect_identical(run_arena(batch_neighbor),
                               run_arena(batch_neighbor, cache),
                               batch_neighbor.tag));
  stats = cache->stats();
  EXPECT_EQ(stats.cost_hits, 2);
  EXPECT_EQ(stats.skeleton_misses, 2);
}

TEST(SimDiff, SplitNeighbourBuildsItsOwnGraph) {
  // Cell A, then its micro-batch-split neighbour A' (same topology key,
  // different cost table), then A again, on one cache. A' finds A's
  // skeleton, timed with A's table, and must build its own graph rather
  // than run, replace or change the cached one.
  Scenario a;
  a.spec = model::model_6_6b();
  a.cluster = hw::dgx1_v100_infiniband();
  a.cfg.n_pp = 4;
  a.cfg.n_tp = 2;
  a.cfg.n_dp = 8;
  a.cfg.s_mb = 1;
  a.cfg.n_mb = 8;
  a.cfg.n_loop = 4;
  a.cfg.schedule = ScheduleKind::kBreadthFirst;
  a.tag = "split A";
  Scenario a_split = a;
  a_split.cfg.s_mb = 2;
  a_split.tag = "split A'";

  auto cache = std::make_shared<SimCache>();
  auto cached_sim = [&cache](const Scenario& sc) {
    return PipelineSim(sc.spec, sc.cfg, sc.cluster, {}, cache);
  };
  PipelineSim first = cached_sim(a);
  const RunResult first_result = first.run();
  PipelineSim neighbour = cached_sim(a_split);
  const RunResult neighbour_result = neighbour.run();
  PipelineSim again = cached_sim(a);
  const RunResult again_result = again.run();

  EXPECT_TRUE(expect_identical(run_arena(a_split),
                               observe(neighbour, neighbour_result),
                               a_split.tag));
  EXPECT_NE(&neighbour.graph(), &first.graph());
  EXPECT_EQ(&again.graph(), &first.graph());
  EXPECT_TRUE(expect_identical(run_arena(a), observe(again, again_result),
                               "split A again"));
  EXPECT_TRUE(expect_identical(run_arena(a), observe(first, first_result),
                               a.tag));
  const SimCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.skeleton_misses, 1);
  EXPECT_EQ(stats.skeleton_hits, 2);
}

TEST(SimDiff, ReportsMatchGoldenWireForms) {
  // The acceptance-level check: whole api::Reports from the default
  // engine, in wire form (the full field surface, see the bfpp-lint
  // wire-stability pass), byte-compared against the recorded corpus.
  const auto engine = api::make_engine();
  std::string blob;
  int compared = 0;
  for (const Scenario& sc : corpus(/*seed=*/0x51fd1ff, /*n=*/12)) {
    std::optional<api::Scenario> scenario;
    try {
      const parallel::ParallelConfig& cfg = sc.cfg;
      scenario = api::ScenarioBuilder()
                     .name(sc.tag)
                     .model(sc.spec)
                     .cluster(sc.cluster)
                     .pp(cfg.n_pp)
                     .tp(cfg.n_tp)
                     .dp(cfg.n_dp)
                     .smb(cfg.s_mb)
                     .nmb(cfg.n_mb)
                     .loop(cfg.n_loop)
                     .schedule(parallel::to_string(cfg.schedule))
                     .sharding(parallel::to_string(cfg.sharding))
                     .overlap(cfg.overlap_dp, cfg.overlap_pp)
                     .build();
    } catch (const ConfigError&) {
      continue;  // structurally invalid corpus point; the engine never runs
    }
    // A configuration the engine rejects is a found=false row: skipped.
    const api::Report report =
        api::run_cell(*scenario, "", std::nullopt, *engine, {});
    if (!report.found) continue;
    blob += report.to_wire();
    blob += "\n";
    ++compared;
  }
  EXPECT_GE(compared, 4);  // the corpus must yield real comparisons
  bfpp::testing::check_golden("sim_reports.wire.txt", blob);
}

}  // namespace
}  // namespace bfpp::runtime
