// Simulator hot-path latency: what one sweep cell costs to evaluate,
// and what the SimCache buys on the cells a sweep actually meets.
//
// The workload is the fig5-quick shape (6.6B, pp4/tp2/dp8 on DGX-1
// V100 InfiniBand) across the full schedule zoo and two micro-batch
// counts. Each cached pass is timed against a cache-less rebuild of the
// same cells:
//
//   arena cold     the simulator, full rebuild, no cache
//   memoized       exact repeat on a warmed SimCache (cost table and
//                  skeleton both hit: the cached graph runs as is)
//   nmb neighbor   a never-seen cell differing only in N_mb (the
//                  memoized cost table is reused; new skeleton),
//                  against cold nmb
//   graph run      sim::run alone on the base cells' already-built
//                  graphs: the floor a cold cell is measured against
//
// The neighbor row is the honest "cold cell in a sweep" number: the
// cell itself was never simulated, but a sibling on the same grid was.
// Every repeat runs all five passes once, cold and cached interleaved,
// on a cache warmed by the base cells alone and fresh each repeat, and
// each pass reports the median and quartiles of its per-repeat samples,
// so a noisy stretch of the host cannot decide a comparison. CI gates on
// two figures (see .github/workflows/ci.yml): for memoized and nmb
// neighbor, the median per-repeat gap to the cold rebuild of the same
// cells must exceed that gap's interquartile range; and arena cold per
// graph run, the per-repeat ratio of a full rebuild to the graph run it
// ends in, must stay under a fixed bound. Both sides of that ratio walk
// the same task graphs, so it carries across hosts better than an
// absolute time. A host reference loop, sampled once per repeat, also
// scales arena cold to a nominal host speed; that figure is reported,
// not gated.
// Byte-identity of every path is pinned by tests/test_sim_diff.cpp; this
// bench only reports time.
//
// Usage: sim_hotpath [repeats] [--json FILE]
//        (default 20; --json writes the machine-readable artifact CI
//        archives as BENCH_sim.json and gates on)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "common/strings.h"
#include "common/table.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"

using namespace bfpp;

namespace {

struct Cell {
  parallel::ParallelConfig cfg;
  std::string label;
};

// The fig5-quick operating point across the schedule zoo.
std::vector<Cell> fig5_quick_cells() {
  struct Family {
    const char* label;
    parallel::ScheduleKind kind;
    int n_loop;
  };
  const Family kFamilies[] = {
      {"bf", parallel::ScheduleKind::kBreadthFirst, 4},
      {"df", parallel::ScheduleKind::kDepthFirst, 4},
      {"gpipe", parallel::ScheduleKind::kGpipe, 1},
      {"1f1b", parallel::ScheduleKind::kOneFOneB, 1},
      {"1f1b-async", parallel::ScheduleKind::kOneFOneBAsync, 1},
      {"unbalanced", parallel::ScheduleKind::kUnbalanced, 1},
      {"v", parallel::ScheduleKind::kVSchedule, 2},
      {"2bp", parallel::ScheduleKind::kTwoBP, 1},
  };
  std::vector<Cell> cells;
  for (const Family& family : kFamilies) {
    for (const int n_mb : {8, 16}) {
      Cell cell;
      cell.cfg.n_pp = 4;
      cell.cfg.n_tp = 2;
      cell.cfg.n_dp = 8;
      cell.cfg.s_mb = 1;
      cell.cfg.n_mb = n_mb;
      cell.cfg.n_loop = family.n_loop;
      cell.cfg.schedule = family.kind;
      cell.label = str_format("%s/nmb%d", family.label, n_mb);
      cells.push_back(cell);
    }
  }
  return cells;
}

// Per-cell wall time of one sweep of `cells` through `body`. Cells that
// throw (structurally infeasible on this point) are skipped identically
// in every pass.
struct SweepTime {
  double us_per_cell = 0.0;
  int cells = 0;
};

SweepTime time_sweep(const std::vector<Cell>& cells,
                     const std::function<void(const Cell&)>& body) {
  SweepTime out;
  const auto start = std::chrono::steady_clock::now();
  for (const Cell& cell : cells) {
    try {
      body(cell);
      ++out.cells;
    } catch (const Error&) {
      // skipped: same cells skip in every pass
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.us_per_cell = out.cells > 0 ? 1e6 * seconds / out.cells : 0.0;
  return out;
}

// A fixed integer-mixing plus dependent floating-point loop: no memory
// traffic, so its time tracks clock speed and CPU steal, not cache
// state. A copy of the loop perfbench samples as bench.host_ref_us
// (perfbench/src/workloads.cpp), and kHostRefNominalUs below copies its
// nominal (perfbench/src/main.cpp): change both copies together.
double host_ref_us() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (int i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.9999999 + static_cast<double>(x & 0xff) * 1e-9;
  }
  volatile double sink = acc + static_cast<double>(x & 1);
  (void)sink;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// host_ref_us() on the reference host (a 4-vCPU KVM guest on an Intel
// Xeon) when nothing contends for it: the speed cold cells are scaled to.
constexpr double kHostRefNominalUs = 90.0;

// Nearest-rank quantile; the median averages the middle pair.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  if (q == 0.5) {
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  }
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return xs[std::clamp<size_t>(rank, 1, n) - 1];
}

// One pass: a µs/cell sample per repeat, summarised by its quartiles.
struct Pass {
  std::string name;
  std::vector<double> samples;
  int cells = 0;

  void add(const SweepTime& t) {
    samples.push_back(t.us_per_cell);
    cells = t.cells;
  }
  [[nodiscard]] double median() const { return quantile(samples, 0.5); }
  [[nodiscard]] double q1() const { return quantile(samples, 0.25); }
  [[nodiscard]] double q3() const { return quantile(samples, 0.75); }
};

// Per repeat, a cold pass minus its cached twin, in us/cell. The two ran
// back to back, so a host slowdown that outlasts one repeat hits both
// and cancels out of the gap.
std::vector<double> gaps(const Pass& cold, const Pass& cached) {
  std::vector<double> out;
  for (size_t i = 0; i < cold.samples.size(); ++i) {
    out.push_back(cold.samples[i] - cached.samples[i]);
  }
  return out;
}

double iqr(const std::vector<double>& xs) {
  return quantile(xs, 0.75) - quantile(xs, 0.25);
}

// Per repeat, a cold pass over its cached twin.
std::vector<double> ratios(const Pass& cold, const Pass& cached) {
  std::vector<double> out;
  for (size_t i = 0; i < cold.samples.size(); ++i) {
    out.push_back(cold.samples[i] / cached.samples[i]);
  }
  return out;
}

// `passes` alternates cold passes and their cached twins.
std::string to_json(const std::vector<Pass>& passes, const Pass& graph_run,
                    int repeats, double host_ref, double cold_scaled,
                    const std::vector<double>& cold_per_graph_run) {
  std::string out = str_format(
      "{\"bench\":\"sim_hotpath\",\"workload\":\"fig5-quick\","
      "\"repeats\":%d,\"host_ref_us\":%.2f,\"host_ref_nominal_us\":%.1f,"
      "\"results\":[",
      repeats, host_ref, kHostRefNominalUs);
  for (size_t i = 0; i < passes.size(); ++i) {
    out += str_format(
        "%s{\"pass\":\"%s\",\"us_per_cell\":%.2f,\"q1\":%.2f,"
        "\"q3\":%.2f,\"cells\":%d",
        i == 0 ? "" : ",", passes[i].name.c_str(), passes[i].median(),
        passes[i].q1(), passes[i].q3(), passes[i].cells);
    if (i % 2 == 1) {
      const std::vector<double> gap = gaps(passes[i - 1], passes[i]);
      out += str_format(",\"cold\":\"%s\",\"gap_us\":%.2f,\"gap_iqr\":%.2f",
                        passes[i - 1].name.c_str(), quantile(gap, 0.5),
                        iqr(gap));
    }
    out += "}";
  }
  out += str_format(
      "],\"graph_run_us\":%.2f,\"arena_cold_scaled_us\":%.2f,"
      "\"cold_per_graph_run\":%.3f,\"cold_per_graph_run_iqr\":%.3f}\n",
      graph_run.median(), cold_scaled, quantile(cold_per_graph_run, 0.5),
      iqr(cold_per_graph_run));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 20;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (positional == 0) {
      repeats = std::atoi(argv[i]);
      ++positional;
    } else {
      repeats = 0;
      break;
    }
  }
  if (repeats <= 0) {
    std::fprintf(stderr, "usage: sim_hotpath [repeats] [--json FILE]\n");
    return 1;
  }

  const model::TransformerSpec spec = model::model_6_6b();
  const hw::ClusterSpec cluster = hw::dgx1_v100_infiniband();
  const std::vector<Cell> cells = fig5_quick_cells();

  // Neighbor cells: never simulated in the warm-up pass, but each shares
  // the cost-table key (same S_mb, kernel) with a warmed cell.
  std::vector<Cell> nmb_neighbors = cells;
  for (Cell& cell : nmb_neighbors) cell.cfg.n_mb *= 2;

  auto run_arena = [&](std::shared_ptr<runtime::SimCache> cache) {
    return [&spec, &cluster, cache](const Cell& cell) {
      runtime::PipelineSim sim(spec, cell.cfg, cluster, {}, cache);
      (void)sim.run();
    };
  };

  // The base cells' graphs, built once: the graph run pass re-runs them.
  std::vector<runtime::PipelineSim> built;
  for (const Cell& cell : cells) {
    try {
      runtime::PipelineSim sim(spec, cell.cfg, cluster);
      (void)sim.run();
      built.push_back(std::move(sim));
    } catch (const Error&) {
      // skipped, like the same cell in every other pass
    }
  }
  auto time_graph_runs = [&built] {
    const auto start = std::chrono::steady_clock::now();
    for (const runtime::PipelineSim& cell : built) (void)sim::run(cell.graph());
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - start;
    return SweepTime{us.count() / static_cast<double>(built.size()),
                     static_cast<int>(built.size())};
  };

  std::printf(
      "== simulator hot path: fig5-quick zoo, %zu cells, %d repeats ==\n\n",
      cells.size(), repeats);

  // Each repeat runs every pass once, cold and cached interleaved, so a
  // slow stretch of the host lands on both sides of each comparison.
  // The cached passes use a cache warmed by the base cells alone, fresh
  // each repeat, so the neighbour cells really are never-seen.
  Pass cold{"arena_cold"};
  Pass memoized{"memoized_repeat"};
  Pass cold_nmb{"cold_nmb"};
  Pass nmb{"nmb_neighbor"};
  Pass graph_run{"graph_run"};
  std::vector<double> host_ref;
  for (int r = 0; r < repeats; ++r) {
    host_ref.push_back(host_ref_us());
    cold.add(time_sweep(cells, run_arena(nullptr)));
    graph_run.add(time_graph_runs());
    auto cache = std::make_shared<runtime::SimCache>();
    (void)time_sweep(cells, run_arena(cache));  // warm-up (not reported)
    memoized.add(time_sweep(cells, run_arena(cache)));
    cold_nmb.add(time_sweep(nmb_neighbors, run_arena(nullptr)));
    nmb.add(time_sweep(nmb_neighbors, run_arena(cache)));
  }
  const std::vector<Pass> passes = {cold, memoized, cold_nmb, nmb};
  const double host_ref_median = quantile(host_ref, 0.5);
  const double cold_scaled =
      cold.median() * kHostRefNominalUs / host_ref_median;
  const std::vector<double> cold_per_graph_run = ratios(cold, graph_run);

  Table table({"Pass", "us/cell (median)", "q1 - q3", "Cells", "vs cold",
               "gap (IQR)"});
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    const Pass& cold_twin = passes[i - i % 2];
    const std::vector<double> gap = gaps(cold_twin, pass);
    table.add_row({pass.name, str_format("%.1f", pass.median()),
                   str_format("%.1f - %.1f", pass.q1(), pass.q3()),
                   str_format("%d", pass.cells),
                   str_format("%.1fx", pass.median() > 0.0
                                           ? cold_twin.median() / pass.median()
                                           : 0.0),
                   i % 2 == 0 ? "-"
                              : str_format("%.1f (%.1f)", quantile(gap, 0.5),
                                           iqr(gap))});
  }
  table.add_row({graph_run.name, str_format("%.1f", graph_run.median()),
                 str_format("%.1f - %.1f", graph_run.q1(), graph_run.q3()),
                 str_format("%d", graph_run.cells), "-", "-"});
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\narena cold = full rebuild per cell, no cache; memoized = exact\n"
      "repeat on a warmed SimCache; nmb neighbor = never-seen cells\n"
      "reusing the memoized cost table the way sweep siblings do\n"
      "(cold_nmb = the same cells rebuilt without a cache).\n"
      "gap = per repeat, the cold pass minus its cached twin run right\n"
      "after it (median, and interquartile range in brackets).\n"
      "graph_run = sim::run alone on the base cells' built graphs.\n"
      "Equality of every path's output is pinned by\n"
      "tests/test_sim_diff.cpp.\n"
      "\narena cold per graph run: %.2fx (IQR %.2f)\n"
      "host reference loop: %.1f us (nominal %.0f); arena cold at\n"
      "nominal host speed: %.1f us/cell\n",
      quantile(cold_per_graph_run, 0.5), iqr(cold_per_graph_run),
      host_ref_median, kHostRefNominalUs, cold_scaled);

  if (!json_path.empty()) {
    if (!serialize::write_file_atomic(
            json_path,
            to_json(passes, graph_run, repeats, host_ref_median,
                    cold_scaled, cold_per_graph_run))) {
      std::fprintf(stderr, "sim_hotpath: cannot write '%s'\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
