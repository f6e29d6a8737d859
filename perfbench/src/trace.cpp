// The traced half of the benchmark: the workload's requests replayed
// in-process, serially, through each layer's public functions, with a
// span around every call. Spans stay in memory and are written out at
// the end; a layer's self time is its span minus its child spans.
//
// Three passes share the request list:
//   1. Server::handle() on each line - the whole service time;
//   2. a replay that mirrors handle() step by step (parse, build, key,
//      probe, evaluate, publish, render) so each step has its own span,
//      plus the write-through save the serve loop performs;
//   3. probes of layers the replay reaches only through a wrapper
//      (PipelineSim::run vs its graph run, SimCache, api::sweep, the wire
//      form of a Report).
// The share of handle() time that pass 2 does not attribute to a layer
// is reported, so a gap in the split cannot hide.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <type_traits>
#include <set>
#include <stdexcept>

#include "api/api.h"
#include "api/server.h"
#include "api/sweep.h"
#include "bench.h"
#include "common/json.h"
#include "common/strings.h"
#include "memmodel/memory.h"
#include "runtime/pipeline_sim.h"
#include "runtime/sim_cache.h"

namespace perfbench {

using bfpp::str_format;
namespace api = bfpp::api;

namespace {

enum Layer : uint8_t {
  kRequest,
  kHandle,
  kJsonParse,
  kScenarioBuild,
  kCacheKey,
  kCacheProbe,
  kCachePublish,
  kEngineEvaluate,
  kMemEstimate,
  kToJson,
  kToCsv,
  kToWire,
  kFromWire,
  kPersistSave,
  kPersistLoad,
  kRuntimeRun,
  kGraphRun,
  kSweep,
  kLayerCount
};

const char* const kLayerNames[kLayerCount] = {
    "request",         "server.handle",  "json.parse",     "scenario.build",
    "cache.key",       "cache.probe",    "cache.publish",  "engine.evaluate",
    "memmodel.estimate", "report.to_json", "report.to_csv", "report.to_wire",
    "report.from_wire", "persist.save",  "persist.load",   "runtime.run",
    "sim.graph_run",   "api.sweep"};

struct Span {
  int64_t req;
  Layer layer;
  int64_t parent;  // index of the enclosing span, -1 for a root
  int64_t start;
  int64_t end;
};

class Tracer {
 public:
  int64_t open(int64_t req, Layer layer, int64_t parent = -1) {
    spans_.push_back({req, layer, parent, now_ns(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void close(int64_t span) { spans_[static_cast<size_t>(span)].end = now_ns(); }

  // Runs fn inside a span and returns its result.
  template <typename F>
  auto timed(int64_t req, Layer layer, int64_t parent, F&& fn) {
    const int64_t s = open(req, layer, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close(s);
    } else {
      auto out = fn();
      close(s);
      return out;
    }
  }

  // Self time of every span, in microseconds.
  [[nodiscard]] std::vector<double> self_us() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end - spans_[i].start) / 1e3;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -=
            static_cast<double>(s.end - s.start) / 1e3;
      }
    }
    return self;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"req\":%lld,\"layer\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld}\n",
                   static_cast<long long>(s.req), kLayerNames[s.layer],
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.parent));
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// Cells the replay and the probes cover at most (a prefix of the
// request list), so the traced run stays well inside its time limit.
constexpr size_t kTraceCells = 20000;
constexpr size_t kProbeCells = 3000;
constexpr size_t kWireReports = 2000;
constexpr size_t kTimedSaves = 16;

api::Report mirror_report(const api::Scenario& sc,
                          const bfpp::runtime::RunResult& result) {
  api::Report r;
  r.scenario = sc.name;
  r.model = sc.model.name;
  r.cluster = sc.cluster.name;
  r.n_gpus = sc.cluster.total_gpus();
  r.batch_size = sc.batch_size;
  r.found = true;
  r.config = sc.require_config();
  r.result = result;
  return r;
}

}  // namespace

TraceResult run_trace(const Workload& w, const LoadResult& load,
                      const std::string& work_dir) {
  TraceResult out;
  Tracer t;
  const std::string pristine = pristine_snapshot_path(work_dir);
  size_t n = 0;
  for (size_t cells = 0; n < w.requests.size(); ++n) {
    cells += w.requests[n].cells.size();
    if (cells > kTraceCells) break;
  }
  const CacheCounts expected = model_cache(w, n);
  auto counts_match = [&](const api::ReportCache::Stats& st) {
    return st.hits == expected.hits_plus_coalesced && st.coalesced == 0 &&
           st.misses == expected.misses &&
           st.insertions == expected.insertions &&
           st.evictions == expected.evictions;
  };

  // ---- Passes 1 and 2, interleaved request by request (alternating
  // which runs first) so both see the same process and host state. ----
  // Pass 1 is serial like the replay (jobs=1), so the two compare.
  api::ServeOptions options;
  options.jobs = 1;
  options.cache_capacity = w.capacity;
  if (w.snapshot) options.cache_file = pristine;
  api::Server server(options);
  api::ReportCache cache(w.capacity);
  if (w.snapshot) {
    t.timed(-1, kPersistLoad, -1, [&] { return cache.load(pristine); });
  }
  std::vector<size_t> miss_requests;  // requests that simulated a cell
  std::vector<api::Report> wire_reports;
  const api::RunOptions run_options;

  auto handle = [&](size_t i) {
    const int64_t s = t.open(static_cast<int64_t>(i), kHandle);
    const std::string response = server.handle(w.requests[i].line);
    t.close(s);
    if (response.find("\"ok\":true") == std::string::npos) {
      out.errors.push_back(str_format("handle() failed request %zu", i));
    }
  };
  auto replay = [&](size_t i) {
    const Request& r = w.requests[i];
    const int64_t req = static_cast<int64_t>(i);
    const int64_t root = t.open(req, kRequest);
    t.timed(req, kJsonParse, root, [&] { return bfpp::json::parse(r.line); });
    const std::unique_ptr<api::Engine> engine = api::make_engine(run_options);
    bool inserted = false;
    for (const Cell& c : r.cells) {
      const api::Scenario sc =
          t.timed(req, kScenarioBuild, root, [&] { return c.builder().build(); });
      const std::string key = t.timed(req, kCacheKey, root, [&] {
        return api::cache_key(sc, std::nullopt, run_options);
      });
      api::ReportCache::Probe probe =
          t.timed(req, kCacheProbe, root, [&] { return cache.probe_or_lead(key); });
      api::Report report;
      if (probe.report.has_value()) {
        report = std::move(*probe.report);
      } else {
        const auto& cfg = sc.require_config();
        const bfpp::runtime::RunResult result = t.timed(req, kEngineEvaluate, root, [&] {
          return engine->evaluate(sc.model, cfg, sc.cluster);
        });
        report = mirror_report(sc, result);
        report.memory = t.timed(req, kMemEstimate, root, [&] {
          return bfpp::memmodel::estimate(sc.model, cfg);
        });
        report.memory_min = t.timed(req, kMemEstimate, root, [&] {
          return bfpp::memmodel::estimate(sc.model, cfg, /*at_scale=*/true);
        });
        t.timed(req, kCachePublish, root, [&] { cache.publish(key, report); });
        inserted = true;
      }
      if (r.csv) {
        t.timed(req, kToCsv, root, [&] { return report.to_csv_row(); });
      } else {
        t.timed(req, kToJson, root, [&] { return report.to_json(); });
      }
      if (wire_reports.size() < kWireReports) wire_reports.push_back(report);
    }
    t.close(root);
    if (inserted) miss_requests.push_back(i);
  };
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      handle(i);
      replay(i);
    } else {
      replay(i);
      handle(i);
    }
  }
  out.counts_ok = counts_match(server.cache_stats()) && counts_match(cache.stats());
  if (!out.counts_ok) out.errors.push_back("traced cache counts differ from the model");

  // The serve loop's write-through: one whole-cache save after each
  // inserting request. The cache is full before the first insert, so
  // every save writes the same entries; a sample of them is timed.
  const size_t saves = w.snapshot ? miss_requests.size() : 0;
  const std::string replay_file = work_dir + "/replay_snapshot.jsonl";
  for (size_t k = 0; k < std::min<size_t>(saves, kTimedSaves); ++k) {
    t.timed(-1, kPersistSave, -1, [&] { return cache.save(replay_file); });
  }
  std::remove(replay_file.c_str());

  // ---- Pass 3: probes. ----
  // The simulated requests of the workload; serve_hot simulates nothing,
  // so its probes take the snapshot blocks its sweeps read.
  // It also times Engine::evaluate there, which the replay never called.
  const bool probe_engine = miss_requests.empty();
  std::vector<const Request*> probe;
  if (!probe_engine) {
    for (const size_t i : miss_requests) probe.push_back(&w.requests[i]);
  } else {
    for (const Request& r : w.warm) probe.push_back(&r);
  }
  std::vector<double> build_us, graph_us, tasks, sweep_cell_us;
  bfpp::runtime::SimCache::Stats sim_stats;
  int64_t expect_cost_misses = 0, expect_skel_misses = 0, probe_cells = 0;
  for (size_t p = 0; p < probe.size() &&
                     static_cast<size_t>(probe_cells) < kProbeCells;
       ++p) {
    const Request& r = *probe[p];
    const int64_t req = -2 - static_cast<int64_t>(p);
    // One SimCache per request, as the server's engine has.
    auto sim_cache = std::make_shared<bfpp::runtime::SimCache>();
    std::set<std::string> cost_keys, topo_keys;
    const std::unique_ptr<api::Engine> engine = api::make_engine(api::RunOptions{});
    api::ScenarioGrid grid;
    for (const Cell& c : r.cells) {
      const api::Scenario sc = c.builder().build();
      const auto& cfg = sc.require_config();
      const bfpp::hw::KernelModel kernel;
      cost_keys.insert(bfpp::runtime::op_cost_key(sc.model, cfg, sc.cluster, kernel));
      topo_keys.insert(bfpp::runtime::sim_topology_key(sc.model, cfg, sc.cluster));
      bfpp::runtime::PipelineSim sim(sc.model, cfg, sc.cluster, kernel, sim_cache);
      const int64_t run_span = t.open(req, kRuntimeRun);
      sim.run();
      t.close(run_span);
      const int64_t graph_span = t.open(req, kGraphRun);
      const bfpp::sim::SimResult again = bfpp::sim::run(sim.graph());
      t.close(graph_span);
      const Span& rs = t.spans()[static_cast<size_t>(run_span)];
      const Span& gs = t.spans()[static_cast<size_t>(graph_span)];
      build_us.push_back(static_cast<double>((rs.end - rs.start) - (gs.end - gs.start)) / 1e3);
      graph_us.push_back(static_cast<double>(gs.end - gs.start) / 1e3);
      tasks.push_back(sim.graph().task_count());
      if (probe_engine) {
        t.timed(req, kEngineEvaluate, -1,
                [&] { return engine->evaluate(sc.model, cfg, sc.cluster); });
        t.timed(req, kMemEstimate, -1,
                [&] { return bfpp::memmodel::estimate(sc.model, cfg); });
      }
      grid.push({c.builder(), std::nullopt, "probe"});
      ++probe_cells;
    }
    const bfpp::runtime::SimCache::Stats s = sim_cache->stats();
    sim_stats.cost_hits += s.cost_hits;
    sim_stats.cost_misses += s.cost_misses;
    sim_stats.skeleton_hits += s.skeleton_hits;
    sim_stats.skeleton_misses += s.skeleton_misses;
    expect_cost_misses += static_cast<int64_t>(cost_keys.size());
    expect_skel_misses += static_cast<int64_t>(topo_keys.size());
    api::SweepOptions sweep_options;
    sweep_options.jobs = 1;
    const int64_t sweep_span = t.open(req, kSweep);
    const std::vector<api::Report> rows = api::sweep(grid, sweep_options);
    t.close(sweep_span);
    const Span& ss = t.spans()[static_cast<size_t>(sweep_span)];
    sweep_cell_us.push_back(static_cast<double>(ss.end - ss.start) / 1e3 /
                            static_cast<double>(rows.size()));
  }
  // The serial probe fixes the SimCache counters exactly: one miss per
  // distinct cost / topology key in a request, a hit for every other cell.
  if (sim_stats.cost_misses != expect_cost_misses ||
      sim_stats.cost_hits != probe_cells - expect_cost_misses ||
      sim_stats.skeleton_misses != expect_skel_misses ||
      sim_stats.skeleton_hits != probe_cells - expect_skel_misses) {
    out.counts_ok = false;
    out.errors.push_back("SimCache counts differ from the distinct-key count");
  }
  for (size_t i = 0; i < wire_reports.size(); ++i) {
    const int64_t req = -1;
    const std::string wire =
        t.timed(req, kToWire, -1, [&] { return wire_reports[i].to_wire(); });
    const bfpp::json::Value v = bfpp::json::parse(wire);
    const api::Report back =
        t.timed(req, kFromWire, -1, [&] { return api::Report::from_wire(v); });
    if (back.to_wire() != wire) {
      out.counts_ok = false;
      out.errors.push_back("Report wire form does not round-trip");
      break;
    }
  }

  // ---- Per-layer numbers. ----
  const std::vector<double> self = t.self_us();
  std::vector<std::vector<double>> by_layer(kLayerCount);
  double attributed_sum = 0.0;  // replay spans inside a request span
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    by_layer[s.layer].push_back(self[i]);
    if (s.parent >= 0) attributed_sum += static_cast<double>(s.end - s.start) / 1e3;
  }
  const std::vector<double>& handle_us = by_layer[kHandle];
  double handle_sum = 0.0;
  for (const double x : handle_us) handle_sum += x;

  auto layer_median = [&](Layer l) { return median(by_layer[l]); };
  const double sojourn_mean_us = [&] {
    double sum = 0.0;
    size_t count = 0;
    for (const LoadResult::Round& r : load.rounds) {
      for (const double x : r.sojourn_ms) sum += x;
      count += r.sojourn_ms.size();
    }
    return count == 0 ? 0.0 : 1e3 * sum / static_cast<double>(count);
  }();
  const uint64_t lookups = load.hits + load.misses + load.coalesced;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  out.metrics = {
      {"json.parse_us", layer_median(kJsonParse), "us"},
      {"scenario.build_us", layer_median(kScenarioBuild), "us"},
      {"cache.key_us", layer_median(kCacheKey), "us"},
      {"cache.probe_us", layer_median(kCacheProbe), "us"},
      {"cache.hit_ratio", ratio(static_cast<double>(load.hits), static_cast<double>(lookups)), "ratio"},
      {"cache.evictions", static_cast<double>(load.evictions), "count"},
      {"cache.coalesced", static_cast<double>(load.coalesced), "count"},
      {"report.to_json_us", layer_median(kToJson), "us"},
      {"report.to_csv_us", layer_median(kToCsv), "us"},
      {"report.to_wire_us", layer_median(kToWire), "us"},
      {"report.from_wire_us", layer_median(kFromWire), "us"},
      {"persist.save_ms", layer_median(kPersistSave) / 1e3, "ms"},
      {"persist.saves", static_cast<double>(saves), "count"},
      {"persist.load_s", layer_median(kPersistLoad) / 1e6, "s"},
      {"engine.evaluate_us", layer_median(kEngineEvaluate), "us"},
      {"memmodel.estimate_us", layer_median(kMemEstimate), "us"},
      {"runtime.build_us", median(build_us), "us"},
      {"sim.graph_run_us", median(graph_us), "us"},
      {"sim.tasks", median(tasks), "count"},
      {"sim_cache.cost_hit_ratio",
       ratio(static_cast<double>(sim_stats.cost_hits),
             static_cast<double>(sim_stats.cost_hits + sim_stats.cost_misses)),
       "ratio"},
      {"sim_cache.skeleton_hit_ratio",
       ratio(static_cast<double>(sim_stats.skeleton_hits),
             static_cast<double>(sim_stats.skeleton_hits + sim_stats.skeleton_misses)),
       "ratio"},
      {"sweep.cell_us", median(sweep_cell_us), "us"},
      {"server.handle_p50_us", percentile(handle_us, 0.5), "us"},
      {"server.handle_p99_us", percentile(handle_us, 0.99), "us"},
      {"server.service_mean_us", load.service_mean_us, "us"},
      {"server.transport_us", sojourn_mean_us - load.service_mean_us, "us"},
      {"server.unattributed_share", ratio(handle_sum - attributed_sum, handle_sum), "ratio"},
      {"bench.host_ref_us", median(load.host_ref_us), "us"},
  };

  // Spans, and each layer's call count and median self time, go to disk.
  t.write(work_dir + "/spans.jsonl");
  std::FILE* f = std::fopen((work_dir + "/layers.json").c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{");
    for (int l = 0; l < kLayerCount; ++l) {
      std::fprintf(f, "%s\"%s\":{\"calls\":%zu,\"self_p50_us\":%.3f,\"self_p99_us\":%.3f}",
                   l ? "," : "", kLayerNames[l], by_layer[l].size(),
                   median(by_layer[l]), percentile(by_layer[l], 0.99));
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return out;
}

}  // namespace perfbench
