#include "api/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <initializer_list>

#include "api/api.h"
#include "api/compare.h"
#include "api/server.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace bfpp::api {

namespace {

// The model and cluster of a scenario or grid that names neither.
constexpr const char* kDefaultModel = "52b";
constexpr const char* kDefaultCluster = "dgx1-v100-ib";

// Checked flag-value integer parse: never lets std::stoi's uncaught
// std::invalid_argument / std::out_of_range escape to the user. A bad
// value names the flag and the offending text, and exits 2 via
// UsageError (see cli_main).
int parse_int_flag(const std::string& flag, const std::string& value) {
  const std::optional<int> parsed = parse_int(value);
  if (!parsed.has_value()) {
    throw UsageError(
        str_format("cli: %s expects a non-negative integer, got '%s'",
                   flag.c_str(), value.c_str()));
  }
  return *parsed;
}

std::vector<int> parse_int_list(const std::string& flag,
                                const std::string& value) {
  std::vector<int> out;
  for (const std::string& item : split(value, ',')) {
    out.push_back(parse_int_flag(flag, item));
  }
  check_config(!out.empty(),
               "cli: %s expects a comma-separated list of integers, got '%s'",
               flag.c_str(), value.c_str());
  return out;
}

std::vector<std::string> parse_name_list(const std::string& flag,
                                         const std::string& value) {
  std::vector<std::string> out = split(value, ',');
  check_config(!out.empty(),
               "cli: %s expects a comma-separated list of names, got '%s'",
               flag.c_str(), value.c_str());
  return out;
}

RunOptions run_options_from_cli(const CliOptions& options) {
  RunOptions run;
  run.backend = parse_backend(options.backend);
  run.threads = options.jobs;
  return run;
}

// Writes `text` to --output (or stdout when unset). A failed or
// truncated write must not exit 0: scripts consume --output files, and
// a full disk otherwise looks like success with a partial CSV.
void emit_text(const std::string& text, const CliOptions& options) {
  if (options.output.empty()) {
    if (std::fputs(text.c_str(), stdout) < 0 || std::fflush(stdout) != 0) {
      throw ConfigError(
          str_format("cli: failed to write report to stdout: %s",
                     errno_string(errno).c_str()));
    }
    return;
  }
  std::FILE* file = std::fopen(options.output.c_str(), "w");
  check_config(file != nullptr, "cli: cannot open --output file '%s': %s",
               options.output.c_str(), errno_string(errno).c_str());
  int err = std::fputs(text.c_str(), file) < 0 ? errno : 0;
  // stdio buffers: a full disk usually surfaces at the fclose flush,
  // so its result is part of the write, not cleanup.
  if (std::fclose(file) != 0 && err == 0) err = errno;
  check_config(err == 0, "cli: failed to write --output file '%s': %s",
               options.output.c_str(), errno_string(err).c_str());
}

void emit_report(const Report& report, const CliOptions& options) {
  if (options.json) {
    emit_text(report.to_json(), options);
  } else if (options.csv) {
    emit_text(report.to_csv(), options);
  } else {
    emit_text(to_table({report}).to_string(), options);
  }
}

void emit_reports(const std::vector<Report>& reports,
                  const CliOptions& options) {
  if (options.json) {
    emit_text(to_json(reports), options);
  } else if (options.csv) {
    emit_text(to_csv(reports), options);
  } else {
    emit_text(to_table(reports).to_string(), options);
  }
}

int do_run(const CliOptions& options) {
  const Scenario scenario = scenario_from_cli(options);
  if (options.timeline) {
    check_config(parse_backend(options.backend) == Backend::kSimulator,
                 "cli: --timeline renders the simulator's task graph; it "
                 "requires --backend sim");
    sim::GanttOptions gantt;
    gantt.width = options.width;
    const Timeline timeline = run_with_timeline(scenario, gantt);
    emit_report(timeline.report, options);
    if (!options.json && !options.csv && options.output.empty()) {
      std::fputs(timeline.gantt.c_str(), stdout);
    }
    return 0;
  }
  emit_report(run(scenario, run_options_from_cli(options)), options);
  return 0;
}

int do_search(const CliOptions& options) {
  const Scenario scenario = scenario_from_cli(options);
  const Report report =
      search(scenario, search_method(options), run_options_from_cli(options));
  emit_report(report, options);
  return report.found ? 0 : 2;
}

int do_sweep(const CliOptions& options) {
  const ScenarioGrid grid = sweep_from_cli(options).build();
  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.run = run_options_from_cli(options);
  // The per-cell search shares the --jobs budget with the cell loop (one
  // pool; waiting callers help), so a sweep of searches does not
  // oversubscribe.
  const std::vector<Report> reports = sweep(grid, sweep_options);
  emit_reports(reports, options);
  for (const Report& report : reports) {
    if (report.found) return 0;
  }
  return 2;  // nothing feasible anywhere in the grid
}

int do_compare(const CliOptions& options) {
  const ScenarioGrid grid = compare_grid(options.grid);
  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.run = run_options_from_cli(options);
  // Compare cells run through api::sweep, so the rows (and the CSV/JSON
  // forms) are byte-identical for every --jobs value.
  const std::vector<Report> reports = sweep(grid, sweep_options);
  if (options.json || options.csv) {
    emit_reports(reports, options);
  } else {
    emit_text(str_format("== schedule-family comparison, grid '%s' ==\n\n",
                         options.grid.c_str()) +
                  compare_table(reports).to_string() + "\n" +
                  compare_legend(),
              options);
  }
  for (const Report& report : reports) {
    if (report.found) return 0;
  }
  return 2;  // nothing feasible anywhere on the grid
}

// The paper's fixed configurations (Figure 5): the cross-validation set
// for `bfpp validate`.
struct ValidatePoint {
  const char* model;
  int n_pp, n_tp, n_dp;
  std::vector<int> batches;
};

int do_validate(const CliOptions& options) {
  const std::vector<ValidatePoint> points = {
      {"52b", 8, 8, 1, {16, 32, 64}},
      {"6.6b", 4, 2, 8, {64, 128, 256}},
  };
  const std::vector<SweepVariant> variants = {
      {"bf", "bf", 4, false},
      {"df", "df", 4, true},
      {"gpipe", "gpipe", std::nullopt, false},
      {"1f1b", "1f1b", std::nullopt, true},
  };

  std::vector<std::pair<std::string, Scenario>> cells;
  for (const ValidatePoint& point : points) {
    for (int batch : point.batches) {
      for (const SweepVariant& variant : variants) {
        ScenarioBuilder builder;
        builder.model(point.model)
            .cluster("dgx1-v100-ib")
            .pp(point.n_pp)
            .tp(point.n_tp)
            .dp(point.n_dp)
            .smb(1)
            .nmb(batch / point.n_dp)
            .schedule(variant.schedule);
        if (variant.loop) builder.loop(*variant.loop);
        if (variant.megatron) builder.megatron();
        cells.emplace_back(str_format("%s b%d %s", point.model, batch,
                                      variant.label.c_str()),
                           builder.build());
      }
    }
  }

  RunOptions simulator_options;
  simulator_options.backend = Backend::kSimulator;
  const std::unique_ptr<Engine> simulator = make_engine(simulator_options);
  RunOptions candidate_options = run_options_from_cli(options);
  if (candidate_options.backend == Backend::kSimulator) {
    candidate_options.backend = Backend::kAnalytic;  // the default check
  }
  const std::unique_ptr<Engine> candidate = make_engine(candidate_options);

  std::vector<BackendComparison> rows(cells.size());
  ThreadPool::shared().parallel_for(
      static_cast<int>(cells.size()), options.jobs, [&](int i) {
        const auto& [label, scenario] = cells[static_cast<size_t>(i)];
        rows[static_cast<size_t>(i)] =
            compare_backends(scenario.model, scenario.require_config(),
                             scenario.cluster, *simulator, *candidate, label);
      });

  std::string out;
  const std::string candidate_name = to_string(candidate->backend());
  if (options.csv) {
    out = str_format(
        "scenario,batch_size,util_sim,util_%s,batch_time_sim_s,"
        "batch_time_%s_s,batch_time_deviation\n",
        candidate_name.c_str(), candidate_name.c_str());
    for (const BackendComparison& row : rows) {
      out += str_format("%s,%d", row.label.c_str(), row.config.batch_size());
      for (double x : {row.reference.utilization, row.candidate.utilization,
                       row.reference.batch_time, row.candidate.batch_time,
                       row.batch_time_deviation}) {
        append_general(out += ',', x, 6);
      }
      out += '\n';
    }
  } else {
    Table t({"Scenario", "B", "Util (sim)",
             str_format("Util (%s)", candidate_name.c_str()),
             "Batch time (sim)",
             str_format("Batch time (%s)", candidate_name.c_str()),
             "Deviation"});
    double worst = 0.0;
    for (const BackendComparison& row : rows) {
      worst = std::max(worst, std::abs(row.batch_time_deviation));
      t.add_row({row.label, std::to_string(row.config.batch_size()),
                 format_percent(row.reference.utilization, 5),
                 format_percent(row.candidate.utilization, 5),
                 format_time(row.reference.batch_time),
                 format_time(row.candidate.batch_time),
                 format_percent(row.batch_time_deviation, 0, true)});
    }
    out = str_format("== %s-vs-simulator batch-time deviation, paper fixed "
                     "configs (Figure 5) ==\n\n",
                     candidate_name.c_str()) +
          t.to_string() + "\nworst |deviation|: " + format_percent(worst) +
          "\n";
  }
  emit_text(out, options);
  return 0;
}

int do_serve(const CliOptions& options) {
  // The serve flags already parsed straight into options.serve; only
  // the execution defaults shared with every other command (--jobs,
  // --backend, kernel overrides) are filled in here.
  ServeOptions serve = options.serve;
  serve.jobs = options.jobs;
  serve.run = run_options_from_cli(options);
  Server server(serve);
  if (serve.stdio) return server.serve_stdio();
  return server.serve();
}

void list_section(const char* title, const std::vector<std::string>& names) {
  std::printf("%s:\n", title);
  for (const std::string& name : names) std::printf("  %s\n", name.c_str());
}

int do_list(const CliOptions& options) {
  const std::string what = to_lower(options.list_what);
  if (what != "models" && what != "clusters" && what != "scenarios" &&
      what != "all") {
    throw ConfigError(str_format(
        "cli: unknown list target '%s' (models, clusters or scenarios)",
        options.list_what.c_str()));
  }
  if (what == "models" || what == "all") list_section("models", model_names());
  if (what == "clusters" || what == "all") {
    list_section("clusters (append :<n_nodes> to resize)", cluster_names());
  }
  if (what == "scenarios" || what == "all") {
    list_section("scenarios", scenario_names());
  }
  return 0;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  check_config(!args.empty(), "cli: no command (try 'bfpp help')");
  options.command = to_lower(args[0]);
  if (options.command == "--help" || options.command == "-h") {
    options.command = "help";
  }
  check_config(options.command == "run" || options.command == "search" ||
                   options.command == "sweep" ||
                   options.command == "compare" ||
                   options.command == "validate" ||
                   options.command == "serve" ||
                   options.command == "list" || options.command == "help",
               "cli: unknown command '%s' (run, search, sweep, "
               "compare, validate, serve, list or help)",
               args[0].c_str());
  const bool sweeping = options.command == "sweep";

  size_t i = 1;
  if (options.command == "list" && i < args.size() &&
      args[i].rfind("--", 0) != 0) {
    options.list_what = args[i++];
  }
  auto value = [&](const std::string& flag) -> std::string {
    check_config(i + 1 < args.size(), "cli: %s expects a value", flag.c_str());
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const AxisSpec* axis = flag.rfind("--", 0) == 0
                               ? find_axis(std::string_view(flag).substr(2))
                               : nullptr;
    // A flag the command would silently ignore is rejected with exit 2,
    // as serve rejects the matching request fields.
    if (options.command == "run" && axis != nullptr &&
        axis->names == &ScenarioAxes::method) {
      throw UsageError("cli: --method applies to search and sweep commands, "
                       "not run");
    }
    if (options.command != "run" &&
        (flag == "--timeline" || flag == "--width")) {
      throw UsageError(str_format("cli: %s applies to run commands, not %s",
                                  flag.c_str(), options.command.c_str()));
    }
    if (options.command == "compare" &&
        (axis != nullptr || flag == "--preset" || flag == "--megatron" ||
         flag == "--no-dp-overlap" || flag == "--no-pp-overlap" ||
         flag == "--no-overlap")) {
      throw UsageError(str_format(
          "cli: %s is not valid for a 'compare' command (--grid, --jobs, "
          "--backend, --json, --csv or --output)",
          flag.c_str()));
    }
    if (axis != nullptr) {
      const std::string text = value(flag);
      if (axis->ints != nullptr) {
        options.axes.*axis->ints =
            sweeping ? parse_int_list(flag, text)
                     : std::vector<int>{parse_int_flag(flag, text)};
      } else {
        options.axes.*axis->names =
            sweeping ? parse_name_list(flag, text)
                     : std::vector<std::string>{text};
      }
    } else if (flag == "--preset") {
      options.preset = value(flag);
    } else if (flag == "--grid") {
      check_config(options.command == "compare",
                   "cli: --grid only applies to 'bfpp compare'");
      options.grid = value(flag);
    } else if (flag == "--backend") {
      options.backend = value(flag);
    } else if (flag == "--jobs") {
      options.jobs = parse_int_flag(flag, value(flag));
    } else if (flag == "--port") {
      check_config(options.command == "serve",
                   "cli: --port only applies to 'bfpp serve'");
      options.serve.port = parse_int_flag(flag, value(flag));
      check_config(options.serve.port <= 65535,
                   "cli: --port must be <= 65535");
    } else if (flag == "--stdio") {
      check_config(options.command == "serve",
                   "cli: --stdio only applies to 'bfpp serve'");
      options.serve.stdio = true;
    } else if (flag == "--cache-size") {
      check_config(options.command == "serve",
                   "cli: --cache-size only applies to 'bfpp serve'");
      const int entries = parse_int_flag(flag, value(flag));
      check_config(entries >= 0, "cli: --cache-size must be >= 0");
      options.serve.cache_capacity = static_cast<size_t>(entries);
    } else if (flag == "--max-connections") {
      check_config(options.command == "serve",
                   "cli: --max-connections only applies to 'bfpp serve'");
      options.serve.max_connections = parse_int_flag(flag, value(flag));
      check_config(options.serve.max_connections >= 1,
                   "cli: --max-connections must be at least 1");
    } else if (flag == "--max-inflight-per-client") {
      check_config(
          options.command == "serve",
          "cli: --max-inflight-per-client only applies to 'bfpp serve'");
      options.serve.max_inflight_per_client =
          parse_int_flag(flag, value(flag));
      check_config(options.serve.max_inflight_per_client >= 1,
                   "cli: --max-inflight-per-client must be at least 1");
    } else if (flag == "--cache-file") {
      check_config(options.command == "serve",
                   "cli: --cache-file only applies to 'bfpp serve'");
      options.serve.cache_file = value(flag);
      check_config(!options.serve.cache_file.empty(),
                   "cli: --cache-file expects a path");
    } else if (flag == "--output") {
      options.output = value(flag);
      check_config(!options.output.empty(), "cli: --output expects a path");
    } else if (flag == "--width") {
      options.width = parse_int_flag(flag, value(flag));
      if (options.width < 1) {
        throw UsageError("cli: --width must be at least 1");
      }
    } else if (flag == "--megatron") {
      options.megatron = true;
    } else if (flag == "--no-dp-overlap") {
      options.no_dp_overlap = true;
    } else if (flag == "--no-pp-overlap") {
      options.no_pp_overlap = true;
    } else if (flag == "--no-overlap") {
      options.no_dp_overlap = true;
      options.no_pp_overlap = true;
    } else if (flag == "--json") {
      options.json = true;
    } else if (flag == "--csv") {
      options.csv = true;
    } else if (flag == "--timeline") {
      options.timeline = true;
    } else {
      throw ConfigError(
          str_format("cli: unknown flag '%s' (try 'bfpp help')",
                     flag.c_str()));
    }
  }
  check_config(!(options.json && options.csv),
               "cli: --json and --csv are mutually exclusive");
  parse_backend(options.backend);  // reject unknown backends early
  return options;
}

Scenario scenario_from_cli(const CliOptions& options) {
  const ScenarioAxes& axes = options.axes;
  const bool capability_flags =
      options.megatron || options.no_dp_overlap || options.no_pp_overlap;
  if (!options.preset.empty()) {
    // A preset pins the whole scenario; silently dropping other flags
    // would mislead, so reject the combination.
    check_config(!pins_configuration(axes) && axes.model.empty() &&
                     axes.cluster.empty() && axes.batch.empty() &&
                     !capability_flags,
                 "cli: --preset cannot be combined with scenario flags "
                 "(--model/--cluster/--pp/--tp/--dp/--smb/--nmb/--loop/"
                 "--batch/--schedule/--sharding/--megatron/--no-*-overlap)");
    return lookup_scenario(options.preset);
  }

  // A search enumerates the grid, schedule and sharding itself, and its
  // method is not part of the scenario.
  const bool search = options.command == "search";
  ScenarioBuilder scenario;
  scenario.name("cli");
  std::optional<autotune::Method> unused;  // the method axis is skipped
  for (const AxisSpec& axis : scenario_axes()) {
    if (axis.names == &ScenarioAxes::method || (search && axis.searched)) {
      continue;
    }
    if (axis.size(axes) > 0) axis.apply(axes, 0, scenario, unused);
  }
  if (axes.model.empty()) scenario.model(kDefaultModel);
  if (axes.cluster.empty()) scenario.cluster(kDefaultCluster);
  if (search) {
    // Accepting (and ignoring) flags that pin the configuration would
    // mislead.
    check_config(!pins_configuration(axes) && !capability_flags,
                 "cli: search explores the configuration space itself; only "
                 "--model/--cluster/--batch/--method apply");
    check_config(!axes.batch.empty(), "cli: search needs --batch");
    return std::move(scenario).build();
  }
  if (options.no_dp_overlap || options.no_pp_overlap) {
    scenario.overlap(!options.no_dp_overlap, !options.no_pp_overlap);
  }
  if (options.megatron) scenario.megatron();
  return std::move(scenario).build();
}

autotune::Method search_method(const CliOptions& options) {
  return autotune::parse_method(
      options.axes.method.empty() ? "bf" : options.axes.method.front());
}

SweepBuilder sweep_from_cli(CliOptions options) {
  check_config(options.preset.empty(),
               "cli: sweep grids are described by axis flags, not --preset");
  ScenarioAxes& axes = options.axes;
  if (axes.model.empty()) axes.model = {kDefaultModel};
  if (axes.cluster.empty()) axes.cluster = {kDefaultCluster};
  if (!axes.method.empty()) {
    // The per-cell search enumerates grid/schedule/sharding itself;
    // silently dropping flags that pin them would mislead.
    check_config(!pins_configuration(axes) && !options.megatron &&
                     !options.no_dp_overlap && !options.no_pp_overlap,
                 "cli: a --method sweep grid-searches the configuration "
                 "space per cell; only --model/--cluster/--batch axes apply");
  }
  ScenarioBuilder base;
  if (options.megatron) base.megatron();
  if (options.no_dp_overlap || options.no_pp_overlap) {
    base.overlap(!options.no_dp_overlap, !options.no_pp_overlap);
  }
  // A misspelled family name on the --schedule axis would otherwise
  // surface only as a found=0 row in *every* cell that uses it (easy
  // to miss in a wide CSV); reject the whole sweep up front instead,
  // with the malformed-flag exit code (2).
  for (const std::string& name : axes.schedule) {
    try {
      parallel::parse_schedule_kind(name);
    } catch (const ConfigError& e) {
      throw UsageError(e.what());
    }
  }
  SweepBuilder sweep;
  sweep.base(std::move(base)).axes(std::move(axes));
  return sweep;
}

std::string cli_usage() {
  return
      "bfpp - breadth-first pipeline parallelism experiment driver\n"
      "\n"
      "usage:\n"
      "  bfpp run      [scenario flags] [--backend B] [--json|--csv]\n"
      "                [--timeline]\n"
      "  bfpp search   --batch B [--method M] [--model/--cluster]\n"
      "                [--backend B] [--jobs N] [--json|--csv]\n"
      "  bfpp sweep    [axis flags, comma lists] [--jobs N] [--backend B]\n"
      "                [--json|--csv]\n"
      "  bfpp compare  [--grid G] [--jobs N] [--backend B] [--json|--csv]\n"
      "  bfpp validate [--jobs N] [--backend B] [--csv]\n"
      "  bfpp serve    [--port N | --stdio] [--cache-size N]\n"
      "                [--cache-file F]\n"
      "                [--max-connections N] [--max-inflight-per-client N]\n"
      "                [--jobs N] [--backend B]\n"
      "  bfpp list     [models|clusters|scenarios|all]\n"
      "  bfpp help\n"
      "\n"
      "scenario flags:\n"
      "  --preset NAME       use a named paper operating point (see list)\n"
      "  --model NAME        model preset (default 52b)\n"
      "  --cluster NAME      cluster preset, ':<n_nodes>' resizes\n"
      "                      (default dgx1-v100-ib)\n"
      "  --pp/--tp/--dp N    pipeline/tensor/data-parallel group sizes\n"
      "                      (--dp inferred from the cluster when omitted)\n"
      "  --smb N             micro-batch size (default 1)\n"
      "  --nmb N             micro-batch count\n"
      "  --batch B           global batch size (derives --nmb, or drives\n"
      "                      the search)\n"
      "  --schedule S        gpipe | 1f1b | df | bf | 1f1b-async |\n"
      "                      unbalanced | v | 2bp (docs/SCHEDULES.md)\n"
      "  --loop N            stages per device (looped schedules)\n"
      "  --sharding S        none | ps | fs\n"
      "  --megatron          Megatron-LM capability flags (no overlap)\n"
      "  --no-dp-overlap / --no-pp-overlap / --no-overlap\n"
      "\n"
      "search (bfpp search):\n"
      "  --method M          bf | df | nl (non-looped) | np (no-pipeline);\n"
      "                      default bf. search needs --batch and accepts\n"
      "                      only --model/--cluster/--batch/--method (it\n"
      "                      enumerates the grid, schedule and sharding\n"
      "                      itself). Exit code 2 when nothing fits.\n"
      "\n"
      "sweeps (bfpp sweep):\n"
      "  axis flags take comma lists (--batch 16,64,256 --method bf,df)\n"
      "  and grid over the product, one Report row per cell. --method\n"
      "  sweeps run the full grid search per cell (only --model/--cluster/\n"
      "  --batch axes compose with it); without --method the grid axes\n"
      "  (--schedule/--pp/--tp/--dp/--smb/--nmb/--loop/--sharding)\n"
      "  describe exact configurations. Every listed value is a cell:\n"
      "  0 is a value, not 'unset' (--pp 0,4 gives a pp0 cell that fails\n"
      "  like 'bfpp run --pp 0'). The flags are the serve request's JSON\n"
      "  fields (docs/PROTOCOL.md). Rows are deterministic and\n"
      "  independent of --jobs; failed cells become found=0 rows with the\n"
      "  reason in the error column. Exit code 2 when no cell is feasible\n"
      "  or a --schedule axis entry is not a known schedule family.\n"
      "\n"
      "compare (bfpp compare):\n"
      "  runs every schedule family of the zoo (docs/SCHEDULES.md) - bf,\n"
      "  df, 1f1b-async, unbalanced, v-schedule, 2bp - head to head on a\n"
      "  named grid of paper operating points and prints one row per\n"
      "  (model, batch) with a column per family (util% / idle% / GB).\n"
      "  --grid G            fig5-quick (default; 6.6b, CI smoke) |\n"
      "                      fig5 (both Figure 5 points) |\n"
      "                      fig6 (52b on Ethernet, bandwidth-bound)\n"
      "  --json/--csv emit the raw per-cell Reports instead of the table.\n"
      "  Rows are byte-identical for every --jobs; infeasible cells\n"
      "  render '-'. Exit code 2 when no cell is feasible.\n"
      "\n"
      "server (bfpp serve):\n"
      "  --port N            TCP port on 127.0.0.1 (default 7070; 0 picks\n"
      "                      an ephemeral port)\n"
      "  --stdio             serve stdin/stdout instead of TCP (tests,\n"
      "                      one-shot scripting)\n"
      "  --cache-size N      LRU Report cache capacity in entries\n"
      "                      (default 1024; 0 disables caching)\n"
      "  --cache-file F      persist the Report cache to F: loaded on\n"
      "                      startup, each new cell appended as it is\n"
      "                      computed, compacted on shutdown (a corrupt\n"
      "                      file is ignored with a warning)\n"
      "  --max-connections N concurrent TCP connections (default 1024;\n"
      "                      connections over the cap are rejected with an\n"
      "                      explicit JSON error, not queued in the kernel\n"
      "                      backlog)\n"
      "  --max-inflight-per-client N\n"
      "                      pipelined requests buffered per connection\n"
      "                      before the server stops reading from it\n"
      "                      (default 4; backpressure, not an error)\n"
      "  requests are line-delimited JSON (docs/PROTOCOL.md); --backend\n"
      "  and --jobs set per-request defaults. A poll() event loop owns\n"
      "  all sockets and the shared thread pool runs the compute, so an\n"
      "  idle or slow client never delays another's requests, and\n"
      "  requests racing on the same uncached cell are coalesced (one\n"
      "  computes, the rest are handed its bytes). A `metrics` request\n"
      "  reports latency histograms, queue depths and connection states\n"
      "\n"
      "execution:\n"
      "  --backend B         sim (default) | analytic | threaded\n"
      "                      sim: event-driven simulator (the paper's\n"
      "                      numbers); analytic: closed-form model, fast\n"
      "                      path for huge grids; threaded: real execution\n"
      "                      of small proxy shapes on OS threads with\n"
      "                      bitwise gradient checks (wall-clock only)\n"
      "  --jobs N            parallel cells/candidates on the shared pool\n"
      "                      (default: all hardware threads; results are\n"
      "                      identical for every N)\n"
      "\n"
      "output:\n"
      "  --json / --csv      structured Report(s) instead of a table\n"
      "                      (mutually exclusive)\n"
      "  --output FILE       write the report/CSV/JSON to FILE\n"
      "  --timeline          append a Figure-4-style ASCII timeline\n"
      "                      (run only; requires --backend sim)\n"
      "  --width N           timeline width in columns (run only;\n"
      "                      default 100)\n"
      "\n"
      "exit codes: 0 ok; 1 usage/config error; 2 malformed numeric flag\n"
      "value, a flag the command ignores, or search/sweep found no\n"
      "feasible configuration\n"
      "\n"
      "examples:\n"
      "  bfpp run --model 52b --cluster dgx1-v100-ib --pp 8 --tp 8 \\\n"
      "           --nmb 16 --schedule bf --loop 4 --json\n"
      "  bfpp run --preset fig5a-bf-b16 --timeline\n"
      "  bfpp search --model 6.6b --batch 64 --method bf --jobs 8\n"
      "  bfpp sweep --model 6.6b --cluster dgx1-v100-eth \\\n"
      "             --batch 16,64,256 --method bf,df --jobs 8 --csv\n"
      "  bfpp sweep --pp 8 --tp 8 --batch 16,32,64 --schedule bf \\\n"
      "             --loop 2,4,8 --csv\n"
      "  bfpp compare --grid fig5-quick --jobs 8\n"
      "  bfpp validate --jobs 8\n"
      "  bfpp serve --port 7070 --cache-size 4096 \\\n"
      "             --cache-file reports.jsonl --max-connections 256\n"
      "  printf '%s\\n' '{\"type\":\"run\",\"preset\":\"fig5a-bf-b16\"}' \\\n"
      "      | bfpp serve --stdio\n";
}

int cli_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fputs(cli_usage().c_str(), stdout);
    return 0;
  }
  try {
    const CliOptions options = parse_cli(args);
    if (options.command == "help") {
      std::fputs(cli_usage().c_str(), stdout);
      return 0;
    }
    if (options.command == "list") return do_list(options);
    if (options.command == "search") return do_search(options);
    if (options.command == "sweep") return do_sweep(options);
    if (options.command == "compare") return do_compare(options);
    if (options.command == "validate") return do_validate(options);
    if (options.command == "serve") return do_serve(options);
    return do_run(options);
  } catch (const UsageError& e) {
    // Malformed flag values (e.g. `--pp eight`) exit 2, distinguishable
    // from semantic configuration errors (1) in scripts.
    std::fprintf(stderr, "bfpp: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "bfpp: %s\n", e.what());
    return 1;
  }
}

}  // namespace bfpp::api
