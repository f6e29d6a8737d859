// The `bfpp` command-line driver. Flag parsing and dispatch live in the
// library (not in the example binary) so tests can exercise them.
//
//   bfpp run      --model 52b --cluster dgx1-v100-ib --pp 8 --tp 8
//                 --nmb 16 --schedule bf --loop 4 --json
//   bfpp run      --preset fig5a-bf-b16 --timeline
//   bfpp search   --model 6.6b --cluster dgx1-v100-eth --batch 64
//                 --method bf --jobs 8
//   bfpp sweep    --model 6.6b --cluster dgx1-v100-eth
//                 --batch 16,64,256 --method bf,df --jobs 8 --csv
//   bfpp compare  --grid fig5-quick --jobs 8
//   bfpp validate --jobs 8
//   bfpp serve    --port 7070 --cache-size 1024
//   bfpp list     [models|clusters|scenarios|all]
//
// `sweep` axis flags take comma-separated lists and grid over the
// product; `compare` runs the schedule-zoo head-to-head table
// (api/compare.h) on a named Figure 5/6 grid; `validate` cross-checks the analytic backend against the
// simulator on the paper's fixed (Figure 5) configurations and prints a
// deviation table; `serve` starts the long-lived experiment server of
// api/server.h (line-delimited JSON over TCP, or stdin/stdout with
// --stdio).
#pragma once

#include <string>
#include <vector>

#include "api/scenario.h"
#include "api/server.h"
#include "api/sweep.h"

namespace bfpp::api {

struct CliOptions {
  // "run", "search", "sweep", "compare", "validate", "serve", "list" or
  // "help".
  std::string command;

  // Scenario selection.
  std::string preset;  // --preset <scenario name> (run/search)
  // The scenario axes (api/sweep.h), one list each, set by the flag that
  // is the axis name (--model, --pp, ...): run and search take one value
  // per axis, sweep a comma-separated list. An unset model or cluster
  // means 52b on dgx1-v100-ib, applied when the scenario or grid is
  // built (so a --preset can tell it was not given). --method defaults
  // to bf for search; a sweep without it is a run grid.
  ScenarioAxes axes;
  bool megatron = false;
  bool no_dp_overlap = false;
  bool no_pp_overlap = false;

  // Compare (compare only).
  std::string grid = "fig5-quick";  // --grid (a compare_grid name)

  // Execution.
  std::string backend = "sim";  // --backend sim|analytic|threaded
  int jobs = 0;                 // --jobs (0 = all hardware threads)

  // Server mode (serve only). The serve flags parse directly into the
  // api::ServeOptions the Server is constructed from - no duplicated
  // fields: --stdio, --port, --cache-size (ReportCache entries),
  // --max-connections, --max-inflight-per-client, --cache-file.
  // serve.jobs and serve.run are filled from --jobs/--backend at
  // dispatch, after the whole command line is parsed.
  ServeOptions serve;

  // Output.
  bool json = false;      // --json
  bool csv = false;       // --csv
  std::string output;     // --output <file> (empty = stdout)
  bool timeline = false;  // --timeline (run only)
  int width = 100;        // --width (timeline columns)

  // List.
  std::string list_what = "all";  // models | clusters | scenarios | all
};

// Parses argv[1..]; throws bfpp::ConfigError on unknown commands, flags
// or malformed values.
CliOptions parse_cli(const std::vector<std::string>& args);

// Builds the Scenario an option set describes (preset or flag-by-flag).
Scenario scenario_from_cli(const CliOptions& options);

// The method a search option set names (--method, default bf).
autotune::Method search_method(const CliOptions& options);

// The sweep campaign a `bfpp sweep` option set describes (its axes are
// moved out of `options`): `bfpp sweep` builds its grid, the serve
// parser walks it cell by cell.
SweepBuilder sweep_from_cli(CliOptions options);

// The full usage text.
std::string cli_usage();

// Entry point for the `bfpp` binary: parse, dispatch, print. Returns
// the process exit code (0 success, 1 usage/config error, 2 malformed
// numeric flag value, a flag the command ignores, or nothing feasible
// anywhere in a search/sweep).
int cli_main(int argc, char** argv);

}  // namespace bfpp::api
