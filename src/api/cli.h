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

#include <optional>
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

  // Scenario selection (run/search).
  std::string preset;                 // --preset <scenario name>
  std::string model = "52b";          // --model
  std::string cluster = "dgx1-v100-ib";  // --cluster (supports ":<nodes>")
  std::optional<int> pp, tp, dp, smb, nmb, loop, batch;
  std::string schedule;  // --schedule (parse_schedule_kind names)
  std::string sharding;  // --sharding (parse_sharding names)
  bool megatron = false;
  bool no_dp_overlap = false;
  bool no_pp_overlap = false;

  // Search.
  std::string method = "bf";  // --method

  // Compare (compare only).
  std::string grid = "fig5-quick";  // --grid (compare_grid_names)

  // Sweep axes (the same flags, comma-separated; sweep command only).
  std::vector<std::string> models, clusters, schedules, shardings, methods;
  std::vector<int> batches, pps, tps, dps, smbs, nmbs, loops;

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

// Builds the sweep campaign a `bfpp sweep` option set describes.
ScenarioGrid grid_from_cli(const CliOptions& options);

// The full usage text.
std::string cli_usage();

// Entry point for the `bfpp` binary: parse, dispatch, print. Returns
// the process exit code (0 success, 1 usage/config error, 2 malformed
// numeric flag value or nothing feasible anywhere in a search/sweep).
int cli_main(int argc, char** argv);

}  // namespace bfpp::api
