// A `bfpp serve` request line, parsed: its type, options and cells, each
// cell built and keyed for the ReportCache. docs/PROTOCOL.md documents
// every request shape.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "autotune/autotune.h"

namespace bfpp::api {

// The most cells one sweep may name (the product of its axis lengths).
// Checked before the sweep's cells are walked, so a short line cannot
// make the server build billions of cells; the largest built-in compare
// grid has 36.
inline constexpr size_t kMaxCellsPerRequest = 4096;

// One cell of a request, built and keyed by parse_request(). A sweep
// cell whose scenario fails to build carries its [config] row instead
// (run/search scenarios are validated eagerly: an invalid one fails the
// whole request).
struct RequestCell {
  std::optional<Scenario> built;  // nullopt: the build failed
  std::optional<autotune::Method> method;
  // The row's label when it is not the scenario's name ("serve" for a
  // run or search); empty for a sweep or compare cell, whose label is
  // its scenario's name.
  std::string label;
  std::string key;               // cache_key(); empty when unbuilt
  std::optional<Report> failed;  // the row of a cell that did not build
};

// A request line after the parse step. Scenario requests carry their
// cells; a request that must compute becomes a Job as is, so nothing is
// parsed, built or keyed twice.
struct Request {
  std::string id_echo;  // compact JSON to echo back ("" = no id)
  std::string type;     // run | search | sweep | compare | stats |
                        // metrics | list | ping | shutdown
  RowFormat format = RowFormat::kJson;
  std::string list_what = "all";  // list: models|clusters|scenarios|all
  RunOptions run;
  int jobs = 0;
  std::vector<RequestCell> cells;
  // When the server began to answer the line: its service time runs
  // from here to its response, whatever it waited for in between.
  std::chrono::steady_clock::time_point received;
};

// Parses `line` into `req`, every cell built and keyed (a sweep's
// straight from SweepBuilder::walk). A request that names no backend,
// kernel or jobs takes `run_defaults` and `jobs_default`. Throws
// bfpp::Error on a malformed request; req.id_echo is set as soon as the
// id is known, so the error line can still echo it.
void parse_request(const std::string& line, const RunOptions& run_defaults,
                   int jobs_default, Request& req);

}  // namespace bfpp::api
