// Report: the unified result type of the experiment API. One Report
// captures everything a paper table row needs - the scenario identity,
// the (chosen) parallel configuration, the simulated RunResult and the
// two memory columns of Appendix E - and renders itself as JSON, CSV or
// an ASCII table row.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "memmodel/memory.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"

namespace bfpp::json {
class Value;
}

namespace bfpp::api {

struct Report {
  // Identity.
  std::string scenario;  // preset/builder name (may be empty)
  std::string model;
  std::string cluster;
  std::string method;  // search method; empty for direct runs
  int n_gpus = 0;
  int batch_size = 0;

  // False when a search found no feasible configuration (or a sweep
  // cell failed); the fields below are only meaningful when true.
  bool found = false;
  // Why a sweep cell has found == false: the rejecting backend's message
  // prefixed with "[config] " or "[oom] " (api::sweep and the serve
  // ReportCache fill this; plain searches leave it empty). The two
  // emitters treat it asymmetrically: JSON includes an "error" key only
  // when found is false and the message is non-empty, while CSV always
  // emits a trailing `error` column (empty string for successful rows),
  // so sweep CSVs keep a stable schema across failed cells.
  std::string error;
  parallel::ParallelConfig config;
  runtime::RunResult result;
  memmodel::MemoryEstimate memory;      // on the actual cluster
  memmodel::MemoryEstimate memory_min;  // at arbitrarily large N_DP

  // Search statistics (zero for direct runs).
  int evaluated = 0;
  int infeasible = 0;

  // Most memory-frugal configuration within 7% of the best throughput
  // (the at-scale deployment pick; search only).
  struct Frugal {
    parallel::ParallelConfig config;
    runtime::RunResult result;
    memmodel::MemoryEstimate memory_min;
  };
  std::optional<Frugal> frugal;

  [[nodiscard]] double beta() const {
    return n_gpus > 0 ? static_cast<double>(batch_size) / n_gpus : 0.0;
  }

  // Single JSON object, stable key order, locale-free 10-digit doubles:
  // pretty by default (two-space indent, trailing newline), or compact
  // (no whitespace outside strings, no newline) as serve responses embed.
  [[nodiscard]] std::string to_json(bool pretty = true) const;

  // CSV: fixed column set, stable across runs and locales.
  static std::string csv_header();
  [[nodiscard]] std::string to_csv_row() const;
  [[nodiscard]] std::string to_csv() const;  // header + this row

  // Lossless single-line wire form for ReportCache persistence
  // (api/server.h). Unlike to_json() - a *display* format with 10-digit
  // doubles and found-dependent keys - the wire form always carries
  // every field, emits 17-digit doubles (the bytes of %.17g, so the
  // parsed double is bit-identical and a reloaded Report renders
  // byte-for-byte like the original), and encodes the ParallelConfig as
  // its describe() string (which round-trips through
  // ParallelConfig::parse).
  [[nodiscard]] std::string to_wire() const;
  // Inverse of to_wire(). Throws bfpp::ConfigError on a malformed or
  // truncated value (the cache loader skips such entries).
  static Report from_wire(const json::Value& value);
};

// A row is its label followed by a label-free tail: `scenario` is the
// first field of both the compact JSON object and the CSV row, and
// nothing after it depends on it. The serve cache keeps each Report's
// tails and answers a hit by splicing the cell's label in.
enum class RowFormat { kJson, kCsv };

// The bytes of to_json(false) (kJson) or to_csv_row() (kCsv) after the
// scenario field, from the comma that follows it.
std::string row_tail(Report report, RowFormat format);
// Appends the report's to_json(false) or to_csv_row(); or, from one of
// its tails, the bytes that report relabelled to `label` renders.
void append_row(std::string& out, const Report& report, RowFormat format);
void append_row(std::string& out, const std::string& label,
                std::string_view tail, RowFormat format);

// Renders reports as the repo's standard ASCII table (one row each).
Table to_table(const std::vector<Report>& reports);
// Multi-row CSV (header + one row per report).
std::string to_csv(const std::vector<Report>& reports);
// JSON array (one object per report, same shape as Report::to_json).
std::string to_json(const std::vector<Report>& reports);

}  // namespace bfpp::api
