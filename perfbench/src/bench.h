// Shared types of the perfbench binary: the seeded workloads, the
// closed-loop TCP run against a separate `bfpp serve` process, and the
// traced in-process replay that splits the same requests by layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/scenario.h"

namespace perfbench {

// One simulated cell, exactly as a request spells it.
struct Cell {
  std::string model;
  std::string cluster;
  std::string schedule;
  int pp = 1;
  int tp = 1;
  int dp = 1;
  int smb = 1;
  int nmb = 1;
  int loop = 1;

  [[nodiscard]] bfpp::api::ScenarioBuilder builder() const;
};

struct Request {
  std::string line;         // the request line sent, without the newline
  std::vector<Cell> cells;  // rows the response must carry, in grid order
  bool sweep = false;       // sweep (multi-row) rather than run
  bool csv = false;         // format csv rather than json
  bool novel = false;       // a cell the server has never seen
  // serve_churn: this request and the next carry the same novel cell and
  // are sent on two connections at once.
  bool pair_first = false;
};

// ReportCache counters the server must report after the run. For
// duplicate pairs the hit/coalesced split depends on timing, so only
// their sum is fixed; without pairs nothing coalesces.
struct CacheCounts {
  uint64_t hits_plus_coalesced = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  bool coalesced_fixed = true;  // false: only the sum above is fixed
};

struct Workload {
  std::string name;
  int connections = 1;
  size_t capacity = 1024;
  bool snapshot = false;        // server starts from a --cache-file snapshot
  // The end-to-end figures pool every round of the window instead of the
  // calm ones: set where one round holds too few of the workload's costly
  // requests for rounds to be alike (serve_churn: a 50 ms round holds one
  // or two ~30 ms snapshot saves), so picking rounds by steal would also
  // pick a different mix of saves and hits.
  bool pool_all_rounds = false;
  std::vector<Request> warm;    // sweeps whose cells fill the snapshot
  std::vector<Request> requests;
  std::vector<size_t> sample;   // requests byte-compared to a reference
  CacheCounts expected;
};

// The request list of `name` for `seed`. The amount of work is a fixed
// function of (name, seconds, smoke), never of how fast the host runs.
Workload make_workload(const std::string& name, uint64_t seed, int seconds,
                       bool smoke);

// The counters a serial run of the first `n` requests must produce.
CacheCounts model_cache(const Workload& workload, size_t n);

// Monotonic nanoseconds.
int64_t now_ns();

// A fixed CPU-bound reference loop; its time tracks host speed.
double host_ref_us();

// One emitted metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What the closed-loop TCP run measured.
struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  uint64_t cells = 0;                // cells in the answered responses
  double window_s = 0.0;
  // The window cut into rounds of kRoundNs (closed at the first
  // completion after that), each with its own steal share.
  struct Round {
    double seconds = 0.0;
    double steal_share = 0.0;
    double server_cpu_s = 0.0;
    uint64_t cells = 0;
    std::vector<double> sojourn_ms;
  };
  std::vector<Round> rounds;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;
  std::vector<double> setup_steal_share;  // steal_share during each setup
  double service_mean_us = 0.0;  // server metrics: latency sum / count
  uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0,
           coalesced = 0;
  bool counts_ok = false;
  std::vector<double> host_ref_us;  // reference loop samples, see run_load
  // Share of the VM's demanded CPU time the hypervisor stole during the
  // window (/proc/stat steal over busy+steal).
  double steal_share = 0.0;
};

// Length of a round: short enough that many rounds see no hypervisor
// steal at all, long enough to span a few /proc/stat ticks.
constexpr int64_t kRoundNs = 50'000'000;
// Completions the calm rounds pool at least, so their p99 has ten
// samples beyond it. A larger pool tops up with more stolen rounds when
// steal is heavy: on the 4-vCPU reference host at 36-58 % steal, 2000
// instead of 1000 widened the p99 spread across runs from 0.07 to 0.09
// on serve_hot and from 0.08 to 0.12 on sweep_cold.
constexpr size_t kMinCalmRequests = 1000;

struct LoadOptions {
  std::string server_binary;
  std::string work_dir;
  int setups = 5;
  bool corrupt_reference = false;  // self-test: damage every reference
};

// Starts `bfpp serve` (several times, for setup_s), drives the workload
// over loopback TCP, checks every response and the cache counters.
LoadResult run_load(const Workload& workload, const LoadOptions& options);

// The traced replay: per-layer metrics (in emission order) and whether
// its own counts matched.
struct TraceResult {
  std::vector<Metric> metrics;
  bool counts_ok = false;
  std::vector<std::string> errors;
};
TraceResult run_trace(const Workload& workload, const LoadResult& load,
                      const std::string& work_dir);

// Shared helpers.
double median(std::vector<double> values);
// Nearest-rank percentile; q = 0.5 gives the usual median.
double percentile(std::vector<double> values, double q);
// The snapshot a server loads and writes through, and the untouched
// copy every server start (and the traced replay) begins from.
std::string snapshot_path(const std::string& work_dir);
std::string pristine_snapshot_path(const std::string& work_dir);
// Writes the pristine snapshot (in-process Server::handle over the warm
// requests, then persist_cache()).
void write_snapshot(const Workload& workload, const std::string& work_dir);

}  // namespace perfbench
