// perfbench: the serve benchmark binary.
//
//   perfbench --workload serve_hot|sweep_cold|serve_churn --seed N
//             --seconds S --trace 0|1 --server PATH --work-dir DIR
//             [--smoke] [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics of a closed-loop TCP run
// against a separate `bfpp serve` process; --trace 1 makes the same run
// and then the traced in-process replay, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status 0 means the run completed (whether or not it was correct);
// anything else is an error with no result line.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/strings.h"

using namespace perfbench;
using bfpp::str_format;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  bool smoke = false;
  bool corrupt_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--server") {
      a.server = value();
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.server.empty() || a.work_dir.empty() ||
      a.seconds < 1) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--server PATH --work-dir DIR [--smoke] [--corrupt-reference]");
  }
  return a;
}

// host_ref_us on this benchmark's reference host (a 4-vCPU KVM guest on
// an Intel Xeon) when nothing contends for it.
constexpr double kHostRefNominalUs = 90.0;

// The end-to-end metrics of the TCP run. On the reference host, a 4-vCPU
// KVM guest whose vCPUs share physical cores with other tenants, the
// hypervisor steals up to half of the CPU time the benchmark asks for in
// bursts lasting from a fraction of a second to minutes, and wall-clock
// figures - the p99 above all - then measure the neighbours rather than
// the server. So the window is cut into rounds of kRoundNs, and the
// metrics pool the calm rounds: every round during which /proc/stat shows
// no stolen tick, topped up with the least-stolen rounds until they hold
// kMinCalmRequests completions. That needs rounds that are alike; where
// they are not (Workload::pool_all_rounds), the metrics pool every round.
// A pooled round that still lost a share s of its CPU time has its wall
// time and sojourns scaled by (1 - s); each setup_s sample likewise. The
// selection reads the host's steal counter only, never the measured
// values. Host speed also drifts without steal (shared caches,
// clocks), so the four window figures are finally scaled by
// kHostRefNominalUs over the window's median host_ref_us, the reference
// loop run interleaved with the workload. With normalise=false, the raw
// figures: every round, unscaled.
std::vector<Metric> end_to_end(const Workload& w, const LoadResult& load,
                               bool normalise = true) {
  std::vector<const LoadResult::Round*> rounds;
  for (const LoadResult::Round& r : load.rounds) rounds.push_back(&r);
  std::stable_sort(rounds.begin(), rounds.end(), [](auto* a, auto* b) {
    return a->steal_share < b->steal_share;
  });
  std::vector<double> sojourn_ms;
  double cells = 0.0, seconds = 0.0, cpu_s = 0.0;
  for (const LoadResult::Round* r : rounds) {
    if (normalise && !w.pool_all_rounds && r->steal_share > 0.0 &&
        sojourn_ms.size() >= kMinCalmRequests) {
      break;
    }
    const double avail = normalise ? 1.0 - r->steal_share : 1.0;
    for (const double x : r->sojourn_ms) sojourn_ms.push_back(x * avail);
    cells += static_cast<double>(r->cells);
    seconds += r->seconds * avail;
    cpu_s += r->server_cpu_s;
  }
  const double speed = normalise && !load.host_ref_us.empty()
                           ? kHostRefNominalUs / median(load.host_ref_us)
                           : 1.0;
  std::vector<double> setup;
  for (size_t i = 0; i < load.setup_s.size(); ++i) {
    setup.push_back(load.setup_s[i] *
                    (normalise ? 1.0 - load.setup_steal_share[i] : 1.0));
  }
  return {
      {"sojourn_p50_ms", percentile(sojourn_ms, 0.5) * speed, "ms"},
      {"sojourn_p99_ms", percentile(sojourn_ms, 0.99) * speed, "ms"},
      {"cells_per_s", seconds > 0 ? cells / seconds / speed : 0.0, "1/s"},
      {"cpu_us_per_cell", cells > 0 ? cpu_s * 1e6 / cells * speed : 0.0, "us"},
      {"peak_rss_mb", load.peak_rss_mb, "MiB"},
      {"setup_s", median(setup), "s"},
  };
}

// Each round's raw figures, for looking at host noise inside a run.
void write_rounds(const LoadResult& load, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const LoadResult::Round& r : load.rounds) {
    std::fprintf(f,
                 "{\"seconds\":%.6f,\"steal_share\":%.4f,\"cells\":%llu,"
                 "\"server_cpu_s\":%.3f,\"p50_ms\":%.4f,\"p99_ms\":%.4f}\n",
                 r.seconds, r.steal_share, static_cast<unsigned long long>(r.cells),
                 r.server_cpu_s, percentile(r.sojourn_ms, 0.5),
                 percentile(r.sojourn_ms, 0.99));
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w =
        make_workload(args.workload, args.seed, args.seconds, args.smoke);
    if (w.snapshot) write_snapshot(w, args.work_dir);

    LoadOptions options;
    options.server_binary = args.server;
    options.work_dir = args.work_dir;
    // A cold start costs ~4 ms without a snapshot and ~0.4 s with one.
    options.setups = args.smoke ? 2 : w.snapshot ? 7 : 25;
    options.corrupt_reference = args.corrupt_reference;
    const LoadResult load = run_load(w, options);

    bool correct = load.failed == 0 && load.counts_ok;
    std::vector<Metric> metrics;
    std::vector<std::string> errors = load.errors;
    if (args.trace) {
      TraceResult trace = run_trace(w, load, args.work_dir);
      correct = correct && trace.counts_ok;
      errors.insert(errors.end(), trace.errors.begin(), trace.errors.end());
      metrics = std::move(trace.metrics);
      // The raw wall-clock figures behind the normalised end-to-end ones.
      metrics.push_back({"host.steal_share", load.steal_share, "ratio"});
      for (const Metric& m : end_to_end(w, load, /*normalise=*/false)) {
        if (m.unit == "ms" || m.unit == "1/s" || m.unit == "s") {
          metrics.push_back({"raw." + m.name, m.value, m.unit});
        }
      }
    } else {
      metrics = end_to_end(w, load);
    }
    write_rounds(load, args.work_dir + "/rounds.jsonl");
    for (const std::string& e : errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }

    // The machine record, one line ahead of the result.
    std::printf(
        "# perfbench workload=%s seed=%llu requests=%zu cells=%llu "
        "connections=%d rounds=%zu window_s=%.3f steal_share=%.4f hits=%llu misses=%llu insertions=%llu "
        "evictions=%llu coalesced=%llu host_ref_us=%.2f nproc=%ld "
        "cpu=\"%s\" compiler=\"%s\" build=%s\n",
        w.name.c_str(), static_cast<unsigned long long>(args.seed),
        w.requests.size(), static_cast<unsigned long long>(load.cells),
        w.connections, load.rounds.size(), load.window_s, load.steal_share,
        static_cast<unsigned long long>(load.hits),
        static_cast<unsigned long long>(load.misses),
        static_cast<unsigned long long>(load.insertions),
        static_cast<unsigned long long>(load.evictions),
        static_cast<unsigned long long>(load.coalesced),
        median(load.host_ref_us), sysconf(_SC_NPROCESSORS_ONLN),
        json_escape(cpu_model()).c_str(), PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE);

    std::string out = str_format(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
        correct ? "true" : "false",
        static_cast<unsigned long long>(load.attempted),
        static_cast<unsigned long long>(load.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += str_format("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                        i ? "," : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
