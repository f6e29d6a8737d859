// Serve-mode throughput: request rate of the `bfpp serve` core with a
// cold ReportCache (every request simulated) vs a warm one (every
// request a cache hit), for the simulator and analytic backends, plus
// two concurrent passes: the warm workload replayed from N sessions at
// once, and the *contended cold* pass - N sessions racing the same cold
// workload - where single-flight coalescing turns N duplicate
// computations per cell into one computation plus N-1 cheap waits.
//
// Drives Server::handle() directly - the same code path both transports
// (TCP and --stdio) call and the same thread-safe entry point each
// executor thread uses - so the numbers isolate request parsing +
// execution + response rendering from socket I/O. Each pass issues the
// same set of distinct run requests (6.6B, pp4/tp2, nmb x schedule x
// loop grid); the first pass misses everywhere, the second hits
// everywhere, and the ratio is what a repeated-workload client (a sweep
// dashboard, a CI job re-running a figure) gains from the cache. The
// contended-cold pass is the thundering-herd scenario of a popular new
// cell: the `Coalesced` column counts the duplicate computations the
// in-flight table absorbed.
//
// Socket transport and sojourn over real TCP are perfbench's job
// (perfbench/README.md); 256 concurrent clients held open and answered
// byte-identically is a test_server case.
//
// Usage: serve_throughput [requests_per_pass] [concurrent_clients]
//                         [--json FILE]
//        (defaults 64 and 4; --json additionally writes the table as a
//        machine-readable JSON document, the artifact CI archives)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/server.h"
#include "common/serialize.h"
#include "common/strings.h"
#include "common/table.h"

using namespace bfpp;

namespace {

std::vector<std::string> distinct_run_requests(int n) {
  const std::vector<std::string> schedules = {"bf", "df"};
  const std::vector<int> loops = {1, 2, 4};
  std::vector<std::string> requests;
  requests.reserve(static_cast<size_t>(n));
  for (int i = 0; requests.size() < static_cast<size_t>(n); ++i) {
    const std::string& schedule =
        schedules[static_cast<size_t>(i) % schedules.size()];
    const int loop = loops[(static_cast<size_t>(i) / schedules.size()) %
                           loops.size()];
    const int nmb = 8 * (1 + i / static_cast<int>(schedules.size() *
                                                  loops.size()));
    requests.push_back(str_format(
        R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
        R"("tp":2,"dp":8,"nmb":%d,"schedule":"%s","loop":%d})",
        nmb, schedule.c_str(), loop));
  }
  return requests;
}

struct PassResult {
  double seconds = 0.0;
  size_t responses = 0;
  size_t bytes = 0;
};

PassResult run_pass(api::Server& server,
                    const std::vector<std::string>& requests) {
  PassResult result;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& request : requests) {
    const std::string response = server.handle(request);
    result.bytes += response.size();
    ++result.responses;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

double rate(const PassResult& r) {
  return r.seconds > 0.0 ? static_cast<double>(r.responses) / r.seconds : 0.0;
}

// The workload replayed from `clients` threads at once, the way
// concurrent sessions hit handle(). Aggregate responses / wall-clock.
PassResult run_concurrent_pass(api::Server& server,
                               const std::vector<std::string>& requests,
                               int clients) {
  PassResult result;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  std::vector<size_t> bytes(static_cast<size_t>(clients), 0);
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &requests, &bytes, c] {
      for (const std::string& request : requests) {
        bytes[static_cast<size_t>(c)] += server.handle(request).size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.responses = requests.size() * static_cast<size_t>(clients);
  for (size_t b : bytes) result.bytes += b;
  return result;
}

// One backend's numbers, as printed and as serialized to --json.
struct BackendResult {
  std::string backend;
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  double warm_concurrent_rps = 0.0;
  double contended_cold_rps = 0.0;
  double hit_rate = 0.0;
  uint64_t coalesced = 0;
  size_t cold_bytes = 0;
};

std::string to_json(const std::vector<BackendResult>& results, int n,
                    int clients) {
  std::string out = str_format(
      "{\"bench\":\"serve_throughput\",\"requests_per_pass\":%d,"
      "\"clients\":%d,\"results\":[",
      n, clients);
  for (size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    out += str_format(
        "%s{\"backend\":\"%s\",\"cold_rps\":%.1f,\"warm_rps\":%.1f,"
        "\"speedup\":%.2f,\"warm_concurrent_rps\":%.1f,"
        "\"contended_cold_rps\":%.1f,\"coalesced\":%llu,\"hit_rate\":%.4f,"
        "\"cold_response_bytes\":%zu}",
        i == 0 ? "" : ",", r.backend.c_str(), r.cold_rps, r.warm_rps,
        r.cold_rps > 0.0 ? r.warm_rps / r.cold_rps : 0.0,
        r.warm_concurrent_rps, r.contended_cold_rps,
        static_cast<unsigned long long>(r.coalesced), r.hit_rate,
        r.cold_bytes);
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int n = 64;
  int clients = 4;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (positional == 0) {
      n = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      clients = std::atoi(argv[i]);
      ++positional;
    } else {
      n = 0;  // too many positionals: fall through to usage
      break;
    }
  }
  if (n <= 0 || clients <= 0) {
    std::fprintf(stderr,
                 "usage: serve_throughput [requests_per_pass] "
                 "[concurrent_clients] [--json FILE]\n");
    return 1;
  }
  const std::vector<std::string> requests = distinct_run_requests(n);

  std::printf(
      "== serve throughput: %d distinct run requests per pass, %d "
      "concurrent clients ==\n\n",
      n, clients);
  Table table({"Backend", "Cold (req/s)", "Warm (req/s)", "Speedup",
               str_format("Warm x%d (req/s)", clients),
               str_format("Cold x%d (req/s)", clients), "Coalesced",
               "Hit rate", "Resp. bytes"});
  std::vector<BackendResult> results;
  for (const char* backend : {"sim", "analytic"}) {
    api::ServeOptions options;
    options.run.backend = api::parse_backend(backend);
    api::Server server(options);
    const PassResult cold = run_pass(server, requests);
    const PassResult warm = run_pass(server, requests);
    const PassResult concurrent =
        run_concurrent_pass(server, requests, clients);
    const api::ReportCache::Stats stats = server.cache_stats();
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);

    // The contended-cold pass needs its own cold cache: N sessions race
    // the same never-seen cells, and single-flight coalescing means each
    // cell is computed once while the other sessions wait for its bytes
    // instead of duplicating the work.
    api::Server contended_server(options);
    const PassResult contended =
        run_concurrent_pass(contended_server, requests, clients);
    const api::ReportCache::Stats contended_stats =
        contended_server.cache_stats();

    BackendResult result;
    result.backend = backend;
    result.cold_rps = rate(cold);
    result.warm_rps = rate(warm);
    result.warm_concurrent_rps = rate(concurrent);
    result.contended_cold_rps = rate(contended);
    result.hit_rate = hit_rate;
    result.coalesced = contended_stats.coalesced;
    result.cold_bytes = cold.bytes;
    results.push_back(result);

    table.add_row({backend, str_format("%.0f", result.cold_rps),
                   str_format("%.0f", result.warm_rps),
                   str_format("%.1fx", result.warm_rps / result.cold_rps),
                   str_format("%.0f", result.warm_concurrent_rps),
                   str_format("%.0f", result.contended_cold_rps),
                   str_format("%llu", static_cast<unsigned long long>(
                                          result.coalesced)),
                   str_format("%.0f%%", 100.0 * hit_rate),
                   format_number(static_cast<double>(cold.bytes))});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nCold = empty ReportCache (every request simulated); warm = the\n"
      "same requests again (every request served from the LRU cache);\n"
      "warm xN = the warm workload issued from N threads concurrently\n"
      "(aggregate rate through the shared, mutex-guarded cache);\n"
      "cold xN = N threads racing the *same cold* workload - single-\n"
      "flight coalescing computes each cell once and the Coalesced\n"
      "column counts the duplicate computations it absorbed.\n");

  if (!json_path.empty()) {
    if (!serialize::write_file_atomic(
            json_path, to_json(results, n, clients))) {
      std::fprintf(stderr, "serve_throughput: cannot write '%s'\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
