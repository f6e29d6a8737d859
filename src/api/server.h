// `bfpp serve`: the long-lived experiment server.
//
// A Server accepts scenario / sweep requests as line-delimited JSON
// (one request object per line, one framed response per request) over a
// loopback TCP socket (serve()) or stdin/stdout (serve_stdio(), the
// test and scripting transport), executes them on the shared
// work-stealing ThreadPool with the backend each request selects, and
// streams Report rows back as JSON or CSV. docs/PROTOCOL.md documents
// every request and response shape with copy-pasteable examples.
//
//   $ bfpp serve --port 7070 --cache-file reports.jsonl &
//   $ printf '%s\n' '{"type":"run","preset":"fig5a-bf-b16"}' | nc 127.0.0.1 7070
//   {"ok":true,"type":"run","report":{...}}
//
// Clients are served concurrently by an event loop, not by threads:
// serve() runs one poll() loop over every connection, parsing
// line-delimited requests from non-blocking sockets and streaming the
// response bytes back as each socket becomes writable - so thousands of
// mostly-idle clients cost file descriptors, not threads. The loop
// parses each request itself and answers every one that needs no
// computation on the spot: ping, shutdown, stats, metrics, list, and a
// run/search/sweep/compare of at most a few dozen cells that are all
// cached - through the same parse and answer steps handle() runs, so
// the bytes are identical. A request that must compute starts, already
// parsed and probed, as a Job on the shared ThreadPool: its uncached
// cells run as pool drivers, and the thread that finishes the last one
// renders the response and hands it back through a completion queue, so
// the loop thread alone owns every connection's state and no thread
// waits on a cell. All computation funnels through the shared
// ThreadPool exactly as in single-client mode, so concurrent clients
// share one thread budget instead of oversubscribing the machine.
// Admission control caps concurrency at --max-connections (over-cap
// connects get an explicit JSON error, counted in `rejected`), and
// per-connection fairness stops reading from a client with
// --max-inflight-per-client requests pending (backpressure instead of
// unbounded queueing). A request line over net::kMaxRequestLineBytes
// (1 MiB) gets one {"ok":false,...} line and a close (stdio: serving
// stops); a sweep naming more than kMaxCellsPerRequest cells
// (request.h) gets one such line and no close. handle() is fully
// thread-safe, and a `metrics` request exposes latency histograms,
// queue depths and connection-state counts (see ServeStats).
//
// Repeated cells are answered from the ReportCache (report_cache.h),
// which also single-flights concurrent requests for one uncached cell
// and, with --cache-file, keeps the cache durable across restarts. Cache
// effectiveness is surfaced by the "stats" request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/report_cache.h"
#include "api/request.h"
#include "common/mutex.h"
#include "common/socket.h"
#include "common/thread_annotations.h"

namespace bfpp::api {

// The single source of truth for server configuration: the CLI parses
// its serve flags directly into one of these (cli.h holds a ServeOptions
// verbatim), and Server is constructed from it. Every knob lives here
// and only here.
struct ServeOptions {
  bool stdio = false;       // serve stdin/stdout instead of TCP
  int port = 7070;          // TCP port on 127.0.0.1 (0 = ephemeral)
  int jobs = 0;             // default --jobs for requests that set none
  size_t cache_capacity = 1024;  // ReportCache entries (0 disables)
  // Concurrent TCP connections the event loop admits
  // (--max-connections). A connection beyond the cap is answered with
  // one {"ok":false,...} line and closed - never left to rot invisibly
  // in the kernel backlog - and counted in
  // ServeStats::Connections::rejected.
  int max_connections = 1024;
  // Requests one connection may have queued-or-executing before the
  // event loop stops reading from it (--max-inflight-per-client): a
  // bursty client backpressures onto its own socket instead of growing
  // an unbounded server-side queue, and cannot starve quieter clients.
  int max_inflight_per_client = 4;
  std::string cache_file;   // durable cache path ("" = in-memory only)
  RunOptions run;           // default backend for requests that set none
};

// One versioned snapshot of the server's observable state - the shared
// wire schema behind both the `stats` and the `metrics` response (the
// two responses splice the same to_wire() fields after their
// ok/type/id preamble, so they can never drift apart). Fields are
// emitted in declaration order and the wire-stability lint holds
// to_wire()/from_wire() to exactly this member list; bump `schema` on
// any shape change. docs/PROTOCOL.md documents every field.
struct ServeStats {
  // Connection-state counts: the gauges partition every admitted
  // connection by what it is waiting on; the counters are lifetime
  // totals.
  struct Connections {
    int active = 0;      // admitted and not yet closed (gauge)
    int reading = 0;     // idle or mid-request-line (gauge)
    int processing = 0;  // a request dispatched, no response yet (gauge)
    int writing = 0;     // response bytes queued on the socket (gauge)
    uint64_t accepted = 0;  // connections ever admitted
    uint64_t rejected = 0;  // connections refused over --max-connections
  };
  // Jobs in flight: those none of whose pool drivers has started yet,
  // and those with a driver running or a followed cell still to come.
  // Requests the event loop answers itself never show here.
  struct Queues {
    uint64_t dispatch_backlog = 0;
    uint64_t executing = 0;
  };
  // Service-time histogram over every answered request, microseconds:
  // from answer() taking the line to its response built, whether the
  // event loop answered it or a Job computed it (a Job's wait for a pool
  // thread and for its drivers included).
  // buckets[i] counts requests in [2^i, 2^(i+1)) us (bucket 0 is
  // [0, 2)); the percentiles are bucket-upper-bound estimates derived
  // from the histogram.
  struct Latency {
    uint64_t count = 0;
    uint64_t sum_us = 0;
    uint64_t p50_us = 0;
    uint64_t p99_us = 0;
    std::vector<uint64_t> buckets;
  };
  // Log2 service-time buckets: 2^24 us ~ 16.7 s in the last bucket,
  // far beyond any sane request; slower ones clamp into it.
  static constexpr size_t kLatencyBuckets = 24;

  int schema = 1;
  uint64_t requests = 0;
  ReportCache::Stats cache;
  Connections connections;
  Queues queues;
  Latency latency;

  // One compact JSON object, every field in declaration order. The
  // serve responses splice out the outer braces and prepend
  // "ok"/"type" (+"id"), so the `requests` and `cache` fields keep the
  // exact top-level shape the pre-metrics `stats` response had.
  [[nodiscard]] std::string to_wire() const;
  // Reads back exactly the keys to_wire() emits. Tolerates (ignores)
  // extra keys, so it parses a full stats/metrics *response* line too.
  static ServeStats from_wire(const json::Value& value);
};

class Server {
 public:
  explicit Server(ServeOptions options = {})
      : options_(std::move(options)),
        cache_(options_.cache_capacity, options_.cache_file) {}

  // The transport-independent core: handles one request line and returns
  // the complete, newline-terminated response (one JSON line, plus
  // payload lines for multi-row responses). Never throws: malformed or
  // failing requests become {"ok":false,"error":...} lines. Blank lines
  // return the empty string (keep-alive no-ops). Thread-safe; must not be
  // called from a pool thread. A request that must compute runs as the
  // same Job the event loop starts, with the caller as one of its
  // drivers (so "jobs":1 computes serially on the caller), and handle()
  // blocks until the Job's last cell is in.
  std::string handle(const std::string& request_line);

  // Serves line requests from `in` until EOF, a shutdown request or a
  // line over net::kMaxRequestLineBytes (answered with one error line),
  // writing responses to `out` (flushed per response). Returns 0.
  int serve_stdio(std::FILE* in = stdin, std::FILE* out = stdout);

  // Binds 127.0.0.1:options.port and serves clients through the event
  // loop (up to options.max_connections concurrently; over-cap connects
  // are explicitly rejected) until a shutdown request or
  // request_shutdown(). Returns 0 on orderly shutdown, 1 after an
  // unrecoverable accept() failure (logged with its errno to stderr).
  int serve();

  // serve() on a caller-owned listener - tests bind an ephemeral port
  // themselves and read it back before starting the loop.
  int serve_on(net::Listener& listener);

  // Initiates an orderly shutdown from any thread: wakes the event
  // loop, which stops accepting and reading, finishes dispatched
  // requests, flushes every response and compacts the cache file.
  void request_shutdown();

  // ReportCache::compact() on the server's cache: both serve loops call
  // it on shutdown; exposed so embedders and tests can snapshot
  // explicitly. Inserted cells never wait for it: the cache journals
  // each one as it is published.
  bool persist_cache() { return cache_.compact(); }

  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }
  [[nodiscard]] ReportCache::Stats cache_stats() const {
    return cache_.stats();
  }
  // The shared report cache - exposed so embedders and tests can probe
  // the single-flight machinery directly (e.g. claim leadership of a
  // cell before racing clients at it).
  [[nodiscard]] ReportCache& cache() { return cache_; }

 private:
  // answer() is the first step of every request, shared by handle() and
  // the event loop: it counts the line as a request, parses it and
  // answers it when nothing needs computing (see answer_from_cache); it
  // returns nullopt once `response` holds the answer (empty for a blank
  // line), else the parsed request, which then runs as a Job. It never
  // throws: a failing request becomes its {"ok":false,...} line. Each
  // answered request is timed from its Request::received into the
  // service-time histogram exactly once, by answer() or by finish().
  std::optional<Request> answer(const std::string& line,
                                std::string& response);

  // The answer from cache: fills `response` (empty on entry; a hit is
  // appended to it, so its capacity is reused) and returns true for a
  // request that needs no cell (ping, shutdown, stats, metrics, list)
  // or whose cells - at most kMaxInlineCells of them - are all cached
  // (ReportCache::find_tails), splicing each cell's label into its
  // cached row tail; returns false, changing nothing, when the request
  // must compute.
  bool answer_from_cache(const Request& req, std::string& response);

  // Counts one answered request in the service-time histogram.
  void record_service(std::chrono::steady_clock::duration elapsed);

  // One request's cells on their way through the cache and the shared
  // pool (defined in server.cpp). Nothing waits on a Job: each cell it
  // leads runs as an index of one ThreadPool::parallel_for_async loop,
  // each cell another request computes is follow()ed, and the thread
  // that brings in its last cell renders the response and delivers it.
  struct Job;

  // Single-flight-probes every cell of `job` serially, then starts the
  // cells it leads on the shared pool, `request.jobs` drivers wide
  // (0: the pool's size). The event loop calls it with caller_drives
  // false and returns at once; handle() drives the loop itself. The
  // caller has already counted the job in dispatch_backlog.
  void start(const std::shared_ptr<Job>& job, bool caller_drives);
  // Probes cell i: a hit fills its report, a cell in flight elsewhere is
  // followed (one more pending count until its result arrives). Returns
  // true when the job must compute it.
  bool probe(const std::shared_ptr<Job>& job, size_t i);
  // Computes cell i, which the job leads, and publishes it; a cell that
  // throws is abandoned, so its followers re-probe, and rethrown.
  void lead(Job& job, size_t i);
  // Drops one pending count; the thread that drops the last one calls
  // finish().
  void count_down(Job& job);
  // Renders the job's response (or its error line), times it and
  // delivers it.
  void finish(Job& job);

  ServeOptions options_;
  ReportCache cache_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<bool> shutdown_{false};

  // ---- Event-loop serving core (serve_on only) ----
  //
  // One poll() loop owns every connection and answers what needs no
  // computation; the rest start as Jobs, whose last thread returns the
  // response through the completion queue. Every Conn field belongs to
  // the event-loop thread alone: a Job sees only its request, so no Conn
  // state is shared and none of it needs a lock.
  struct Conn {
    explicit Conn(net::Stream&& s)
        : stream(std::make_unique<net::Stream>(std::move(s))) {}
    std::unique_ptr<net::Stream> stream;  // fd + read buffer
    std::deque<std::string> input;  // read, not yet answered lines
    std::string outbox;             // response bytes queued for the socket
    size_t out_off = 0;             // flush offset into outbox
    bool busy = false;              // a dispatched request is pending
    bool read_eof = false;          // peer half-closed; input may remain
    bool overlong = false;          // sent a line over the request cap
    bool dead = false;              // I/O error: close without flushing
    bool stalled = false;           // outbox pending with zero progress
    std::chrono::steady_clock::time_point stalled_since{};
    size_t last_pending = 0;        // outbox remainder at last stall check
  };
  // One computed response on its way back to the event loop. The
  // shared_ptr keeps the Conn alive even if the event loop closes and
  // unregisters the connection while the request is still computing;
  // a Job never touches the Conn itself. The request rides back too,
  // so the loop thread that allocated it also frees it: freeing it on
  // another thread cost sweep_cold about 4 % of its cells/s (4-vCPU KVM
  // guest, glibc malloc).
  struct Completion {
    std::shared_ptr<Conn> conn;
    Request request;
    std::string response;
  };

  // Builds the ServeStats snapshot behind the stats/metrics responses.
  [[nodiscard]] ServeStats snapshot_stats() const;

  // dispatch_mutex_ guards the completion queue finished Jobs push
  // responses onto, each followed by a wake_ signal. Leaf lock.
  Mutex dispatch_mutex_;
  std::deque<Completion> completions_ BFPP_GUARDED_BY(dispatch_mutex_);

  // Wakes the event loop's poll() when a Job finishes a response or
  // request_shutdown() is called from another thread. Lock-free (see
  // net::WakePipe).
  net::WakePipe wake_;

  // The metrics behind ServeStats, all atomics: Jobs and the event loop
  // bump them lock-free, snapshot_stats() reads them without
  // touching any mutex (so a metrics request can never contend with the
  // serving hot path). Gauge-style fields (connection states) are
  // refreshed by the event loop each iteration.
  struct Metrics {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<int> active{0};
    std::atomic<int> reading{0};
    std::atomic<int> processing{0};
    std::atomic<int> writing{0};
    std::atomic<uint64_t> dispatch_backlog{0};
    std::atomic<uint64_t> executing{0};
    std::atomic<uint64_t> latency_count{0};
    std::atomic<uint64_t> latency_sum_us{0};
    std::atomic<uint64_t> latency_buckets[ServeStats::kLatencyBuckets] = {};
  };
  Metrics metrics_;
};

}  // namespace bfpp::api
