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
// line-delimited requests from non-blocking sockets, handing each
// parsed line to a small fixed pool of executor threads, and streaming
// the response bytes back as each socket becomes writable - so
// thousands of mostly-idle clients cost file descriptors, not threads.
// Admission control caps concurrency at --max-connections (over-cap
// connects get an explicit JSON error, counted in `rejected`), and
// per-connection fairness stops reading from a client with
// --max-inflight-per-client requests pending (backpressure instead of
// unbounded queueing). Executor threads only run handle() and hand each
// response back through a completion queue, so the loop thread alone
// owns every connection's state; all computation funnels through the
// shared ThreadPool exactly as in single-client mode, so concurrent
// clients share one thread budget instead of oversubscribing the
// machine. Request lines are capped at kMaxRequestLineBytes. handle()
// is fully thread-safe, and a `metrics` request exposes latency
// histograms, queue depths and connection-state counts (see
// ServeStats).
//
// Repeated cells are served from an LRU ReportCache keyed by
// (model, cluster, config, backend, kernel-override) - the simulator is
// deterministic, so a cached Report is byte-for-byte the one a fresh
// simulation would produce. Concurrent requests for the same *uncached*
// cell are single-flighted: one session computes it, the others wait on
// the in-flight entry and serve the identical bytes (no thundering
// herd). Cache effectiveness is surfaced by the "stats" request, and
// --cache-file makes the cache durable across restarts: the file is a
// snapshot plus an append-only journal. Every inserted cell is appended
// as one line before any request is answered with it, and the file is
// compacted back to a plain snapshot on shutdown, by persist_cache(),
// and whenever the appended lines reach the cache capacity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "autotune/autotune.h"
#include "common/mutex.h"
#include "common/socket.h"
#include "common/thread_annotations.h"

namespace bfpp::json {
class Value;
}  // namespace bfpp::json

namespace bfpp::api {

// Thread-safe LRU cache of finished Reports. Keys are the canonical
// strings cache_key() builds; capacity is an entry count (Reports are a
// few hundred bytes each). A hit promotes to most-recently-used; an
// insert evicts from the least-recently-used end once full. save()/load()
// make the cache durable: a versioned JSON-lines snapshot of every cell,
// negative (found=false) entries included.
//
// The cache is also the single-flight coalescing point: probe_or_lead()
// appoints exactly one caller per uncached key as its *leader* (who
// computes the cell and then publish()es or abandon()s it) and turns
// every concurrent request for the same key into a *follower* that
// wait()s on the leader's in-flight entry and is handed the
// byte-identical result - so N clients racing on a cold cell cost one
// computation, not N.
class ReportCache {
 public:
  explicit ReportCache(size_t capacity = 1024);

  // One in-flight (claimed but not yet published) computation. Followers
  // hold a shared_ptr so a publish/abandon racing with the last waiter
  // can never free the entry out from under it. `done` and `result` are
  // guarded by the owning cache's mutex_ (a nested struct cannot name an
  // outer instance member in BFPP_GUARDED_BY, so the rule lives here):
  // the leader writes them in finish_inflight_locked, followers read
  // them inside wait() with the cache mutex held.
  struct InFlight {
    CondVar ready;
    bool done = false;             // publish() or abandon() happened
    std::optional<Report> result;  // set by publish(); nullopt = abandoned
  };

  // The outcome of a single-flight probe: exactly one of the three
  // fields is set.
  struct Probe {
    std::optional<Report> report;       // cache hit (counted in hits)
    std::shared_ptr<InFlight> waiting;  // another caller is computing this
                                        // key: block on wait() (counted in
                                        // coalesced)
    bool leader = false;  // the caller must compute the cell, then
                          // publish() or abandon() it (counted in misses)
  };

  // Non-blocking single-flight lookup. A hit returns the Report; an
  // uncached key with no in-flight computation appoints the caller
  // leader and registers the in-flight entry; an uncached key that is
  // already being computed returns that entry to wait() on.
  [[nodiscard]] Probe probe_or_lead(const std::string& key);

  // Blocks until the in-flight computation behind `entry` publishes or
  // abandons. Returns the published Report (byte-identical to what the
  // leader cached), or nullopt when the leader abandoned - the caller
  // should probe_or_lead() again (it may be appointed the new leader).
  [[nodiscard]] std::optional<Report> wait(
      const std::shared_ptr<InFlight>& entry);

  // Leader-side completion: inserts (or refreshes) the Report under
  // `key` as the MRU entry, evicting LRU entries beyond capacity (no-op
  // at capacity 0), hands it to every follower waiting on the in-flight
  // entry and retires that entry. Followers are served from the entry
  // itself, so they receive the result even when the cache is full or
  // disabled. Valid without a preceding probe_or_lead() too: a plain
  // insert.
  void publish(const std::string& key, Report report);

  // Leader-side failure: retires the in-flight entry *without* a result,
  // waking every follower with nullopt so they can retry or re-lead. An
  // errored leader must never leave followers waiting forever.
  void abandon(const std::string& key);

  // Serializes every entry to `path` (atomic temp+rename; see
  // common/serialize.h). Line 1 is a versioned header, then one
  // {"key":...,"report":<wire form>} line per entry in LRU-to-MRU order
  // so load() reconstructs the recency order. Returns false (after
  // warning on stderr) on IO failure; never throws.
  bool save(const std::string& path) const;

  // Loads a save() snapshot - optionally followed by appended entry
  // lines, the cache journal - into the cache. Lines replay in file
  // order as inserts (a repeated key is a refresh), so the snapshot's
  // recency order is rebuilt and capacity is respected. Corruption-
  // tolerant: a missing file is a silent cold start, a bad header
  // ignores the whole file with a stderr warning, and a corrupt or torn
  // entry line is skipped with a warning - load never throws. Loaded
  // entries do not count as insertions (the counters describe this
  // process's traffic). Returns the number of entry lines loaded. When
  // `compact` is given, sets it to whether the file is exactly one
  // snapshot of what the cache now holds: a valid header whose
  // "entries" count matches its entry lines, each of which loaded into
  // a distinct retained entry.
  size_t load(const std::string& path, bool* compact = nullptr);

  struct Stats {
    size_t entries = 0;
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    // Requests that found their cell already being computed and waited
    // for the leader instead of recomputing (one count per wait).
    uint64_t coalesced = 0;
    // Gauge: cells currently claimed by a leader but not yet
    // published/abandoned.
    size_t inflight = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  // The one insert/promote/evict LRU body, shared by publish() (which
  // turns the outcome into counter updates) and load() (which
  // deliberately leaves the counters alone).
  struct InsertOutcome {
    bool inserted = false;  // false: an existing key was refreshed
    uint64_t evicted = 0;
  };
  InsertOutcome insert_locked(const std::string& key, Report report)
      BFPP_REQUIRES(mutex_);

  // Retires the in-flight entry under `key` (if any), waking every
  // follower with `result`.
  void finish_inflight_locked(const std::string& key,
                              std::optional<Report> result)
      BFPP_REQUIRES(mutex_);

  // mutex_ guards every piece of cache state below: the LRU list + its
  // index, the single-flight table, the counters, and (transitively) the
  // done/result fields of every InFlight entry.
  mutable Mutex mutex_;
  const size_t capacity_;  // immutable after construction
  // Front = most recently used. The index maps key -> list node.
  std::list<std::pair<std::string, Report>> lru_ BFPP_GUARDED_BY(mutex_);
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Report>>::iterator>
      index_ BFPP_GUARDED_BY(mutex_);
  // Single-flight table: key -> the in-flight computation followers wait
  // on. Entries live from probe_or_lead() (leader appointment) until
  // publish()/abandon().
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_
      BFPP_GUARDED_BY(mutex_);
  Stats counters_ BFPP_GUARDED_BY(mutex_);
};

// The canonical cache identity of one executed cell: model, cluster
// (including its resized node count), the exact parallel configuration
// (or the search method + batch for search cells), the backend and the
// kernel-model override. Deliberately excluded: the scenario *label*
// (purely cosmetic) and the thread budget (results are deterministic
// across thread counts by the sweep contract).
std::string cache_key(const Scenario& scenario,
                      const std::optional<autotune::Method>& method,
                      const RunOptions& options);

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

// The longest request line a TCP connection may send (1 MiB). A client
// that buffers more without a newline is answered with one
// {"ok":false,...} line and closed, so a trickling or hostile client
// cannot grow server memory without bound. A fixed protocol limit, not
// an option.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

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
  // Dispatch-queue depths: requests parsed but not yet picked up by an
  // executor, and requests currently inside handle().
  struct Queues {
    uint64_t dispatch_backlog = 0;
    uint64_t executing = 0;
  };
  // Service-time histogram over handle() (request arrival at an
  // executor to response bytes queued), microseconds. buckets[i] counts
  // requests in [2^i, 2^(i+1)) us (bucket 0 is [0, 2)); the percentiles
  // are bucket-upper-bound estimates derived from the histogram.
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
  explicit Server(ServeOptions options = {});
  ~Server();

  // The transport-independent core: handles one request line and returns
  // the complete, newline-terminated response (one JSON line, plus
  // payload lines for multi-row responses). Never throws: malformed or
  // failing requests become {"ok":false,"error":...} lines. Blank lines
  // return the empty string (keep-alive no-ops). Thread-safe: executor
  // threads call this concurrently.
  std::string handle(const std::string& request_line);

  // Serves line requests from `in` until EOF or a shutdown request,
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

  // Compacts options.cache_file now: rewrites it as one snapshot of the
  // cache (atomic temp + rename) and restarts the journal after it.
  // Returns false when no cache file is configured or the save failed.
  // Both serve loops call this on shutdown; exposed so embedders and
  // tests can snapshot explicitly. Inserted cells never wait for it:
  // handle() journals each one as it is computed.
  bool persist_cache() BFPP_EXCLUDES(journal_mutex_);

  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }
  [[nodiscard]] ReportCache::Stats cache_stats() const {
    return cache_.stats();
  }
  // The shared report cache - exposed so embedders and tests can probe
  // the single-flight machinery directly (e.g. claim leadership of a
  // cell before racing clients at it).
  [[nodiscard]] ReportCache& cache() { return cache_; }

 private:
  std::string handle_or_throw(std::string& id_echo, const std::string& line);

  // Leader-side completion of one computed cell: ReportCache::publish,
  // plus the journal append when the cache is durable.
  void publish(const std::string& key, const Report& report)
      BFPP_EXCLUDES(journal_mutex_);

  // Executes one batch of cells (a single run/search, or a whole sweep
  // grid) through the cache: probe serially, compute misses in parallel
  // on the shared pool, insert, and return Reports in cell order. A cell
  // is either pre-built (run/search requests, validated eagerly) or a
  // lazy recipe (sweep cells, whose build failures become rows).
  struct Cell {
    std::optional<Scenario> built;
    ScenarioBuilder recipe;
    std::optional<autotune::Method> method;
    std::string label;
  };
  std::vector<Report> execute(const std::vector<Cell>& cells,
                              const RunOptions& run, int jobs);

  ServeOptions options_;
  ReportCache cache_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<bool> shutdown_{false};

  // ---- Event-loop serving core (serve_on only) ----
  //
  // One poll() loop owns every connection; a small fixed pool of
  // executor threads runs handle(). Every Conn field belongs to the
  // event-loop thread alone: executors see only the line they were
  // handed and return the response through the completion queue, so
  // no Conn state is shared and none of it needs a lock.
  struct Conn {
    explicit Conn(net::Stream&& s);
    ~Conn();
    std::unique_ptr<net::Stream> stream;  // fd + read buffer
    std::deque<std::string> input;  // parsed, not yet dispatched lines
    std::string outbox;             // response bytes queued for the socket
    size_t out_off = 0;             // flush offset into outbox
    bool busy = false;              // a dispatched request is pending
    bool read_eof = false;          // peer half-closed; input may remain
    bool overlong = false;          // sent a line over kMaxRequestLineBytes
    bool dead = false;              // I/O error: close without flushing
    bool stalled = false;           // outbox pending with zero progress
    std::chrono::steady_clock::time_point stalled_since{};
    size_t last_pending = 0;        // outbox remainder at last stall check
  };
  // One parsed request line bound for an executor, and on the way back
  // its response. The shared_ptr keeps the Conn alive even if the event
  // loop closes and unregisters the connection while the request is
  // still computing; executors never touch the Conn itself.
  struct DispatchItem {
    std::shared_ptr<Conn> conn;
    std::string line;
  };

  // Executor threads: each pops DispatchItems, runs handle() and pushes
  // the response onto completions_ (in the same critical section as its
  // next pop) plus a wake_ signal. Started and joined by serve_on
  // (executors_ itself is touched only by the serve_on thread).
  void executor_loop() BFPP_EXCLUDES(dispatch_mutex_);
  void start_executors() BFPP_EXCLUDES(dispatch_mutex_);
  void stop_executors() BFPP_EXCLUDES(dispatch_mutex_);

  // Builds the ServeStats snapshot behind the stats/metrics responses.
  [[nodiscard]] ServeStats snapshot_stats() const;

  // dispatch_mutex_ guards both directions of the executor handoff: the
  // parsed-request queue executors pop from, the completion queue they
  // push responses onto, and their stop flag. dispatch_ready_ signals a
  // new request or stop; wake_ signals a completion. Leaf lock.
  Mutex dispatch_mutex_;
  CondVar dispatch_ready_;
  std::deque<DispatchItem> dispatch_queue_ BFPP_GUARDED_BY(dispatch_mutex_);
  std::deque<DispatchItem> completions_ BFPP_GUARDED_BY(dispatch_mutex_);
  bool executors_stop_ BFPP_GUARDED_BY(dispatch_mutex_) = false;
  std::vector<std::thread> executors_;  // serve_on-thread only

  // Wakes the event loop's poll() when an executor finishes a response
  // or request_shutdown() is called from another thread. Lock-free (see
  // net::WakePipe).
  net::WakePipe wake_;

  // The metrics behind ServeStats, all atomics: executors and the event
  // loop bump them lock-free, snapshot_stats() reads them without
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

  // ---- The cache journal (--cache-file with a nonzero capacity) ----
  //
  // journal_mutex_ guards the append handle on options.cache_file and
  // the count of lines appended since the last compaction. An append
  // and the publish() it records happen under it together, and so does
  // a compaction, so no cell can fall between a snapshot and the file
  // that replaces it. Lock order: journal_mutex_ is taken *before* the
  // cache mutex (publish() and save() lock it internally).
  [[nodiscard]] bool journaled() const {
    return !options_.cache_file.empty() && options_.cache_capacity > 0;
  }
  bool compact_locked() BFPP_REQUIRES(journal_mutex_);
  Mutex journal_mutex_;
  std::FILE* journal_ BFPP_GUARDED_BY(journal_mutex_) = nullptr;
  size_t journal_lines_ BFPP_GUARDED_BY(journal_mutex_) = 0;
};

}  // namespace bfpp::api
