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
// per-connection fairness stops reading
// from a client with --max-inflight-per-client requests pending
// (backpressure instead of unbounded queueing). A request line over
// net::kMaxRequestLineBytes (1 MiB) gets one {"ok":false,...} line and
// a close (stdio: serving stops), and a sweep naming more than
// kMaxCellsPerRequest cells gets one {"ok":false,...} line. handle() is
// fully thread-safe, and a `metrics` request exposes latency
// histograms, queue depths and connection-state counts (see ServeStats).
//
// Repeated cells are served from an LRU ReportCache keyed by
// (model, cluster, config, backend, kernel-override) - the simulator is
// deterministic, so a cached Report is byte-for-byte the one a fresh
// simulation would produce. Concurrent requests for the same *uncached*
// cell are single-flighted: one session computes it, the others follow
// the in-flight entry and serve the identical bytes (no thundering
// herd). Cache effectiveness is surfaced by the "stats" request, and
// --cache-file makes the cache durable across restarts: the file is a
// snapshot plus an append-only journal. Every inserted cell is appended
// as one line before any request is answered with it, and the file is
// compacted back to a plain snapshot on shutdown, by persist_cache(),
// and whenever the appended lines reach the cache capacity.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
// strings cache_key() builds; capacity is an entry count (an entry is
// about 0.9 KB, plus about 1 KB once find_tails() has rendered both its
// row tails). A hit promotes to most-recently-used; an insert evicts
// from the least-recently-used end once full. save()/load() make the
// cache durable: a versioned JSON-lines snapshot of every cell,
// negative (found=false) entries included.
//
// The cache is also the single-flight coalescing point: probe_or_lead()
// appoints exactly one caller per uncached key as its *leader* (who
// computes the cell and then publish()es or abandon()s it) and turns
// every concurrent request for the same key into a *follower* that
// follow()s the leader's in-flight entry with a callback and is handed
// the byte-identical result - so N clients racing on a cold cell cost
// one computation, not N, and none of them holds a thread meanwhile.
class ReportCache {
 public:
  explicit ReportCache(size_t capacity = 1024);

  // A follower's callback: called once with the leader's Report, or with
  // nullopt when the leader abandoned (the follower should
  // probe_or_lead() again; it may be appointed the new leader). It runs
  // on the thread that publishes or abandons, after mutex_ is released,
  // and must not throw.
  using Follower = std::function<void(std::optional<Report>)>;

  // One in-flight (claimed but not yet published) computation. Probes
  // hold a shared_ptr, so an entry retired between a probe and its
  // follow() stays valid. `done`, `result` and `followers` are guarded
  // by the owning cache's mutex_ (a nested struct cannot name an outer
  // instance member in BFPP_GUARDED_BY, so the rule lives here).
  struct InFlight {
    bool done = false;             // publish() or abandon() happened
    std::optional<Report> result;  // set by publish(); nullopt = abandoned
    std::vector<Follower> followers;  // called once when it is done
  };

  // The outcome of a single-flight probe: exactly one of the three
  // fields is set.
  struct Probe {
    std::optional<Report> report;       // cache hit (counted in hits)
    std::shared_ptr<InFlight> waiting;  // another caller is computing this
                                        // key: follow() it (counted in
                                        // coalesced)
    bool leader = false;  // the caller must compute the cell, then
                          // publish() or abandon() it (counted in misses)
  };

  // The followers one publish() retired and the Report they are handed.
  // Destroying it calls them, so they run after publish() has released
  // mutex_, and a caller that keeps it alive can release its own locks
  // first (Server::publish calls them outside its journal lock).
  class Handoff {
   public:
    Handoff() = default;
    Handoff(std::vector<Follower> followers, Report result);
    Handoff(Handoff&&) = default;
    // Swaps, so the followers this one held run when `other` goes.
    Handoff& operator=(Handoff&& other) noexcept;
    Handoff(const Handoff&) = delete;
    Handoff& operator=(const Handoff&) = delete;
    ~Handoff();

   private:
    std::vector<Follower> followers_;
    std::optional<Report> result_;
  };

  // Non-blocking single-flight lookup. A hit returns the Report; an
  // uncached key with no in-flight computation appoints the caller
  // leader and registers the in-flight entry; an uncached key that is
  // already being computed returns that entry to follow().
  [[nodiscard]] Probe probe_or_lead(const std::string& key);

  // Row tails of several entries, back to back in one buffer: tail i is
  // bytes[ends[i - 1], ends[i]) (from 0 for i == 0).
  struct Tails {
    std::string bytes;
    std::vector<size_t> ends;

    [[nodiscard]] std::string_view operator[](size_t i) const {
      const size_t begin = i == 0 ? 0 : ends[i - 1];
      return std::string_view(bytes).substr(begin, ends[i] - begin);
    }
  };

  // All-or-nothing lookup, which never appoints a leader. When every
  // key is cached, promotes each to MRU in key order, counts one hit per
  // key (as probe_or_lead() would) and returns each entry's row tail in
  // `format` (row_tail() in report.h), in key order, so the event loop
  // answers a hit by splicing labels in. Otherwise returns nullopt and
  // changes nothing: no counter, no recency, no in-flight entry; misses
  // and coalesced waits are counted by probe_or_lead() alone. Under the
  // lock the tails are only copied, into one buffer. A tail is rendered
  // only here, the first time it is asked for, from a copy of the Report
  // outside the lock, then stored if the key is still cached: a key
  // fixes its Report's bytes, so a refresh in between cannot make the
  // stored tail wrong.
  [[nodiscard]] std::optional<Tails> find_tails(
      std::span<const std::string_view> keys, RowFormat format);

  // Registers `follower` on the in-flight computation behind `entry`:
  // publish() or abandon() calls it with the result (byte-identical to
  // what the leader cached) or nullopt. When `entry` is already done,
  // calls it here, at once, after releasing mutex_. Never blocks.
  void follow(const std::shared_ptr<InFlight>& entry, Follower follower);

  // Leader-side completion: inserts (or refreshes) the Report under
  // `key` as the MRU entry, evicting LRU entries beyond capacity (no-op
  // at capacity 0), and retires the in-flight entry, handing its
  // followers the Report through the returned Handoff. Followers are
  // served from the entry itself, so they receive the result even when
  // the cache is full or disabled. Valid without a preceding
  // probe_or_lead() too: a plain insert.
  Handoff publish(const std::string& key, Report report);

  // Leader-side failure: retires the in-flight entry *without* a result
  // and calls every follower with nullopt, after releasing mutex_, so
  // they can retry or re-lead. An errored leader must never leave
  // followers unanswered.
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
    // Requests that found their cell already being computed and followed
    // the leader instead of recomputing (one count per probe).
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

  // One cached cell. The key is stored here only: index_ keys are views
  // of it (list nodes never move).
  struct Entry {
    std::string key;
    Report report;
    // row_tail(report, format), indexed by RowFormat; empty until
    // find_tails() first asks for that format (a tail is never empty).
    std::array<std::string, 2> tails;
  };

  // Retires the in-flight entry under `key` (if any) with `result` and
  // returns its followers, for the caller to call once it unlocks.
  std::vector<Follower> finish_inflight_locked(
      const std::string& key, const std::optional<Report>& result)
      BFPP_REQUIRES(mutex_);

  // mutex_ guards every piece of cache state below: the LRU list (its
  // entries' tails included) + its index, the single-flight table, the
  // counters, and (transitively) the done/result/followers fields of
  // every InFlight entry. Nothing is rendered or serialized, and no
  // follower is called, under it.
  mutable Mutex mutex_;
  const size_t capacity_;  // immutable after construction
  // Front = most recently used. The index maps key -> list node.
  std::list<Entry> lru_ BFPP_GUARDED_BY(mutex_);
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_
      BFPP_GUARDED_BY(mutex_);
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
  // parse to response built, whether the event loop answered it or a
  // Job computed it (a Job's wait for pool drivers included).
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
  // The most cells one sweep may name (the product of its axis lengths).
  // Checked before the sweep's cells are walked, so a short line cannot
  // make the server build billions of cells; the largest built-in
  // compare grid has 36.
  static constexpr size_t kMaxCellsPerRequest = 4096;

  explicit Server(ServeOptions options = {});
  ~Server();

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

  // Compacts options.cache_file now: rewrites it as one snapshot of the
  // cache (atomic temp + rename) and restarts the journal after it.
  // Returns false when no cache file is configured or the save failed.
  // Both serve loops call this on shutdown; exposed so embedders and
  // tests can snapshot explicitly. Inserted cells never wait for it:
  // publish() journals each one as it is computed.
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
  // One cell of a request, built and keyed by the parse step. A sweep
  // cell whose scenario fails to build carries its [config] row instead
  // (run/search scenarios are validated eagerly: an invalid one fails
  // the whole request).
  struct Cell {
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
  // cells; a request that must compute becomes a Job as is, so nothing
  // is parsed, built or keyed twice.
  struct Request {
    std::string id_echo;  // compact JSON to echo back ("" = no id)
    std::string type;     // run | search | sweep | compare | stats |
                          // metrics | list | ping | shutdown
    RowFormat format = RowFormat::kJson;
    std::string list_what = "all";  // list: models|clusters|scenarios|all
    RunOptions run;
    int jobs = 0;
    std::vector<Cell> cells;
    // Service time spent before its Job started: the parse and cache
    // steps.
    std::chrono::steady_clock::duration answered_in{};
  };

  // answer() is the first step of every request, shared by handle() and
  // the event loop: it counts the line as a request, parses it and
  // answers it when nothing needs computing (see answer_from_cache); it
  // returns nullopt once `response` holds the answer (empty for a blank
  // line), else the parsed request, which then runs as a Job. It never
  // throws: a failing request becomes its {"ok":false,...} line. Each
  // answered request is timed into the service-time histogram exactly
  // once, by answer() or by finish().
  std::optional<Request> answer(const std::string& line,
                                std::string& response);

  // Parse step: the line to a Request, every cell built and keyed (a
  // sweep's straight from SweepBuilder::walk). Throws bfpp::Error on a
  // malformed request (req.id_echo is set as soon as the id is known).
  void parse(const std::string& line, Request& req) const;

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

  // Leader-side completion of one computed cell: ReportCache::publish,
  // plus the journal append when the cache is durable. Followers are
  // called after every lock is released.
  void publish(const std::string& key, const Report& report)
      BFPP_EXCLUDES(journal_mutex_);

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
    explicit Conn(net::Stream&& s);
    ~Conn();
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
