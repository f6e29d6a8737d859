#include "api/server.h"

#include <poll.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "api/registry.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/json.h"
#include "common/socket.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace bfpp::api {

namespace {

// A client whose response bytes make zero progress for this long (the
// socket stays unwritable) is treated as gone, which bounds how long a
// stalled reader can pin its connection - and the shutdown drain -
// open.
constexpr int kSendTimeoutSeconds = 30;

// Response bytes queued per connection before the event loop stops
// reading new requests from it: a slow reader backpressures onto its
// own socket instead of growing an unbounded outbox.
constexpr size_t kOutboxHighWater = 4u << 20;

// Kernel queue of not-yet-accepted connections. A fixed burst buffer:
// admission is enforced explicitly by the event loop (accept, then
// admit or answer-and-close), not by hiding excess connections in the
// backlog.
constexpr int kListenBacklog = 128;

// Requests of more cells than this are probed and rendered on a pool
// thread rather than on the event loop, so one large cached compare
// cannot stall every client while it renders.
constexpr size_t kMaxInlineCells = 64;

std::string json_names(const std::vector<std::string>& names) {
  std::vector<std::string> quoted;
  quoted.reserve(names.size());
  for (const std::string& name : names) quoted.push_back(json_quote(name));
  return str_format("[%s]", join(quoted, ",").c_str());
}

// One response line: '{' + ["id":<echo>,] + fields + '}\n'.
std::string response_line(const std::string& id_echo,
                          const std::string& fields) {
  std::string out = "{";
  if (!id_echo.empty()) out += "\"id\":" + id_echo + ",";
  out += fields;
  out += "}\n";
  return out;
}

std::string error_line(const std::string& id_echo, const std::string& what) {
  return response_line(id_echo, "\"ok\":false,\"error\":" + json_quote(what));
}

// The error line for the exception being handled: call only inside a
// catch block. Anything that is not a std::exception propagates.
std::string current_error_line(const std::string& id_echo) {
  try {
    throw;
  } catch (const Error& e) {
    return error_line(id_echo, e.what());
  } catch (const std::exception& e) {
    return error_line(id_echo, std::string("internal: ") + e.what());
  }
}

// The answer to a request line over net::kMaxRequestLineBytes; either
// transport stops reading after it.
std::string overlong_line_error() {
  return error_line("", str_format("serve: request line exceeds %zu bytes "
                                   "without a newline; closing the "
                                   "connection",
                                   net::kMaxRequestLineBytes));
}

// The label a cached Report is shown under: the cache key deliberately
// excludes the cosmetic label, so a sweep cell can satisfy a later run
// request and vice versa.
const std::string& shown_label(const std::string& label,
                               const Scenario& scenario) {
  return label.empty() ? scenario.name : label;
}

// Payload rendering shared by run/search/sweep/compare responses, from
// the computed Reports or from cached row tails, appended to `out`:
// `append_row(i, out)` appends row i, rows in order. A run or search
// answers with its one report inline.
template <class AppendRow>
void append_rows_response(std::string& out, const std::string& id_echo,
                          const std::string& type, size_t rows,
                          RowFormat format, const AppendRow& append_row) {
  const bool csv = format == RowFormat::kCsv;
  out.reserve(out.size() + 160 + rows * (csv ? 256 : 1024));
  out += '{';
  if (!id_echo.empty()) (out += "\"id\":").append(id_echo) += ',';
  (out += "\"ok\":true,\"type\":\"").append(type) += '"';
  if (!csv && (type == "run" || type == "search")) {
    out += ",\"report\":";
    append_row(size_t{0}, out);
    out += "}\n";
    return;
  }
  if (csv) out += ",\"format\":\"csv\"";
  const auto lines = static_cast<long long>(csv ? rows + 1 : rows);
  append_int(out += ",\"rows\":", static_cast<long long>(rows));
  append_int(out += ",\"lines\":", lines);
  out += "}\n";
  if (csv) (out += Report::csv_header()) += '\n';
  for (size_t i = 0; i < rows; ++i) {
    append_row(i, out);
    out += '\n';
  }
}

// ---- ServeStats wire format ----

// Same contract as report.cpp's reader helpers: a wire field must be
// present, so its absence is a parse error naming the key.
const json::Value& serve_wire_field(const json::Value& v, const char* key) {
  const json::Value* field = v.get(key);
  check_config(field != nullptr, "serve stats wire: missing \"%s\"", key);
  return *field;
}

uint64_t serve_wire_u64(const json::Value& v, const char* key) {
  const double x = serve_wire_field(v, key).as_number(key);
  check_config(x >= 0 && x == std::floor(x),
               "serve stats wire: \"%s\" must be a non-negative integer", key);
  return static_cast<uint64_t>(x);
}

std::string u64_list(const std::vector<uint64_t>& xs) {
  std::vector<std::string> out;
  out.reserve(xs.size());
  for (const uint64_t x : xs) {
    out.push_back(str_format("%llu", static_cast<unsigned long long>(x)));
  }
  return str_format("[%s]", join(out, ",").c_str());
}

}  // namespace

std::string ServeStats::to_wire() const {
  std::string out = str_format(
      "{\"schema\":%d,\"requests\":%llu,", schema,
      static_cast<unsigned long long>(requests));
  out += str_format(
      "\"cache\":{\"entries\":%zu,\"capacity\":%zu,\"hits\":%llu,"
      "\"misses\":%llu,\"insertions\":%llu,\"evictions\":%llu,"
      "\"coalesced\":%llu,\"inflight\":%zu},",
      cache.entries, cache.capacity,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.insertions),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.coalesced), cache.inflight);
  out += str_format(
      "\"connections\":{\"active\":%d,\"reading\":%d,\"processing\":%d,"
      "\"writing\":%d,\"accepted\":%llu,\"rejected\":%llu},",
      connections.active, connections.reading, connections.processing,
      connections.writing, static_cast<unsigned long long>(connections.accepted),
      static_cast<unsigned long long>(connections.rejected));
  out += str_format(
      "\"queues\":{\"dispatch_backlog\":%llu,\"executing\":%llu},",
      static_cast<unsigned long long>(queues.dispatch_backlog),
      static_cast<unsigned long long>(queues.executing));
  out += str_format(
      "\"latency\":{\"count\":%llu,\"sum_us\":%llu,\"p50_us\":%llu,"
      "\"p99_us\":%llu,\"buckets\":",
      static_cast<unsigned long long>(latency.count),
      static_cast<unsigned long long>(latency.sum_us),
      static_cast<unsigned long long>(latency.p50_us),
      static_cast<unsigned long long>(latency.p99_us));
  out += u64_list(latency.buckets) + "}}";
  return out;
}

ServeStats ServeStats::from_wire(const json::Value& value) {
  ServeStats s;
  s.schema = serve_wire_field(value, "schema").as_int("schema");
  s.requests = serve_wire_u64(value, "requests");
  const json::Value& cache = serve_wire_field(value, "cache");
  s.cache.entries = static_cast<size_t>(serve_wire_u64(cache, "entries"));
  s.cache.capacity = static_cast<size_t>(serve_wire_u64(cache, "capacity"));
  s.cache.hits = serve_wire_u64(cache, "hits");
  s.cache.misses = serve_wire_u64(cache, "misses");
  s.cache.insertions = serve_wire_u64(cache, "insertions");
  s.cache.evictions = serve_wire_u64(cache, "evictions");
  s.cache.coalesced = serve_wire_u64(cache, "coalesced");
  s.cache.inflight = static_cast<size_t>(serve_wire_u64(cache, "inflight"));
  const json::Value& conn = serve_wire_field(value, "connections");
  s.connections.active = serve_wire_field(conn, "active").as_int("active");
  s.connections.reading = serve_wire_field(conn, "reading").as_int("reading");
  s.connections.processing =
      serve_wire_field(conn, "processing").as_int("processing");
  s.connections.writing = serve_wire_field(conn, "writing").as_int("writing");
  s.connections.accepted = serve_wire_u64(conn, "accepted");
  s.connections.rejected = serve_wire_u64(conn, "rejected");
  const json::Value& queues = serve_wire_field(value, "queues");
  s.queues.dispatch_backlog = serve_wire_u64(queues, "dispatch_backlog");
  s.queues.executing = serve_wire_u64(queues, "executing");
  const json::Value& lat = serve_wire_field(value, "latency");
  s.latency.count = serve_wire_u64(lat, "count");
  s.latency.sum_us = serve_wire_u64(lat, "sum_us");
  s.latency.p50_us = serve_wire_u64(lat, "p50_us");
  s.latency.p99_us = serve_wire_u64(lat, "p99_us");
  const json::Value& buckets = serve_wire_field(lat, "buckets");
  check_config(buckets.is_array(),
               "serve stats wire: \"buckets\" must be an array");
  for (const json::Value& b : buckets.items()) {
    const double x = b.as_number("buckets");
    check_config(x >= 0 && x == std::floor(x),
                 "serve stats wire: \"buckets\" entries must be "
                 "non-negative integers");
    s.latency.buckets.push_back(static_cast<uint64_t>(x));
  }
  return s;
}

// ---- Server ----

void Server::request_shutdown() {
  shutdown_ = true;
  // One lock-free signal: the event loop polls the wake pipe and reads
  // shutdown_ at the top of every iteration. Callable from anywhere -
  // a pool thread mid-request, a signal-ish control thread, a test.
  wake_.signal();
}

struct Server::Job {
  Request request;
  // Hands the rendered response on, once: to the event loop's completion
  // queue, or to handle()'s waiting caller.
  std::function<void(Job&, std::string)> deliver;
  std::unique_ptr<Engine> engine;              // shared by every cell led
  std::vector<std::optional<Report>> reports;  // by cell index
  // One count for the loop over the cells this job leads, plus one per
  // followed cell whose result has not arrived. acq_rel, so the thread
  // that takes it to zero sees every report.
  std::atomic<int> pending{1};
  std::atomic<bool> running{false};  // a pool driver has started
  // mutex guards the first error (lowest rank) and its rank: -1 for the
  // led loop's own, which wins, else the followed cell's index.
  Mutex mutex;
  long error_rank BFPP_GUARDED_BY(mutex) = 0;
  std::exception_ptr error BFPP_GUARDED_BY(mutex);

  void fail(long rank, std::exception_ptr failure) {
    const LockGuard lock(mutex);
    if (error == nullptr || rank < error_rank) {
      error_rank = rank;
      error = std::move(failure);
    }
  }
};

void Server::start(const std::shared_ptr<Job>& job, bool caller_drives) {
  const std::vector<RequestCell>& cells = job->request.cells;
  job->reports.resize(cells.size());
  // Phase 1, serial: single-flight-probe the cache. Cells that hit are
  // relabelled; uncached cells are either claimed (this job leads and
  // computes them) or followed (another request is computing the
  // identical cell - overlapping sweeps share cells). A cell that did
  // not build is its [config] row already.
  std::vector<size_t> owned;
  try {
    job->engine = make_engine(job->request.run);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].failed.has_value()) {
        job->reports[i] = cells[i].failed;
      } else if (probe(job, i)) {
        owned.push_back(i);
      }
    }
  } catch (...) {
    // A claimed cell must never stay in flight: its followers would
    // never be answered.
    for (const size_t i : owned) cache_.abandon(cells[i].key);
    owned.clear();
    job->fail(-1, std::current_exception());
  }
  if (owned.empty()) {
    metrics_.dispatch_backlog.fetch_sub(1, std::memory_order_relaxed);
    metrics_.executing.fetch_add(1, std::memory_order_relaxed);
  }

  // Phase 2, on the pool: compute the owned cells, publishing each as
  // soon as it finishes - followers (other requests, or a duplicate cell
  // later in this very batch) are answered per cell, not per request.
  const auto n_owned = static_cast<int>(owned.size());
  ThreadPool::shared().parallel_for_async(
      n_owned, job->request.jobs,
      [this, job, owned = std::move(owned)](int j) {
        if (!job->running.exchange(true, std::memory_order_relaxed)) {
          metrics_.dispatch_backlog.fetch_sub(1, std::memory_order_relaxed);
          metrics_.executing.fetch_add(1, std::memory_order_relaxed);
        }
        lead(*job, owned[static_cast<size_t>(j)]);
      },
      [this, job](std::exception_ptr error) {
        if (error) job->fail(-1, std::move(error));
        count_down(*job);
      },
      caller_drives);
}

bool Server::probe(const std::shared_ptr<Job>& job, size_t i) {
  const RequestCell& cell = job->request.cells[i];
  ReportCache::Probe found = cache_.probe_or_lead(cell.key);
  if (found.report.has_value()) {
    found.report->scenario = shown_label(cell.label, *cell.built);
    job->reports[i] = std::move(found.report);
    return false;
  }
  if (found.leader) return true;
  job->pending.fetch_add(1, std::memory_order_relaxed);
  cache_.follow(found.waiting, [this, job, i](std::optional<Report> result) {
    // The failure protocol: a leader that abandoned (an unexpected error
    // on its request) answers with nullopt, and the re-probe either hits
    // (another follower recomputed first), follows the new leader, or
    // appoints this job leader - which computes the cell here and
    // publishes it, so an erroring leader costs one extra computation,
    // never a hang.
    try {
      const RequestCell& followed = job->request.cells[i];
      if (result.has_value()) {
        result->scenario = shown_label(followed.label, *followed.built);
        job->reports[i] = std::move(result);
      } else if (probe(job, i)) {
        lead(*job, i);
      }
    } catch (...) {
      job->fail(static_cast<long>(i), std::current_exception());
    }
    count_down(*job);
  });
  return false;
}

void Server::lead(Job& job, size_t i) {
  // Through api::sweep's cell runner (infeasible cells become found=false
  // rows and are published like any other deterministic result), so
  // cached and uncached cells render identically.
  const RequestCell& cell = job.request.cells[i];
  try {
    Report report = run_cell(*cell.built, cell.label, cell.method,
                             *job.engine, job.request.run);
    cache_.publish(cell.key, report);
    job.reports[i] = std::move(report);
  } catch (...) {
    cache_.abandon(cell.key);
    throw;
  }
}

void Server::count_down(Job& job) {
  if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) finish(job);
}

void Server::finish(Job& job) {
  const Request& req = job.request;
  std::string response;
  try {
    std::exception_ptr error;
    {
      const LockGuard lock(job.mutex);
      error = job.error;
    }
    if (error) std::rethrow_exception(error);
    append_rows_response(response, req.id_echo, req.type,
                         job.reports.size(), req.format,
                         [&](size_t i, std::string& out) {
                           append_row(out, *job.reports[i], req.format);
                         });
  } catch (...) {
    response = current_error_line(req.id_echo);
  }
  job.engine.reset();
  record_service(std::chrono::steady_clock::now() - req.received);
  metrics_.executing.fetch_sub(1, std::memory_order_relaxed);
  job.deliver(job, std::move(response));
}

bool Server::answer_from_cache(const Request& req, std::string& response) {
  const std::string& id_echo = req.id_echo;
  if (req.type == "ping") {
    response = response_line(id_echo, "\"ok\":true,\"type\":\"pong\"");
    return true;
  }
  if (req.type == "shutdown") {
    // Wakes the event loop (self-pipe); the requesting session still
    // gets this acknowledgement before its stream is drained.
    request_shutdown();
    response = response_line(id_echo, "\"ok\":true,\"type\":\"shutdown\"");
    return true;
  }
  if (req.type == "stats" || req.type == "metrics") {
    // Both responses splice the one versioned ServeStats emitter (outer
    // braces stripped) after the preamble, so the two surfaces share a
    // single schema and cannot drift apart field by field.
    const std::string wire = snapshot_stats().to_wire();
    response = response_line(
        id_echo,
        str_format("\"ok\":true,\"type\":\"%s\",", req.type.c_str()) +
            wire.substr(1, wire.size() - 2));
    return true;
  }
  if (req.type == "list") {
    const std::string& what = req.list_what;
    std::vector<std::string> fields = {"\"ok\":true", "\"type\":\"list\""};
    if (what == "models" || what == "all") {
      fields.push_back("\"models\":" + json_names(model_names()));
    }
    if (what == "clusters" || what == "all") {
      fields.push_back("\"clusters\":" + json_names(cluster_names()));
    }
    if (what == "scenarios" || what == "all") {
      fields.push_back("\"scenarios\":" + json_names(scenario_names()));
    }
    response = response_line(id_echo, join(fields, ","));
    return true;
  }

  // run / search / sweep / compare: all cells cached, or compute.
  if (req.cells.size() > kMaxInlineCells) return false;
  std::array<std::string_view, kMaxInlineCells> keys;
  size_t n_keys = 0;
  for (const RequestCell& cell : req.cells) {
    if (!cell.failed.has_value()) keys[n_keys++] = cell.key;
  }
  const std::optional<ReportCache::Tails> tails =
      cache_.find_tails(std::span(keys.data(), n_keys), req.format);
  if (!tails.has_value()) return false;
  size_t next_tail = 0;  // rows are appended in cell order
  append_rows_response(
      response, id_echo, req.type, req.cells.size(), req.format,
      [&](size_t i, std::string& out) {
        const RequestCell& cell = req.cells[i];
        if (cell.failed.has_value()) {
          append_row(out, *cell.failed, req.format);
        } else {
          append_row(out, shown_label(cell.label, *cell.built),
                     (*tails)[next_tail++], req.format);
        }
      });
  return true;
}

std::optional<Request> Server::answer(const std::string& line,
                                      std::string& response) {
  response.clear();
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) {
    return std::nullopt;  // blank keep-alive line: no response, no count
  }
  ++requests_;
  Request req;
  req.received = std::chrono::steady_clock::now();
  try {
    parse_request(line, options_.run, options_.jobs, req);
    if (!answer_from_cache(req, response)) return req;
  } catch (...) {
    response = current_error_line(req.id_echo);
  }
  record_service(std::chrono::steady_clock::now() - req.received);
  return std::nullopt;
}

std::string Server::handle(const std::string& request_line) {
  std::string response;
  std::optional<Request> req = answer(request_line, response);
  if (!req.has_value()) return response;
  // The caller drains the job's loop as one of its drivers, then sleeps
  // until whichever thread brings in the last cell delivers.
  struct Reply {
    Mutex mutex;
    CondVar ready;
    bool done BFPP_GUARDED_BY(mutex) = false;
    std::string response BFPP_GUARDED_BY(mutex);
  };
  auto reply = std::make_shared<Reply>();
  auto job = std::make_shared<Job>();
  job->request = std::move(*req);
  job->deliver = [reply](Job&, std::string done) {
    const LockGuard lock(reply->mutex);
    reply->response = std::move(done);
    reply->done = true;
    reply->ready.notify_all();
  };
  metrics_.dispatch_backlog.fetch_add(1, std::memory_order_relaxed);
  start(job, /*caller_drives=*/true);
  const LockGuard lock(reply->mutex);
  while (!reply->done) reply->ready.wait(reply->mutex);
  return std::move(reply->response);
}

void Server::record_service(std::chrono::steady_clock::duration elapsed) {
  // Service time, bucketed into the log2 histogram behind the metrics
  // request. Lock-free: every transport (the event loop, finishing Jobs,
  // stdio, embedders driving handle() directly) feeds the same
  // histogram.
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  const auto micros = static_cast<uint64_t>(std::max<int64_t>(us, 0));
  const size_t bucket =
      micros < 2 ? 0
                 : std::min<size_t>(std::bit_width(micros) - 1,
                                    ServeStats::kLatencyBuckets - 1);
  metrics_.latency_count.fetch_add(1, std::memory_order_relaxed);
  metrics_.latency_sum_us.fetch_add(micros, std::memory_order_relaxed);
  metrics_.latency_buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

ServeStats Server::snapshot_stats() const {
  ServeStats s;
  s.requests = requests_.load();
  s.cache = cache_.stats();
  s.connections.active = metrics_.active.load(std::memory_order_relaxed);
  s.connections.reading = metrics_.reading.load(std::memory_order_relaxed);
  s.connections.processing =
      metrics_.processing.load(std::memory_order_relaxed);
  s.connections.writing = metrics_.writing.load(std::memory_order_relaxed);
  s.connections.accepted = metrics_.accepted.load(std::memory_order_relaxed);
  s.connections.rejected = metrics_.rejected.load(std::memory_order_relaxed);
  s.queues.dispatch_backlog =
      metrics_.dispatch_backlog.load(std::memory_order_relaxed);
  s.queues.executing = metrics_.executing.load(std::memory_order_relaxed);
  s.latency.count = metrics_.latency_count.load(std::memory_order_relaxed);
  s.latency.sum_us = metrics_.latency_sum_us.load(std::memory_order_relaxed);
  s.latency.buckets.reserve(ServeStats::kLatencyBuckets);
  for (const auto& bucket : metrics_.latency_buckets) {
    s.latency.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  // Percentiles from the histogram: walk the cumulative counts and
  // report the matched bucket's inclusive upper bound (2^(i+1) - 1 us),
  // a deliberate over-estimate - monitoring should err slow, not fast.
  const auto percentile = [&s](double q) -> uint64_t {
    if (s.latency.count == 0) return 0;
    const auto rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(s.latency.count)));
    uint64_t seen = 0;
    for (size_t i = 0; i < s.latency.buckets.size(); ++i) {
      seen += s.latency.buckets[i];
      if (seen >= rank) return (uint64_t{2} << i) - 1;
    }
    return (uint64_t{2} << (s.latency.buckets.size() - 1)) - 1;
  };
  s.latency.p50_us = percentile(0.50);
  s.latency.p99_us = percentile(0.99);
  return s;
}

int Server::serve_stdio(std::FILE* in, std::FILE* out) {
  std::string line;
  while (!shutdown_ && net::read_stdio_line(in, line)) {
    const bool overlong = line.size() > net::kMaxRequestLineBytes;
    const std::string response = overlong ? overlong_line_error()
                                          : handle(line);
    if (!response.empty()) {
      std::fputs(response.c_str(), out);
      std::fflush(out);
    }
    if (overlong) break;
  }
  persist_cache();
  return 0;
}

int Server::serve_on(net::Listener& listener) {
  int exit_code = 0;

  // The connection registry, owned by this thread like every Conn field.
  // A vector (not an unordered container) so every sweep below iterates
  // in admission order - the determinism lint bans unordered iteration
  // feeding emitters, and poll() fairness does not care.
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<pollfd> fds;
  std::vector<size_t> fd_to_conn;  // fds index -> conns index
  std::deque<Completion> completed;
  // Jobs started and not yet handed back: each pushes one completion,
  // also when its connection died meanwhile.
  size_t outstanding = 0;
  const auto take_completions = [&] {
    wake_.drain();
    const LockGuard lock(dispatch_mutex_);
    completed.swap(completions_);
  };
  std::string response;
  bool draining = false;
  // Work is ready without any fd turning ready - a connection holds a
  // line the last tick did not answer (one line per connection per
  // tick), or a drain began and idle connections must close: poll
  // without sleeping.
  bool poll_now = false;
  // Queues response bytes on a connection. An empty outbox takes them by
  // swap, so nothing is copied and `bytes` gets the outbox's spare
  // capacity back (the loop's `response` buffer stays warm); only a
  // response behind an unsent remainder is appended.
  const auto enqueue = [](Conn& conn, std::string& bytes) {
    if (conn.outbox.empty()) {
      conn.outbox.swap(bytes);
    } else {
      conn.outbox += bytes;
    }
  };
  // Writes what the socket takes of a connection's pending response
  // bytes; a write error marks the peer gone.
  const auto flush = [](Conn& conn) {
    if (conn.dead || conn.out_off == conn.outbox.size()) return;
    if (conn.stream->write_some(conn.outbox, conn.out_off) ==
        net::IoStatus::kError) {
      conn.dead = true;  // peer vanished mid-response
    } else if (conn.out_off == conn.outbox.size()) {
      conn.outbox.clear();
      conn.out_off = 0;
    } else if (conn.out_off >= kOutboxHighWater) {
      conn.outbox.erase(0, conn.out_off);
      conn.out_off = 0;
    }
  };

  while (true) {
    if (shutdown_ && !draining) {
      draining = true;
      // The drain contract: stop accepting and reading, answer what was
      // already dispatched, flush every outbox, then close. Read but
      // unanswered lines are dropped - a drain finishes work, it does
      // not start more.
      for (const std::shared_ptr<Conn>& conn : conns) conn->input.clear();
      poll_now = true;
    }
    if (draining && conns.empty()) break;

    // ---- Build the poll set ----
    fds.clear();
    fd_to_conn.clear();
    fds.push_back({wake_.fd(), POLLIN, 0});
    if (!draining) fds.push_back({listener.fd(), POLLIN, 0});
    const size_t first_conn_fd = fds.size();
    for (size_t i = 0; i < conns.size(); ++i) {
      const Conn& conn = *conns[i];
      if (conn.dead) continue;
      const size_t pending = conn.outbox.size() - conn.out_off;
      const size_t inflight = conn.input.size() + (conn.busy ? 1 : 0);
      short events = 0;
      // Backpressure: stop reading from a client that already has its
      // fair share in flight, or whose unread responses have piled past
      // the high-water mark - it blocks on its own socket while everyone
      // else keeps being served.
      if (!conn.read_eof && !draining && pending < kOutboxHighWater &&
          inflight < static_cast<size_t>(options_.max_inflight_per_client)) {
        events |= POLLIN;
      }
      if (pending > 0) events |= POLLOUT;
      if (events == 0) continue;  // progress will come via wake_
      fds.push_back({conn.stream->fd(), events, 0});
      fd_to_conn.push_back(i);
    }

    // Finite timeout: the stalled-writer clock below must keep ticking
    // even when no fd turns ready.
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               poll_now ? 0 : 500) < 0) {
      for (pollfd& pfd : fds) pfd.revents = 0;  // undefined after failure
      if (errno != EINTR) {
        std::fprintf(stderr, "bfpp serve: poll() failed: %s; shutting down\n",
                     errno_string(errno).c_str());
        exit_code = 1;
        shutdown_ = true;
      }
    }

    // ---- Completions: responses handed back by finished Jobs ----
    // A Job pushes before it signals, so every completion behind a
    // drained wake byte is visible once the lock is taken; one pushed
    // later leaves a fresh byte for the next poll(). Each response is
    // flushed at once, without a poll trip.
    if ((fds[0].revents & POLLIN) != 0) {
      take_completions();
      outstanding -= completed.size();
      for (Completion& done : completed) {
        enqueue(*done.conn, done.response);
        done.conn->busy = false;
        flush(*done.conn);
      }
      completed.clear();
    }

    // ---- Read: split complete request lines off readable sockets ----
    for (size_t fi = first_conn_fd; fi < fds.size(); ++fi) {
      Conn& conn = *conns[fd_to_conn[fi - first_conn_fd]];
      if ((fds[fi].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        flush(conn);
      }
      if ((fds[fi].events & POLLIN) == 0) continue;
      if ((fds[fi].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const net::IoStatus status = conn.stream->fill();
      if (status == net::IoStatus::kError) {
        conn.dead = true;
        continue;
      }
      std::string line;
      while (conn.stream->next_line(line)) {
        conn.input.push_back(std::move(line));
      }
      if (conn.stream->buffered() > net::kMaxRequestLineBytes) {
        // Stop reading; the requests before the overlong line are still
        // answered, then one error line, then the close.
        conn.overlong = true;
        conn.read_eof = true;
        continue;
      }
      if (status == net::IoStatus::kEof) {
        conn.read_eof = true;
        // The shared final-line contract: a client that forgot the
        // trailing newline before half-closing still gets its answer.
        if (conn.stream->take_final_line(line)) {
          conn.input.push_back(std::move(line));
        }
      }
    }

    // ---- Accept: admit up to the connection cap, reject the rest ----
    if (!draining && (fds[1].revents & POLLIN) != 0) {
      while (true) {
        std::optional<net::Stream> client = listener.try_accept();
        if (!client.has_value()) {
          if (listener.last_error() != 0) {
            // A permanent accept failure (EMFILE, listener torn down)
            // must be tellable from a shutdown: name the errno and
            // drain out.
            std::fprintf(stderr,
                         "bfpp serve: accept() failed on 127.0.0.1:%d: %s "
                         "(errno %d); shutting down\n",
                         listener.port(),
                         errno_string(listener.last_error()).c_str(),
                         listener.last_error());
            exit_code = 1;
            shutdown_ = true;
          }
          break;
        }
        if (conns.size() >= static_cast<size_t>(options_.max_connections)) {
          // Over the cap: answer explicitly and close, instead of
          // leaving the connection to rot invisibly in a kernel queue.
          // Best-effort single write - a freshly connected socket's
          // buffer is empty, so the line virtually always fits.
          const std::string refusal = error_line(
              "", str_format("serve: connection limit reached "
                             "(--max-connections %d)",
                             options_.max_connections));
          size_t offset = 0;
          (void)client->write_some(refusal, offset);
          metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
          continue;  // ~Stream closes the socket
        }
        conns.push_back(std::make_shared<Conn>(std::move(*client)));
        metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // ---- Answer: on this thread when nothing needs computing ----
    // One line per idle connection per tick, round-robin. A connection
    // with a Job in flight waits for its response first, so responses go
    // out in request order. Each answer is flushed at once; a request
    // that must compute is probed and started as a Job, already parsed,
    // before the next connection's line is answered.
    for (const std::shared_ptr<Conn>& conn : conns) {
      if (conn->dead || conn->busy || conn->input.empty()) continue;
      std::optional<Request> req = answer(conn->input.front(), response);
      conn->input.pop_front();
      if (req.has_value()) {
        conn->busy = true;
        ++outstanding;
        auto job = std::make_shared<Job>();
        job->request = std::move(*req);
        // The event loop owns the socket and does the flush.
        job->deliver = [this, conn](Job& done, std::string answer) mutable {
          {
            const LockGuard lock(dispatch_mutex_);
            completions_.push_back({std::move(conn), std::move(done.request),
                                    std::move(answer)});
          }
          wake_.signal();
        };
        metrics_.dispatch_backlog.fetch_add(1, std::memory_order_relaxed);
        if (job->request.cells.size() > kMaxInlineCells) {
          ThreadPool::shared().submit([this, job] { start(job, false); });
        } else {
          start(job, /*caller_drives=*/false);
        }
      } else {
        enqueue(*conn, response);
        flush(*conn);
      }
    }

    // ---- Stall clock, close, classify: one unlocked pass ----
    poll_now = false;
    int reading = 0;
    int processing = 0;
    int writing = 0;
    size_t kept = 0;
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = *conns[i];
      if (conn.overlong && !conn.busy && conn.input.empty()) {
        conn.overlong = false;
        conn.outbox += overlong_line_error();
      }
      const size_t left = conn.dead ? 0 : conn.outbox.size() - conn.out_off;
      if (left == 0) {
        conn.stalled = false;
      } else if (!conn.stalled || left != conn.last_pending) {
        // (Re)arm the stall clock on any change in the backlog - drained
        // bytes or a freshly appended response both count as signs of
        // life.
        conn.stalled = true;
        conn.last_pending = left;
        conn.stalled_since = now;
      } else if (now - conn.stalled_since >=
                 std::chrono::seconds(kSendTimeoutSeconds)) {
        conn.dead = true;  // peer stopped reading entirely
      }
      if (conn.dead || ((conn.read_eof || draining) && !conn.busy &&
                        conn.input.empty() && left == 0)) {
        continue;  // dropped from the registry: the socket closes
      }
      poll_now = poll_now || (!conn.busy && !conn.input.empty());
      if (conn.busy) {
        ++processing;
      } else if (left > 0) {
        ++writing;
      } else {
        ++reading;
      }
      conns[kept++] = std::move(conns[i]);
    }
    conns.resize(kept);
    metrics_.active.store(static_cast<int>(conns.size()),
                          std::memory_order_relaxed);
    metrics_.reading.store(reading, std::memory_order_relaxed);
    metrics_.processing.store(processing, std::memory_order_relaxed);
    metrics_.writing.store(writing, std::memory_order_relaxed);
  }

  // Jobs whose connections died are still computing: wait for their
  // responses and release them (and the sockets they keep open) now,
  // not at the next serve_on.
  while (outstanding > 0) {
    pollfd wake{wake_.fd(), POLLIN, 0};
    (void)::poll(&wake, 1, 500);
    take_completions();
    outstanding -= completed.size();
    completed.clear();
  }
  persist_cache();
  return exit_code;
}

int Server::serve() {
  // The backlog is a fixed burst buffer: admission is enforced by the
  // event loop itself (--max-connections, with explicit rejection), not
  // by hiding excess connections in a kernel queue sized to the cap.
  net::Listener listener(options_.port, kListenBacklog);
  const bool durable =
      options_.cache_capacity > 0 && !options_.cache_file.empty();
  std::fprintf(
      stderr,
      "bfpp serve: listening on 127.0.0.1:%d (backend %s, cache %zu "
      "entries%s%s, up to %d concurrent connections); send "
      "{\"type\":\"shutdown\"} to stop\n",
      listener.port(), to_string(options_.run.backend),
      options_.cache_capacity, durable ? ", persisted to " : "",
      durable ? options_.cache_file.c_str() : "", options_.max_connections);
  return serve_on(listener);
}

}  // namespace bfpp::api
