#include "api/server.h"

#include <poll.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <utility>

#include "api/api.h"
#include "api/cli.h"
#include "api/compare.h"
#include "api/registry.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/json.h"
#include "common/serialize.h"
#include "common/socket.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace bfpp::api {

namespace {

// Bumped whenever the cache-file line format changes; a mismatched
// snapshot is ignored (cold start), never misread.
constexpr int kCacheFileVersion = 1;

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

// How many executor threads run handle(). Matching the compute pool
// keeps a fully-busy server from queueing behind fewer dispatchers,
// the floor keeps several coalescing followers (which block their
// executor in ReportCache::wait) from starving unrelated requests,
// and the cap bounds idle threads on huge machines.
int executor_count() { return std::clamp(ThreadPool::shared().size(), 4, 16); }

// One cache-file entry line: what save() writes per entry and what the
// journal appends per inserted cell.
std::string cache_entry_line(const std::string& key, const Report& report) {
  return "{\"key\":" + json_quote(key) + ",\"report\":" + report.to_wire() +
         "}\n";
}

// Opens the cache file for appending ("a": every write lands at the
// current end); nullptr, after a stderr warning, when it cannot.
std::FILE* open_journal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    std::fprintf(stderr, "bfpp serve: cannot append to cache file '%s': %s\n",
                 path.c_str(), errno_string(errno).c_str());
  }
  return file;
}

}  // namespace

// ---- ReportCache ----

ReportCache::ReportCache(size_t capacity) : capacity_(capacity) {
  counters_.capacity = capacity;
}

ReportCache::Probe ReportCache::probe_or_lead(const std::string& key) {
  const LockGuard lock(mutex_);
  Probe probe;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
    probe.report = it->second->second;
    return probe;
  }
  const auto flight = inflight_.find(key);
  if (flight != inflight_.end()) {
    ++counters_.coalesced;
    probe.waiting = flight->second;
    return probe;
  }
  ++counters_.misses;
  inflight_.emplace(key, std::make_shared<InFlight>());
  probe.leader = true;
  return probe;
}

std::optional<Report> ReportCache::wait(
    const std::shared_ptr<InFlight>& entry) {
  const LockGuard lock(mutex_);
  // Plain while-loop, not a predicate lambda: `done` is guarded by
  // mutex_, and the analysis must see the read under the held lock.
  while (!entry->done) entry->ready.wait(mutex_);
  return entry->result;
}

void ReportCache::finish_inflight_locked(const std::string& key,
                                         std::optional<Report> result) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  const std::shared_ptr<InFlight> entry = std::move(it->second);
  inflight_.erase(it);
  entry->result = std::move(result);
  entry->done = true;
  entry->ready.notify_all();
}

void ReportCache::publish(const std::string& key, Report report) {
  const LockGuard lock(mutex_);
  if (capacity_ > 0) {
    const InsertOutcome outcome = insert_locked(key, report);
    if (outcome.inserted) ++counters_.insertions;
    counters_.evictions += outcome.evicted;
  }
  // Followers are handed the result through the entry itself, so they
  // are served even when the cache is disabled or the new cell was
  // immediately evicted.
  finish_inflight_locked(key, std::move(report));
}

void ReportCache::abandon(const std::string& key) {
  const LockGuard lock(mutex_);
  finish_inflight_locked(key, std::nullopt);
}

ReportCache::InsertOutcome ReportCache::insert_locked(const std::string& key,
                                                      Report report) {
  InsertOutcome outcome;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(report);
    lru_.splice(lru_.begin(), lru_, it->second);
    return outcome;  // a refresh + promote, nothing new or evicted
  }
  lru_.emplace_front(key, std::move(report));
  index_[key] = lru_.begin();
  outcome.inserted = true;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++outcome.evicted;
  }
  return outcome;
}

bool ReportCache::save(const std::string& path) const {
  // Copy the entries out under the lock, serialize outside it: to_wire()
  // over the whole cache is the expensive part, and holding the mutex
  // through it would stall every concurrent session's probe/publish.
  std::vector<std::pair<std::string, Report>> entries;
  {
    const LockGuard lock(mutex_);
    // LRU first, MRU last: load() re-inserts in file order and ends up
    // with the same recency order this cache has now.
    entries.assign(lru_.rbegin(), lru_.rend());
  }
  std::string out = str_format("{\"bfpp_report_cache\":%d,\"entries\":%zu}\n",
                               kCacheFileVersion, entries.size());
  for (const auto& [key, report] : entries) {
    out += cache_entry_line(key, report);
  }
  if (!serialize::write_file_atomic(path, out)) {
    std::fprintf(stderr, "bfpp serve: cannot persist cache to '%s': %s\n",
                 path.c_str(), errno_string(errno).c_str());
    return false;
  }
  return true;
}

size_t ReportCache::load(const std::string& path, bool* compact) {
  if (compact != nullptr) *compact = false;
  if (capacity_ == 0) return 0;  // caching disabled: nothing to warm
  const std::optional<std::string> content = serialize::read_file(path);
  if (!content.has_value()) return 0;  // no snapshot yet: cold start
  const std::vector<std::string> lines = serialize::split_lines(*content);
  double header_entries = -1;  // absent: never matches a line count
  try {
    check_config(!lines.empty(), "empty file");
    const json::Value header = json::parse(lines[0]);
    const json::Value* version = header.get("bfpp_report_cache");
    check_config(version != nullptr &&
                     version->as_int("bfpp_report_cache") == kCacheFileVersion,
                 "missing or unsupported \"bfpp_report_cache\" version");
    const json::Value* entries = header.get("entries");
    if (entries != nullptr && entries->is_number()) {
      header_entries = entries->as_number();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bfpp serve: ignoring cache file '%s' (not a bfpp report "
                 "cache snapshot: %s)\n",
                 path.c_str(), e.what());
    return 0;
  }
  size_t loaded = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    try {
      const json::Value entry = json::parse(lines[i]);
      const json::Value* key = entry.get("key");
      const json::Value* report = entry.get("report");
      check_config(key != nullptr && report != nullptr,
                   "entry needs \"key\" and \"report\"");
      Report parsed = Report::from_wire(*report);
      const LockGuard lock(mutex_);
      insert_locked(key->as_string("key"), std::move(parsed));
      ++loaded;
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "bfpp serve: skipping corrupt cache entry (line %zu of "
                   "'%s'): %s\n",
                   i + 1, path.c_str(), e.what());
    }
  }
  if (compact != nullptr) {
    const size_t entry_lines = lines.size() - 1;
    const LockGuard lock(mutex_);
    *compact = header_entries == static_cast<double>(entry_lines) &&
               loaded == entry_lines && lru_.size() == entry_lines;
  }
  return loaded;
}

ReportCache::Stats ReportCache::stats() const {
  const LockGuard lock(mutex_);
  Stats out = counters_;
  out.entries = lru_.size();
  out.inflight = inflight_.size();
  return out;
}

std::string cache_key(const Scenario& scenario,
                      const std::optional<autotune::Method>& method,
                      const RunOptions& options) {
  // describe() round-trips through ParallelConfig::parse, so it is a
  // faithful (injective) encoding of the whole configuration, overlap
  // flags included. Structural model/cluster fields guard against two
  // specs sharing a display name; total_gpus covers ':<n_nodes>' resizes.
  const std::string cfg =
      scenario.config.has_value() ? scenario.config->describe() : "-";
  const std::string kernel =
      options.kernel.has_value()
          ? str_format("%.17g/%.17g/%.17g", options.kernel->max_efficiency,
                       options.kernel->narrow_half, options.kernel->rows_half)
          : "default";
  return str_format(
      "model=%s#l%dh%ds%dv%d|cluster=%s#%dgpus|cfg=%s|batch=%d|method=%s|"
      "backend=%s|kernel=%s",
      scenario.model.name.c_str(), scenario.model.n_layers,
      scenario.model.hidden_size, scenario.model.seq_len,
      scenario.model.vocab_size, scenario.cluster.name.c_str(),
      scenario.cluster.total_gpus(), cfg.c_str(), scenario.batch_size,
      method.has_value() ? autotune::to_string(*method) : "-",
      to_string(options.backend), kernel.c_str());
}

// ---- ServeStats wire format ----

namespace {

// Same contract as report.cpp's reader helpers: a wire field must be
// present, so its absence is a parse error naming the key.
const json::Value& serve_wire_field(const json::Value& v, const char* key) {
  const json::Value* field = v.get(key);
  check_config(field != nullptr,
               str_format("serve stats wire: missing \"%s\"", key));
  return *field;
}

uint64_t serve_wire_u64(const json::Value& v, const char* key) {
  const double x = serve_wire_field(v, key).as_number(key);
  check_config(x >= 0 && x == std::floor(x),
               str_format("serve stats wire: \"%s\" must be a non-negative "
                          "integer",
                          key));
  return static_cast<uint64_t>(x);
}

std::string u64_list(const std::vector<uint64_t>& xs) {
  std::vector<std::string> out;
  out.reserve(xs.size());
  for (const uint64_t x : xs) {
    out.push_back(str_format("%llu", static_cast<unsigned long long>(x)));
  }
  return "[" + join(out, ",") + "]";
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

// ---- Request parsing ----

namespace {

// Strips all whitespace outside string literals: turns the pretty-printed
// Report::to_json() into one protocol line. Safe because the emitter
// escapes every control character, so no raw newline can appear inside a
// JSON string.
std::string json_compact(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      out += c;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') continue;
    out += c;
    if (c == '"') in_string = true;
  }
  return out;
}

std::string json_names(const std::vector<std::string>& names) {
  std::vector<std::string> quoted;
  quoted.reserve(names.size());
  for (const std::string& name : names) quoted.push_back(json_quote(name));
  return "[" + join(quoted, ",") + "]";
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

std::vector<std::string> names_from(const json::Value& v, const char* key) {
  if (v.is_array()) {
    std::vector<std::string> out;
    for (const json::Value& item : v.items()) {
      out.push_back(item.as_string(key));
    }
    check_config(!out.empty(),
                 str_format("serve: \"%s\" must not be an empty list", key));
    return out;
  }
  return {v.as_string(key)};
}

std::vector<int> ints_from(const json::Value& v, const char* key) {
  if (v.is_array()) {
    std::vector<int> out;
    for (const json::Value& item : v.items()) out.push_back(item.as_int(key));
    check_config(!out.empty(),
                 str_format("serve: \"%s\" must not be an empty list", key));
    return out;
  }
  return {v.as_int(key)};
}

// Everything one run/search/sweep/compare request carries, after
// validation.
struct Request {
  std::string type;     // run | search | sweep | compare | stats | metrics |
                        // list | ping | shutdown
  std::string id_echo;  // compact JSON to echo back ("" = no id)
  std::string format = "json";  // json | csv
  CliOptions cli;               // scenario / grid / method fields
  RunOptions run;               // backend + kernel + threads
  int jobs = 0;
  std::string list_what = "all";
};

hw::KernelModel kernel_from(const json::Value& v,
                            const hw::KernelModel& defaults) {
  check_config(v.is_object(), "serve: \"kernel\" must be an object");
  hw::KernelModel kernel = defaults;
  for (const auto& [key, field] : v.members()) {
    if (key == "max_efficiency") {
      kernel.max_efficiency = field.as_number("kernel.max_efficiency");
    } else if (key == "narrow_half") {
      kernel.narrow_half = field.as_number("kernel.narrow_half");
    } else if (key == "rows_half") {
      kernel.rows_half = field.as_number("kernel.rows_half");
    } else {
      throw ConfigError(str_format(
          "serve: unknown \"kernel\" field '%s' (max_efficiency, "
          "narrow_half or rows_half)",
          key.c_str()));
    }
  }
  return kernel;
}

// The compact JSON to echo back as "id" (empty = none). Extracted before
// the rest of the request parses, so even malformed requests keep their
// correlation id.
std::string id_echo_from(const json::Value& root) {
  check_config(root.is_object(), "serve: a request must be a JSON object");
  const json::Value* id = root.get("id");
  if (id == nullptr) return {};
  if (id->is_string()) return json_quote(id->as_string());
  if (id->is_number()) {
    // Integral ids (the common case: counters, epoch timestamps) echo
    // back digit-for-digit; only genuinely fractional ids round-trip
    // through shortest-faithful double formatting. Non-finite values
    // (e.g. an overflowing 1e400 literal) would print as bare `inf`
    // and corrupt the response line.
    const double x = id->as_number();
    check_config(std::isfinite(x), "serve: \"id\" must be a finite number");
    if (x == std::floor(x) && std::abs(x) <= 9007199254740992.0) {
      return str_format("%lld", static_cast<long long>(x));
    }
    return str_format("%.17g", x);
  }
  throw ConfigError("serve: \"id\" must be a string or a number");
}

Request parse_request(const json::Value& root, const ServeOptions& defaults) {
  Request req;
  req.run = defaults.run;
  req.jobs = defaults.jobs;

  const json::Value* type = root.get("type");
  check_config(type != nullptr,
               "serve: a request needs a \"type\" (run, search, sweep, "
               "compare, stats, metrics, list, ping or shutdown)");
  req.type = to_lower(type->as_string("type"));
  const bool scenario_request =
      req.type == "run" || req.type == "search" || req.type == "sweep" ||
      req.type == "compare";
  check_config(scenario_request || req.type == "stats" ||
                   req.type == "metrics" || req.type == "list" ||
                   req.type == "ping" || req.type == "shutdown",
               str_format("serve: unknown request type '%s' (run, search, "
                          "sweep, compare, stats, metrics, list, ping or "
                          "shutdown)",
                          req.type.c_str()));
  const bool sweeping = req.type == "sweep";
  req.cli.command = req.type;

  for (const auto& [key, v] : root.members()) {
    if (key == "id" || key == "type") continue;
    if (key == "what" && req.type == "list") {
      req.list_what = v.as_string("what");
      continue;
    }
    check_config(scenario_request,
                 str_format("serve: field \"%s\" is not valid for a '%s' "
                            "request",
                            key.c_str(), req.type.c_str()));
    if (key == "format") {
      req.format = to_lower(v.as_string("format"));
      check_config(req.format == "json" || req.format == "csv",
                   "serve: \"format\" must be \"json\" or \"csv\"");
    } else if (key == "backend") {
      req.run.backend = parse_backend(v.as_string("backend"));
    } else if (key == "kernel") {
      req.run.kernel =
          kernel_from(v, req.run.kernel.value_or(hw::KernelModel{}));
    } else if (key == "jobs") {
      req.jobs = v.as_int("jobs");
      check_config(req.jobs >= 0, "serve: \"jobs\" must be >= 0");
    } else if (key == "grid") {
      check_config(req.type == "compare",
                   "serve: \"grid\" applies only to 'compare' requests");
      req.cli.grid = v.as_string("grid");
    } else if (req.type == "compare") {
      // A compare grid is fully named; pinning scenario fields on top of
      // it would be silently ignored, so reject them.
      throw ConfigError(str_format(
          "serve: field \"%s\" is not valid for a 'compare' request "
          "(format, backend, kernel, jobs or grid)",
          key.c_str()));
    } else if (key == "preset") {
      req.cli.preset = v.as_string("preset");
    } else if (key == "model") {
      if (sweeping) {
        req.cli.models = names_from(v, "model");
      } else {
        req.cli.model = v.as_string("model");
      }
    } else if (key == "cluster") {
      if (sweeping) {
        req.cli.clusters = names_from(v, "cluster");
      } else {
        req.cli.cluster = v.as_string("cluster");
      }
    } else if (key == "schedule") {
      if (sweeping) {
        req.cli.schedules = names_from(v, "schedule");
      } else {
        req.cli.schedule = v.as_string("schedule");
      }
    } else if (key == "sharding") {
      if (sweeping) {
        req.cli.shardings = names_from(v, "sharding");
      } else {
        req.cli.sharding = v.as_string("sharding");
      }
    } else if (key == "method") {
      // run simulates one exact configuration; silently ignoring a
      // search method would mislead (mirrors the CLI's pinned-flag
      // guards).
      check_config(req.type != "run",
                   "serve: \"method\" applies to search and sweep "
                   "requests, not run");
      if (sweeping) {
        req.cli.methods = names_from(v, "method");
      } else {
        req.cli.method = v.as_string("method");
      }
    } else if (key == "pp") {
      if (sweeping) {
        req.cli.pps = ints_from(v, "pp");
      } else {
        req.cli.pp = v.as_int("pp");
      }
    } else if (key == "tp") {
      if (sweeping) {
        req.cli.tps = ints_from(v, "tp");
      } else {
        req.cli.tp = v.as_int("tp");
      }
    } else if (key == "dp") {
      if (sweeping) {
        req.cli.dps = ints_from(v, "dp");
      } else {
        req.cli.dp = v.as_int("dp");
      }
    } else if (key == "smb") {
      if (sweeping) {
        req.cli.smbs = ints_from(v, "smb");
      } else {
        req.cli.smb = v.as_int("smb");
      }
    } else if (key == "nmb") {
      if (sweeping) {
        req.cli.nmbs = ints_from(v, "nmb");
      } else {
        req.cli.nmb = v.as_int("nmb");
      }
    } else if (key == "loop") {
      if (sweeping) {
        req.cli.loops = ints_from(v, "loop");
      } else {
        req.cli.loop = v.as_int("loop");
      }
    } else if (key == "batch") {
      if (sweeping) {
        req.cli.batches = ints_from(v, "batch");
      } else {
        req.cli.batch = v.as_int("batch");
      }
    } else if (key == "megatron") {
      req.cli.megatron = v.as_bool("megatron");
    } else if (key == "no_dp_overlap") {
      req.cli.no_dp_overlap = v.as_bool("no_dp_overlap");
    } else if (key == "no_pp_overlap") {
      req.cli.no_pp_overlap = v.as_bool("no_pp_overlap");
    } else {
      throw ConfigError(str_format(
          "serve: unknown field \"%s\" for a '%s' request (see "
          "docs/PROTOCOL.md)",
          key.c_str(), req.type.c_str()));
    }
  }
  req.run.threads = req.jobs;
  return req;
}

// Payload rendering shared by run/search/sweep responses.
std::string rows_response(const std::string& id_echo, const char* type,
                          const std::vector<Report>& reports,
                          const std::string& format, bool single) {
  if (format == "csv") {
    std::string head = str_format(
        "\"ok\":true,\"type\":\"%s\",\"format\":\"csv\",\"rows\":%zu,"
        "\"lines\":%zu",
        type, reports.size(), reports.size() + 1);
    std::string out = response_line(id_echo, head);
    out += Report::csv_header() + "\n";
    for (const Report& r : reports) out += r.to_csv_row() + "\n";
    return out;
  }
  if (single) {
    return response_line(id_echo,
                         str_format("\"ok\":true,\"type\":\"%s\",", type) +
                             "\"report\":" + json_compact(reports[0].to_json()));
  }
  std::string head = str_format(
      "\"ok\":true,\"type\":\"%s\",\"rows\":%zu,\"lines\":%zu", type,
      reports.size(), reports.size());
  std::string out = response_line(id_echo, head);
  for (const Report& r : reports) out += json_compact(r.to_json()) + "\n";
  return out;
}

}  // namespace

// ---- Server ----

Server::Server(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  if (options_.cache_file.empty()) return;
  bool compact = false;
  const size_t loaded = cache_.load(options_.cache_file, &compact);
  if (loaded > 0) {
    std::fprintf(stderr,
                 "bfpp serve: warmed cache with %zu entr%s from '%s'\n",
                 loaded, loaded == 1 ? "y" : "ies",
                 options_.cache_file.c_str());
  }
  if (!journaled()) return;
  const LockGuard lock(journal_mutex_);
  // A clean snapshot is appended to as it is, so a warm start costs no
  // rewrite. Anything else - no file, an unreadable one, a journal tail,
  // torn or duplicate lines, more entries than this capacity keeps - is
  // compacted first, so appends never land after a torn line.
  if (!compact) {
    (void)compact_locked();
    return;
  }
  journal_ = open_journal(options_.cache_file);
}

Server::~Server() {
  const LockGuard lock(journal_mutex_);
  if (journal_ != nullptr) std::fclose(journal_);
}

Server::Conn::Conn(net::Stream&& s)
    : stream(std::make_unique<net::Stream>(std::move(s))) {}

Server::Conn::~Conn() = default;

void Server::request_shutdown() {
  shutdown_ = true;
  // One lock-free signal: the event loop polls the wake pipe and reads
  // shutdown_ at the top of every iteration. Callable from anywhere -
  // an executor mid-request, a signal-ish control thread, a test.
  wake_.signal();
}

bool Server::persist_cache() {
  if (options_.cache_file.empty()) return false;
  const LockGuard lock(journal_mutex_);
  return compact_locked();
}

bool Server::compact_locked() {
  // Reset even on failure: a failing save is retried after another
  // capacity's worth of appends, not on every insert.
  journal_lines_ = 0;
  if (!cache_.save(options_.cache_file)) return false;
  if (!journaled()) return true;
  // The rename replaced the file the old handle appends to; every later
  // append goes after the new snapshot.
  if (journal_ != nullptr) std::fclose(journal_);
  journal_ = open_journal(options_.cache_file);
  return true;
}

void Server::publish(const std::string& key, const Report& report) {
  if (!journaled()) {
    cache_.publish(key, report);
    return;
  }
  const std::string line = cache_entry_line(key, report);  // unlocked
  const LockGuard lock(journal_mutex_);
  // Append (and flush to the kernel) first, then publish: followers
  // wake, and the cell becomes a hit, only once its line is in the file.
  // A kill -9 can tear at most this one line, which load() skips.
  if (journal_ != nullptr && (std::fputs(line.c_str(), journal_) == EOF ||
                              std::fflush(journal_) == EOF)) {
    std::fprintf(stderr, "bfpp serve: cannot append to cache file '%s': %s\n",
                 options_.cache_file.c_str(), errno_string(errno).c_str());
  }
  cache_.publish(key, report);
  // Compacting at the capacity bounds the file at twice the capacity in
  // entry lines: at most one full snapshot plus one capacity of appends.
  if (++journal_lines_ >= options_.cache_capacity) (void)compact_locked();
}

std::vector<Report> Server::execute(const std::vector<Cell>& cells,
                                    const RunOptions& run, int jobs) {
  struct Slot {
    std::optional<Report> report;
    std::optional<Scenario> scenario;
    std::string key;
    std::shared_ptr<ReportCache::InFlight> waiting;  // follower: wait here
    bool leader = false;     // this request computes (and publishes) it
    bool published = false;  // publish() reached the cache
  };
  std::vector<Slot> slots(cells.size());

  // Whatever unwinds out of here - an unexpected exception in a compute
  // task, a bad_alloc building the work lists - a claimed cell must
  // never stay in-flight: followers on other sessions would wait
  // forever. publish() flips `published`, so the normal path is a no-op.
  struct AbandonGuard {
    ReportCache& cache;
    std::vector<Slot>& slots;
    ~AbandonGuard() {
      for (const Slot& slot : slots) {
        if (slot.leader && !slot.published) cache.abandon(slot.key);
      }
    }
  } guard{cache_, slots};

  std::vector<int> owned;    // cells this request leads (computed below)
  std::vector<int> waits;    // cells in flight on another session

  // Phase 1, serial: build scenarios and single-flight-probe the cache.
  // Cells that hit are relabelled (the cache key deliberately excludes
  // the cosmetic label, so a sweep cell can satisfy a later run request
  // and vice versa); uncached cells are either claimed (this request
  // leads and computes them) or joined (another session is already
  // computing the identical cell - overlapping sweeps share cells).
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    Slot& slot = slots[i];
    if (cell.built.has_value()) {
      slot.scenario = cell.built;
    } else {
      try {
        slot.scenario = cell.recipe.build();
      } catch (const ConfigError& e) {
        slot.report = failed_report(nullptr, cell.label, cell.method,
                                    "[config] ", e.what());
        continue;
      }
    }
    slot.key = cache_key(*slot.scenario, cell.method, run);
    ReportCache::Probe probe = cache_.probe_or_lead(slot.key);
    if (probe.report.has_value()) {
      probe.report->scenario =
          cell.label.empty() ? slot.scenario->name : cell.label;
      slot.report = std::move(probe.report);
    } else if (probe.waiting != nullptr) {
      slot.waiting = std::move(probe.waiting);
      waits.push_back(static_cast<int>(i));
    } else {
      slot.leader = true;
      owned.push_back(static_cast<int>(i));
    }
  }

  // One cell, leader-side: same error-to-row semantics as api::sweep
  // (infeasible cells become found=false rows and are published like any
  // other deterministic result), so cached and uncached cells render
  // identically. Shared by the parallel phase and the re-lead path.
  const std::unique_ptr<Engine> engine = make_engine(run);
  auto compute_cell = [&](size_t i) -> Report {
    const Cell& cell = cells[i];
    Slot& slot = slots[i];
    try {
      Report report = cell.method.has_value()
                          ? search(*slot.scenario, *cell.method, run)
                          : run_with(*slot.scenario, *engine);
      if (!cell.label.empty()) report.scenario = cell.label;
      return report;
    } catch (const ConfigError& e) {
      return failed_report(&*slot.scenario, cell.label, cell.method,
                           "[config] ", e.what());
    } catch (const OutOfMemoryError& e) {
      return failed_report(&*slot.scenario, cell.label, cell.method,
                           "[oom] ", e.what());
    }
  };

  // Phase 2, parallel: compute the owned cells on the shared pool,
  // publishing each as soon as it finishes - followers (other sessions,
  // or a duplicate cell later in this very batch) unblock per cell, not
  // per request.
  ThreadPool::shared().parallel_for(
      static_cast<int>(owned.size()), jobs, [&](int j) {
        const size_t i = static_cast<size_t>(owned[static_cast<size_t>(j)]);
        Slot& slot = slots[i];
        slot.report = compute_cell(i);
        publish(slot.key, *slot.report);
        slot.published = true;
      });

  // Phase 3, serial: collect the coalesced cells. The loop handles the
  // failure protocol: a leader that abandoned (unexpected error on its
  // session) wakes us with nullopt, and the re-probe either hits (some
  // other follower recomputed first), joins the new leader, or appoints
  // *us* leader - in which case we compute inline and publish, so an
  // erroring leader degrades to one extra computation, never a hang.
  for (const int wi : waits) {
    const size_t i = static_cast<size_t>(wi);
    const Cell& cell = cells[i];
    Slot& slot = slots[i];
    while (!slot.report.has_value()) {
      if (slot.waiting != nullptr) {
        std::optional<Report> result = cache_.wait(slot.waiting);
        slot.waiting = nullptr;
        if (result.has_value()) {
          result->scenario =
              cell.label.empty() ? slot.scenario->name : cell.label;
          slot.report = std::move(result);
        }
        continue;
      }
      ReportCache::Probe probe = cache_.probe_or_lead(slot.key);
      if (probe.report.has_value()) {
        probe.report->scenario =
            cell.label.empty() ? slot.scenario->name : cell.label;
        slot.report = std::move(probe.report);
      } else if (probe.waiting != nullptr) {
        slot.waiting = std::move(probe.waiting);
      } else {
        slot.leader = true;
        slot.report = compute_cell(i);
        publish(slot.key, *slot.report);
        slot.published = true;
      }
    }
  }

  // Phase 4, serial in cell order: collect.
  std::vector<Report> reports;
  reports.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    reports.push_back(std::move(*slots[i].report));
  }
  return reports;
}

std::string Server::handle_or_throw(std::string& id_echo,
                                    const std::string& line) {
  const json::Value root = json::parse(line);
  id_echo = id_echo_from(root);
  Request req = parse_request(root, options_);
  req.id_echo = id_echo;

  if (req.type == "ping") {
    return response_line(id_echo, "\"ok\":true,\"type\":\"pong\"");
  }
  if (req.type == "shutdown") {
    // Wakes the accept loop (self-pipe) and capacity waiters; the
    // requesting session still gets this acknowledgement before its
    // stream is drained.
    request_shutdown();
    return response_line(id_echo, "\"ok\":true,\"type\":\"shutdown\"");
  }
  if (req.type == "stats" || req.type == "metrics") {
    // Both responses splice the one versioned ServeStats emitter (outer
    // braces stripped) after the preamble, so the two surfaces share a
    // single schema and cannot drift apart field by field.
    const std::string wire = snapshot_stats().to_wire();
    return response_line(
        id_echo,
        str_format("\"ok\":true,\"type\":\"%s\",", req.type.c_str()) +
            wire.substr(1, wire.size() - 2));
  }
  if (req.type == "list") {
    const std::string what = to_lower(req.list_what);
    check_config(what == "models" || what == "clusters" ||
                     what == "scenarios" || what == "all",
                 str_format("serve: unknown list target '%s' (models, "
                            "clusters, scenarios or all)",
                            req.list_what.c_str()));
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
    return response_line(id_echo, join(fields, ","));
  }

  if (req.type == "sweep" || req.type == "compare") {
    // A compare request is a named sweep: the grid comes from
    // compare_grid instead of axis fields, but the cells run through the
    // same cached, coalesced execute() path, so a warm cache serves a
    // repeated compare without recomputing any cell.
    const ScenarioGrid grid = req.type == "compare"
                                  ? compare_grid(req.cli.grid)
                                  : grid_from_cli(req.cli);
    std::vector<Cell> cells;
    cells.reserve(grid.size());
    for (const SweepCell& sc : grid.cells()) {
      Cell cell;
      cell.recipe = sc.scenario;
      cell.method = sc.method;
      cell.label = sc.label;
      cells.push_back(std::move(cell));
    }
    const std::vector<Report> reports = execute(cells, req.run, req.jobs);
    return rows_response(id_echo, req.type.c_str(), reports, req.format,
                         /*single=*/false);
  }

  // run / search: one fully-validated cell. A structurally invalid
  // scenario throws here and becomes an {"ok":false} line; infeasibility
  // discovered during execution becomes a found=false report instead.
  Cell cell;
  cell.built = scenario_from_cli(req.cli);
  cell.label = req.cli.preset.empty() ? "serve" : "";
  if (req.type == "search") {
    cell.method = autotune::parse_method(req.cli.method);
  }
  const std::vector<Report> reports = execute({cell}, req.run, req.jobs);
  return rows_response(id_echo, req.type.c_str(), reports, req.format,
                       /*single=*/true);
}

std::string Server::handle(const std::string& request_line) {
  const size_t begin = request_line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};  // blank keep-alive line
  ++requests_;
  const auto started = std::chrono::steady_clock::now();
  std::string id_echo;
  std::string response;
  try {
    response = handle_or_throw(id_echo, request_line);
  } catch (const Error& e) {
    response = error_line(id_echo, e.what());
  } catch (const std::exception& e) {
    response = error_line(id_echo, std::string("internal: ") + e.what());
  }
  // Service time (parse to response built), bucketed into the log2
  // histogram behind the metrics request. Lock-free: every transport
  // (event loop executors, stdio, embedders driving handle() directly)
  // feeds the same histogram.
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  const auto elapsed = static_cast<uint64_t>(std::max<int64_t>(us, 0));
  const size_t bucket =
      elapsed < 2 ? 0
                  : std::min<size_t>(std::bit_width(elapsed) - 1,
                                     ServeStats::kLatencyBuckets - 1);
  metrics_.latency_count.fetch_add(1, std::memory_order_relaxed);
  metrics_.latency_sum_us.fetch_add(elapsed, std::memory_order_relaxed);
  metrics_.latency_buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  return response;
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
    const std::string response = handle(line);
    if (!response.empty()) {
      std::fputs(response.c_str(), out);
      std::fflush(out);
    }
  }
  persist_cache();
  return 0;
}

void Server::executor_loop() {
  // The previous request's response, handed back at the top of the next
  // critical section: one lock round per request covers both the
  // completion push and the next pop.
  std::optional<DispatchItem> done;
  while (true) {
    DispatchItem item;
    {
      const LockGuard lock(dispatch_mutex_);
      if (done.has_value()) {
        completions_.push_back(std::move(*done));
        done.reset();
        // Signalled before this thread may block on dispatch_ready_
        // below; the non-blocking pipe write never stalls the lock.
        wake_.signal();
      }
      // Plain while-loop, not a predicate lambda: dispatch_queue_ and
      // executors_stop_ are guarded by dispatch_mutex_ and the analysis
      // must see the reads under the held lock.
      while (!executors_stop_ && dispatch_queue_.empty()) {
        dispatch_ready_.wait(dispatch_mutex_);
      }
      // Stop only once the queue is drained: every dispatched request
      // was admitted, so its client still gets an answer during a
      // shutdown drain.
      if (dispatch_queue_.empty()) return;
      item = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }
    metrics_.dispatch_backlog.fetch_sub(1, std::memory_order_relaxed);
    metrics_.executing.fetch_add(1, std::memory_order_relaxed);
    // The response travels back in place of the request line; the
    // event loop owns the socket and does the flush.
    item.line = handle(item.line);
    metrics_.executing.fetch_sub(1, std::memory_order_relaxed);
    done = std::move(item);
  }
}

void Server::start_executors() {
  {
    const LockGuard lock(dispatch_mutex_);
    executors_stop_ = false;
  }
  const int want = executor_count();
  executors_.reserve(static_cast<size_t>(want));
  for (int i = 0; i < want; ++i) {
    try {
      executors_.emplace_back([this] { executor_loop(); });
    } catch (const std::system_error& e) {
      // Thread exhaustion (EAGAIN under tight rlimits): run with the
      // executors that did spawn rather than dying - unless none did,
      // in which case no request could ever be answered.
      std::fprintf(stderr,
                   "bfpp serve: spawned %zu of %d executor threads (%s)\n",
                   executors_.size(), want, e.what());
      break;
    }
  }
  check_config(!executors_.empty(),
               "serve: cannot spawn any executor thread");
}

void Server::stop_executors() {
  {
    const LockGuard lock(dispatch_mutex_);
    executors_stop_ = true;
  }
  dispatch_ready_.notify_all();
  for (std::thread& thread : executors_) {
    if (thread.joinable()) thread.join();
  }
  executors_.clear();
}

int Server::serve_on(net::Listener& listener) {
  start_executors();
  int exit_code = 0;

  // The connection registry, owned by this thread like every Conn field.
  // A vector (not an unordered container) so every sweep below iterates
  // in admission order - the determinism lint bans unordered iteration
  // feeding emitters, and poll() fairness does not care.
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<pollfd> fds;
  std::vector<size_t> fd_to_conn;  // fds index -> conns index
  std::vector<Conn*> writable;     // conns to flush this tick
  std::deque<DispatchItem> completed;
  std::vector<DispatchItem> to_dispatch;
  bool draining = false;

  while (true) {
    if (shutdown_ && !draining) {
      draining = true;
      // The drain contract: stop accepting and reading, answer what was
      // already dispatched, flush every outbox, then close. Parsed but
      // undispatched lines are dropped - a drain finishes work, it does
      // not start more.
      for (const std::shared_ptr<Conn>& conn : conns) conn->input.clear();
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
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500) < 0) {
      for (pollfd& pfd : fds) pfd.revents = 0;  // undefined after failure
      if (errno != EINTR) {
        std::fprintf(stderr, "bfpp serve: poll() failed: %s; shutting down\n",
                     errno_string(errno).c_str());
        exit_code = 1;
        shutdown_ = true;
      }
    }

    // ---- Completions: responses handed back by the executors ----
    // Executors push before they signal, so every completion behind a
    // drained wake byte is visible once the lock is taken; one pushed
    // later leaves a fresh byte for the next poll().
    writable.clear();
    if ((fds[0].revents & POLLIN) != 0) {
      wake_.drain();
      {
        const LockGuard lock(dispatch_mutex_);
        completed.swap(completions_);
      }
      for (DispatchItem& done : completed) {
        done.conn->outbox += done.line;
        done.conn->busy = false;
        writable.push_back(done.conn.get());  // flush without a poll trip
      }
    }

    // ---- Read: parse complete request lines off readable sockets ----
    for (size_t fi = first_conn_fd; fi < fds.size(); ++fi) {
      Conn& conn = *conns[fd_to_conn[fi - first_conn_fd]];
      if ((fds[fi].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        writable.push_back(&conn);
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
      if (conn.stream->buffered() > kMaxRequestLineBytes) {
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

    // ---- Flush: only connections with a completion or POLLOUT ----
    for (Conn* conn : writable) {
      if (conn->dead || conn->out_off == conn->outbox.size()) continue;
      if (conn->stream->write_some(conn->outbox, conn->out_off) ==
          net::IoStatus::kError) {
        conn->dead = true;  // peer vanished mid-response
      } else if (conn->out_off == conn->outbox.size()) {
        conn->outbox.clear();
        conn->out_off = 0;
      } else if (conn->out_off >= kOutboxHighWater) {
        conn->outbox.erase(0, conn->out_off);
        conn->out_off = 0;
      }
    }
    completed.clear();  // after the flush: it kept `writable` alive

    // ---- Dispatch, stall clock, close, classify: one unlocked pass ----
    to_dispatch.clear();
    int reading = 0;
    int processing = 0;
    int writing = 0;
    size_t kept = 0;
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = *conns[i];
      // One request per connection in flight at a time: responses come
      // back in request order with no per-connection reordering
      // machinery, and one client cannot flood the dispatch queue.
      if (!conn.dead && !conn.busy && !conn.input.empty()) {
        conn.busy = true;
        to_dispatch.push_back({conns[i], std::move(conn.input.front())});
        conn.input.pop_front();
      }
      if (conn.overlong && !conn.busy && conn.input.empty()) {
        conn.overlong = false;
        conn.outbox += error_line(
            "", str_format("serve: request line exceeds %zu bytes without "
                           "a newline; closing the connection",
                           kMaxRequestLineBytes));
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
    if (!to_dispatch.empty()) {
      metrics_.dispatch_backlog.fetch_add(to_dispatch.size(),
                                          std::memory_order_relaxed);
      {
        const LockGuard lock(dispatch_mutex_);
        for (DispatchItem& item : to_dispatch) {
          dispatch_queue_.push_back(std::move(item));
        }
      }
      // One wake per request: waking every idle executor for a single
      // item only has them contend for dispatch_mutex_ and sleep again.
      for (size_t k = 0; k < to_dispatch.size(); ++k) {
        dispatch_ready_.notify_one();
      }
    }
    metrics_.active.store(static_cast<int>(conns.size()),
                          std::memory_order_relaxed);
    metrics_.reading.store(reading, std::memory_order_relaxed);
    metrics_.processing.store(processing, std::memory_order_relaxed);
    metrics_.writing.store(writing, std::memory_order_relaxed);
  }

  stop_executors();
  {
    // Responses for connections that died mid-request: release them
    // (and the sockets they keep open) now, not at the next serve_on.
    const LockGuard lock(dispatch_mutex_);
    completions_.clear();
  }
  persist_cache();
  return exit_code;
}

int Server::serve() {
  // The backlog is a fixed burst buffer: admission is enforced by the
  // event loop itself (--max-connections, with explicit rejection), not
  // by hiding excess connections in a kernel queue sized to the cap.
  net::Listener listener(options_.port, kListenBacklog);
  std::fprintf(
      stderr,
      "bfpp serve: listening on 127.0.0.1:%d (backend %s, cache %zu "
      "entries%s%s, up to %d concurrent connections); send "
      "{\"type\":\"shutdown\"} to stop\n",
      listener.port(), to_string(options_.run.backend),
      options_.cache_capacity,
      options_.cache_file.empty() ? "" : ", persisted to ",
      options_.cache_file.c_str(), options_.max_connections);
  return serve_on(listener);
}

}  // namespace bfpp::api
