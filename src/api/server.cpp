#include "api/server.h"

#include <poll.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <exception>
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

// Requests of more cells than this are probed and rendered on a pool
// thread rather than on the event loop, so one large cached compare
// cannot stall every client while it renders.
constexpr size_t kMaxInlineCells = 64;

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
    probe.report = it->second->report;
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

std::optional<ReportCache::Tails> ReportCache::find_tails(
    std::span<const std::string_view> keys, RowFormat format) {
  const auto slot = static_cast<size_t>(format);
  Tails tails;
  tails.ends.reserve(keys.size());
  std::vector<std::pair<size_t, Report>> untailed;  // key index, a copy
  {
    const LockGuard lock(mutex_);
    std::vector<decltype(lru_)::iterator> nodes;
    nodes.reserve(keys.size());
    size_t bytes = 0;
    for (const std::string_view key : keys) {
      const auto it = index_.find(key);
      if (it == index_.end()) return std::nullopt;
      nodes.push_back(it->second);
      bytes += it->second->tails[slot].size();
    }
    tails.bytes.reserve(bytes);
    for (size_t i = 0; i < nodes.size(); ++i) {
      lru_.splice(lru_.begin(), lru_, nodes[i]);  // promote, in key order
      const std::string& tail = nodes[i]->tails[slot];
      if (tail.empty()) untailed.emplace_back(i, nodes[i]->report);
      tails.bytes += tail;
      tails.ends.push_back(tails.bytes.size());
    }
    counters_.hits += keys.size();
  }
  if (untailed.empty()) return tails;
  // Render the missing tails unlocked, splice them into the buffer at
  // their keys' places, then store them.
  std::vector<std::string> rendered;
  rendered.reserve(untailed.size());
  Tails filled;
  filled.ends.reserve(keys.size());
  size_t next = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (next < untailed.size() && untailed[next].first == i) {
      rendered.push_back(row_tail(std::move(untailed[next++].second), format));
      filled.bytes += rendered.back();
    } else {
      filled.bytes += tails[i];
    }
    filled.ends.push_back(filled.bytes.size());
  }
  const LockGuard lock(mutex_);
  for (size_t j = 0; j < untailed.size(); ++j) {
    const auto it = index_.find(keys[untailed[j].first]);
    if (it != index_.end() && it->second->tails[slot].empty()) {
      it->second->tails[slot] = std::move(rendered[j]);
    }
  }
  return filled;
}

void ReportCache::follow(const std::shared_ptr<InFlight>& entry,
                         Follower follower) {
  std::optional<Report> result;
  {
    const LockGuard lock(mutex_);
    if (!entry->done) {
      entry->followers.push_back(std::move(follower));
      return;
    }
    result = entry->result;
  }
  follower(std::move(result));
}

std::vector<ReportCache::Follower> ReportCache::finish_inflight_locked(
    const std::string& key, const std::optional<Report>& result) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return {};
  const std::shared_ptr<InFlight> entry = std::move(it->second);
  inflight_.erase(it);
  entry->result = result;
  entry->done = true;
  return std::move(entry->followers);
}

ReportCache::Handoff ReportCache::publish(const std::string& key,
                                          Report report) {
  std::vector<Follower> followers;
  {
    const LockGuard lock(mutex_);
    if (capacity_ > 0) {
      const InsertOutcome outcome = insert_locked(key, report);
      if (outcome.inserted) ++counters_.insertions;
      counters_.evictions += outcome.evicted;
    }
    // Followers are handed the result through the entry itself, so they
    // are served even when the cache is disabled or the new cell was
    // immediately evicted.
    followers = finish_inflight_locked(key, report);
  }
  return {std::move(followers), std::move(report)};
}

void ReportCache::abandon(const std::string& key) {
  std::vector<Follower> followers;
  {
    const LockGuard lock(mutex_);
    followers = finish_inflight_locked(key, std::nullopt);
  }
  for (Follower& follower : followers) follower(std::nullopt);
}

ReportCache::Handoff::Handoff(std::vector<Follower> followers, Report result)
    : followers_(std::move(followers)) {
  if (!followers_.empty()) result_ = std::move(result);
}

ReportCache::Handoff& ReportCache::Handoff::operator=(
    Handoff&& other) noexcept {
  std::swap(followers_, other.followers_);
  std::swap(result_, other.result_);
  return *this;
}

ReportCache::Handoff::~Handoff() {
  for (Follower& follower : followers_) follower(result_);
}

ReportCache::InsertOutcome ReportCache::insert_locked(const std::string& key,
                                                      Report report) {
  InsertOutcome outcome;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->report = std::move(report);
    it->second->tails = {};
    lru_.splice(lru_.begin(), lru_, it->second);
    return outcome;  // a refresh + promote, nothing new or evicted
  }
  lru_.push_front({key, std::move(report), {}});
  index_.emplace(lru_.front().key, lru_.begin());
  outcome.inserted = true;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
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
    entries.reserve(lru_.size());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      entries.emplace_back(it->key, it->report);
    }
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
  // Written through one StringWriter: keys are built on the event loop's
  // serial path.
  const model::TransformerSpec& model = scenario.model;
  std::string key;
  {
    StringWriter w(key,
                   320 + model.name.size() + scenario.cluster.name.size());
    w << "model=" << model.name << "#l" << model.n_layers << 'h'
      << model.hidden_size << 's' << model.seq_len << 'v' << model.vocab_size
      << "|cluster=" << scenario.cluster.name << '#'
      << scenario.cluster.total_gpus() << "gpus|cfg=";
    if (scenario.config.has_value()) {
      scenario.config->describe(w);
    } else {
      w << '-';
    }
    w << "|batch=" << scenario.batch_size << "|method="
      << (method.has_value() ? autotune::to_string(*method) : "-")
      << "|backend=" << to_string(options.backend) << "|kernel=";
    if (!options.kernel.has_value()) w << "default";
  }
  if (options.kernel.has_value()) {
    append_general(key, options.kernel->max_efficiency, 17) += '/';
    append_general(key, options.kernel->narrow_half, 17) += '/';
    append_general(key, options.kernel->rows_half, 17);
  }
  return key;
}

// ---- ServeStats wire format ----

namespace {

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

std::vector<std::string> names_from(const json::Value& v, const char* key) {
  if (v.is_array()) {
    std::vector<std::string> out;
    out.reserve(v.size());
    for (const json::Value& item : v.items()) {
      out.push_back(item.as_string(key));
    }
    check_config(!out.empty(), "serve: \"%s\" must not be an empty list", key);
    return out;
  }
  return {v.as_string(key)};
}

std::vector<int> ints_from(const json::Value& v, const char* key) {
  if (v.is_array()) {
    std::vector<int> out;
    out.reserve(v.size());
    for (const json::Value& item : v.items()) out.push_back(item.as_int(key));
    check_config(!out.empty(), "serve: \"%s\" must not be an empty list", key);
    return out;
  }
  return {v.as_int(key)};
}

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
    std::string echo;
    if (x == std::floor(x) && std::abs(x) <= 9007199254740992.0) {
      return append_int(echo, static_cast<long long>(x));
    }
    return append_general(echo, x, 17);
  }
  throw ConfigError("serve: \"id\" must be a string or a number");
}

// The number of cells a sweep's axis lists name: the product of their
// lengths (an unset axis counts once), exactly the cells
// SweepBuilder::walk visits. Stops counting past `cap`, so no product of
// 1 MiB of axis values can overflow.
size_t sweep_cells(const ScenarioAxes& axes, size_t cap) {
  size_t cells = 1;
  for (const AxisSpec& axis : scenario_axes()) {
    cells *= std::max<size_t>(axis.size(axes), 1);
    if (cells > cap) return cap + 1;
  }
  return cells;
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
  // a pool thread mid-request, a signal-ish control thread, a test.
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
  // Declared before the lock, so the followers run after it is released.
  ReportCache::Handoff followers;
  const LockGuard lock(journal_mutex_);
  // Append (and flush to the kernel) first, then publish: followers
  // are answered, and the cell becomes a hit, only once its line is in
  // the file. A kill -9 can tear at most this one line, which load()
  // skips.
  if (journal_ != nullptr && (std::fputs(line.c_str(), journal_) == EOF ||
                              std::fflush(journal_) == EOF)) {
    std::fprintf(stderr, "bfpp serve: cannot append to cache file '%s': %s\n",
                 options_.cache_file.c_str(), errno_string(errno).c_str());
  }
  followers = cache_.publish(key, report);
  // Compacting at the capacity bounds the file at twice the capacity in
  // entry lines: at most one full snapshot plus one capacity of appends.
  if (++journal_lines_ >= options_.cache_capacity) (void)compact_locked();
}

struct Server::Job {
  Request request;
  // Hands the rendered response on, once: to the event loop's completion
  // queue, or to handle()'s waiting caller.
  std::function<void(Job&, std::string)> deliver;
  std::chrono::steady_clock::time_point started;
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
  job->started = std::chrono::steady_clock::now();
  const std::vector<Cell>& cells = job->request.cells;
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
  const Cell& cell = job->request.cells[i];
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
      const Cell& followed = job->request.cells[i];
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
  const Cell& cell = job.request.cells[i];
  try {
    Report report = run_cell(*cell.built, cell.label, cell.method,
                             *job.engine, job.request.run);
    publish(cell.key, report);
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
  record_service(req.answered_in +
                 (std::chrono::steady_clock::now() - job.started));
  metrics_.executing.fetch_sub(1, std::memory_order_relaxed);
  job.deliver(job, std::move(response));
}

void Server::parse(const std::string& line, Request& req) const {
  const json::Value root = json::parse(line);
  req.id_echo = id_echo_from(root);
  req.run = options_.run;
  req.jobs = options_.jobs;

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
               "serve: unknown request type '%s' (run, search, sweep, "
               "compare, stats, metrics, list, ping or shutdown)",
               req.type.c_str());
  const bool sweeping = req.type == "sweep";
  CliOptions cli;  // the scenario, grid and method fields
  cli.command = req.type;

  for (const auto& [key, v] : root.members()) {
    if (key == "id" || key == "type") continue;
    // Most fields are axes: look them up before the other names.
    const AxisSpec* axis = find_axis(key);
    if (axis == nullptr && key == "what" && req.type == "list") {
      req.list_what = v.as_string("what");
      continue;
    }
    check_config(scenario_request,
                 "serve: field \"%s\" is not valid for a '%s' request",
                 key.c_str(), req.type.c_str());
    if (axis != nullptr && req.type != "compare") {
      // run simulates one exact configuration; silently ignoring a
      // search method would mislead (mirrors the CLI's pinned-flag
      // guards).
      check_config(axis->names != &ScenarioAxes::method || req.type != "run",
                   "serve: \"method\" applies to search and sweep "
                   "requests, not run");
      if (axis->ints != nullptr) {
        cli.axes.*axis->ints = sweeping
                                   ? ints_from(v, axis->name)
                                   : std::vector<int>{v.as_int(axis->name)};
      } else {
        cli.axes.*axis->names =
            sweeping ? names_from(v, axis->name)
                     : std::vector<std::string>{v.as_string(axis->name)};
      }
    } else if (key == "format") {
      const std::string format = to_lower(v.as_string("format"));
      check_config(format == "json" || format == "csv",
                   "serve: \"format\" must be \"json\" or \"csv\"");
      req.format = format == "csv" ? RowFormat::kCsv : RowFormat::kJson;
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
      cli.grid = v.as_string("grid");
    } else if (req.type == "compare") {
      // A compare grid is fully named; pinning scenario fields on top of
      // it would be silently ignored, so reject them.
      throw ConfigError(str_format(
          "serve: field \"%s\" is not valid for a 'compare' request "
          "(format, backend, kernel, jobs or grid)",
          key.c_str()));
    } else if (key == "preset") {
      cli.preset = v.as_string("preset");
    } else if (key == "megatron") {
      cli.megatron = v.as_bool("megatron");
    } else if (key == "no_dp_overlap") {
      cli.no_dp_overlap = v.as_bool("no_dp_overlap");
    } else if (key == "no_pp_overlap") {
      cli.no_pp_overlap = v.as_bool("no_pp_overlap");
    } else {
      throw ConfigError(str_format(
          "serve: unknown field \"%s\" for a '%s' request (see "
          "docs/PROTOCOL.md)",
          key.c_str(), req.type.c_str()));
    }
  }
  if (req.type == "list") {
    const std::string what = to_lower(req.list_what);
    check_config(what == "models" || what == "clusters" ||
                     what == "scenarios" || what == "all",
                 "serve: unknown list target '%s' (models, clusters, "
                 "scenarios or all)", req.list_what.c_str());
    req.list_what = what;
  }
  req.run.threads = req.jobs;

  if (req.type == "sweep" || req.type == "compare") {
    // A compare request is a named sweep: the grid comes from
    // compare_grid instead of axis fields, but the cells run through the
    // same cached, coalesced path, so a warm cache serves a repeated
    // compare without recomputing any cell. A sweep's size is checked
    // from its axis lists, before its walk starts.
    const auto add_cell = [&req](const ScenarioBuilder& scenario,
                                 const std::optional<autotune::Method>& method,
                                 const std::string& label) {
      // The builder is named by the label, so the built scenario's name
      // is the row's label: the one copy of it the cell keeps.
      Cell& cell = req.cells.emplace_back();
      cell.method = method;
      try {
        cell.built = scenario.build();
      } catch (const ConfigError& e) {
        cell.failed = failed_report(scenario.partial(), label, method,
                                    "[config] ", e.what());
        return;
      }
      cell.key = cache_key(*cell.built, method, req.run);
    };
    if (req.type == "compare") {
      const ScenarioGrid grid = compare_grid(cli.grid);
      req.cells.reserve(grid.size());
      for (const SweepCell& cell : grid.cells()) {
        add_cell(cell.scenario, cell.method, cell.label);
      }
    } else {
      const size_t cells = sweep_cells(cli.axes, kMaxCellsPerRequest);
      check_config(cells <= kMaxCellsPerRequest,
                   "serve: a sweep may name at most %zu cells (the product "
                   "of its axis lengths); split it into smaller sweeps",
                   kMaxCellsPerRequest);
      req.cells.reserve(cells);
      sweep_from_cli(std::move(cli)).walk(add_cell);
    }
  } else if (req.type == "run" || req.type == "search") {
    // One fully-validated cell. A structurally invalid scenario throws
    // here and becomes an {"ok":false} line; infeasibility discovered
    // during execution becomes a found=false report instead.
    Cell& cell = req.cells.emplace_back();
    cell.built = scenario_from_cli(cli);
    cell.label = cli.preset.empty() ? "serve" : "";
    if (req.type == "search") cell.method = search_method(cli);
    cell.key = cache_key(*cell.built, cell.method, req.run);
  }
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
  for (const Cell& cell : req.cells) {
    if (!cell.failed.has_value()) keys[n_keys++] = cell.key;
  }
  const std::optional<ReportCache::Tails> tails =
      cache_.find_tails(std::span(keys.data(), n_keys), req.format);
  if (!tails.has_value()) return false;
  size_t next_tail = 0;  // rows are appended in cell order
  append_rows_response(
      response, id_echo, req.type, req.cells.size(), req.format,
      [&](size_t i, std::string& out) {
        const Cell& cell = req.cells[i];
        if (cell.failed.has_value()) {
          append_row(out, *cell.failed, req.format);
        } else {
          append_row(out, shown_label(cell.label, *cell.built),
                     (*tails)[next_tail++], req.format);
        }
      });
  return true;
}

std::optional<Server::Request> Server::answer(const std::string& line,
                                              std::string& response) {
  response.clear();
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) {
    return std::nullopt;  // blank keep-alive line: no response, no count
  }
  ++requests_;
  const auto started = std::chrono::steady_clock::now();
  Request req;
  try {
    parse(line, req);
    if (!answer_from_cache(req, response)) {
      req.answered_in = std::chrono::steady_clock::now() - started;
      return req;
    }
  } catch (...) {
    response = current_error_line(req.id_echo);
  }
  record_service(std::chrono::steady_clock::now() - started);
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
