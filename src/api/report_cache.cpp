#include "api/report_cache.h"

#include <cerrno>
#include <exception>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/serialize.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// Bumped whenever the cache-file line format changes; a mismatched
// snapshot is ignored (cold start), never misread.
constexpr int kCacheFileVersion = 1;

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

ReportCache::ReportCache(size_t capacity, std::string file)
    // A cache that stores nothing leaves its file alone: a compaction
    // would overwrite the file with an empty snapshot.
    : capacity_(capacity), file_(capacity > 0 ? std::move(file) : "") {
  counters_.capacity = capacity;
  if (file_.empty()) return;
  bool compact = false;
  const size_t loaded = replay(file_, compact);
  if (loaded > 0) {
    std::fprintf(stderr,
                 "bfpp serve: warmed cache with %zu entr%s from '%s'\n",
                 loaded, loaded == 1 ? "y" : "ies", file_.c_str());
  }
  const LockGuard lock(journal_mutex_);
  if (!compact) {
    (void)compact_locked();
    return;
  }
  journal_.reset(open_journal(file_));
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

void ReportCache::publish(const std::string& key, Report report) {
  // Rendered unlocked; appended only when the cache journals.
  const std::string line =
      file_.empty() ? std::string() : cache_entry_line(key, report);
  std::vector<Follower> followers;
  {
    const LockGuard journal(journal_mutex_);
    // Append (and flush to the kernel) first, then insert: followers
    // are answered, and the cell becomes a hit, only once its line is in
    // the file. A kill -9 can tear at most this one line, which load()
    // skips.
    if (journal_ != nullptr &&
        (std::fputs(line.c_str(), journal_.get()) == EOF ||
         std::fflush(journal_.get()) == EOF)) {
      std::fprintf(stderr,
                   "bfpp serve: cannot append to cache file '%s': %s\n",
                   file_.c_str(), errno_string(errno).c_str());
    }
    {
      const LockGuard lock(mutex_);
      if (capacity_ > 0) {
        const InsertOutcome outcome = insert_locked(key, report);
        if (outcome.inserted) ++counters_.insertions;
        counters_.evictions += outcome.evicted;
      }
      // Followers are handed the result through the entry itself, so
      // they are served even when the cache is disabled or the new cell
      // was immediately evicted.
      followers = finish_inflight_locked(key, report);
    }
    // Compacting at the capacity bounds the file at twice the capacity
    // in entry lines: at most one full snapshot plus one capacity of
    // appends.
    if (!line.empty() && ++journal_lines_ >= capacity_) (void)compact_locked();
  }
  for (Follower& follower : followers) follower(report);
}

void ReportCache::abandon(const std::string& key) {
  std::vector<Follower> followers;
  {
    const LockGuard lock(mutex_);
    followers = finish_inflight_locked(key, std::nullopt);
  }
  for (Follower& follower : followers) follower(std::nullopt);
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

size_t ReportCache::load(const std::string& path) {
  bool compact = false;
  return replay(path, compact);
}

size_t ReportCache::replay(const std::string& path, bool& compact) {
  compact = false;
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
  const size_t entry_lines = lines.size() - 1;
  const LockGuard lock(mutex_);
  compact = header_entries == static_cast<double>(entry_lines) &&
            loaded == entry_lines && lru_.size() == entry_lines;
  return loaded;
}

bool ReportCache::compact() {
  const LockGuard lock(journal_mutex_);
  return compact_locked();
}

bool ReportCache::compact_locked() {
  if (file_.empty()) return false;
  // Reset even on failure: a failing save is retried after another
  // capacity's worth of appends, not on every insert.
  journal_lines_ = 0;
  if (!save(file_)) return false;
  // The rename replaced the file the old handle appends to; every later
  // append goes after the new snapshot.
  journal_.reset(open_journal(file_));
  return true;
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

}  // namespace bfpp::api
