// ReportCache, the serve cache of finished Reports, and cache_key(),
// the identity it keys them by.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
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
#include "common/thread_annotations.h"

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
  // `file` is the cache file (`bfpp serve --cache-file`; "" = in memory
  // only): a snapshot plus an append-only journal of every cell
  // published since, which the cache loads and appends to (at capacity
  // 0 it is not touched). A clean snapshot is appended to as it is, so a
  // warm start costs no rewrite; anything else - no file, a journal
  // tail, torn or duplicate lines, more entries than this capacity keeps
  // - is compacted first, so appends never land after a torn line.
  explicit ReportCache(size_t capacity = 1024, std::string file = {});

  // A follower's callback: called once with the leader's Report, or with
  // nullopt when the leader abandoned (the follower should
  // probe_or_lead() again; it may be appointed the new leader). It runs
  // on the thread that publishes or abandons, after every lock of the
  // cache is released, and must not throw.
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

  // Leader-side completion: appends the cell to the cache file when one
  // is open, then inserts (or refreshes) the Report under `key` as the
  // MRU entry, evicting LRU entries beyond capacity (no-op at capacity
  // 0), and retires the in-flight entry. Its followers are handed the
  // Report once both locks are released. Followers are served from the
  // entry itself, so they receive the result even when the cache is full
  // or disabled. Valid without a preceding probe_or_lead() too: a plain
  // insert.
  void publish(const std::string& key, Report report)
      BFPP_EXCLUDES(journal_mutex_);

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
  // process's traffic). Returns the number of entry lines loaded.
  size_t load(const std::string& path);

  // Compacts the cache file now: rewrites it as one snapshot of the
  // cache (atomic temp + rename) and restarts the journal after it.
  // Returns false when the cache has no file (or capacity 0) or the save
  // failed.
  bool compact() BFPP_EXCLUDES(journal_mutex_);

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

  // load(), which also sets `compact` to whether the file is exactly one
  // snapshot of what the cache now holds: a valid header whose "entries"
  // count matches its entry lines, each of which loaded into a distinct
  // retained entry.
  size_t replay(const std::string& path, bool& compact);

  // compact() with journal_mutex_ held.
  bool compact_locked() BFPP_REQUIRES(journal_mutex_);

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

  // journal_mutex_ guards the append handle on file_ and the count of
  // lines appended since the last compaction. An append and the insert
  // it records happen under it together, and so does a compaction, so
  // no cell can fall between a snapshot and the file that replaces it.
  // Lock order: journal_mutex_ is taken *before* mutex_.
  const std::string file_;  // "" = in memory only
  Mutex journal_mutex_;
  struct Fclose {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  std::unique_ptr<std::FILE, Fclose> journal_ BFPP_GUARDED_BY(journal_mutex_);
  size_t journal_lines_ BFPP_GUARDED_BY(journal_mutex_) = 0;
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

}  // namespace bfpp::api
