// ReportCache (single-flight, row tails, the cache file), the Report
// wire form the cache file stores, and cache_key().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/report_cache.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/strings.h"

namespace bfpp::api {
namespace {

// ---- ReportCache ----

// Tagged in the label and in the row tails.
Report tagged_report(const std::string& tag) {
  Report r;
  r.scenario = tag;
  r.model = tag;
  r.found = true;
  return r;
}

// A plain lookup through the single-flight probe: the hit, or nullopt
// after releasing the leadership a miss appoints.
std::optional<Report> lookup(ReportCache& cache, const std::string& key) {
  ReportCache::Probe probe = cache.probe_or_lead(key);
  if (probe.leader) cache.abandon(key);
  return probe.report;
}

TEST(ReportCache, RoundTripsAndCounts) {
  ReportCache cache(4);
  EXPECT_FALSE(lookup(cache, "a").has_value());
  cache.publish("a", tagged_report("a"));
  const auto hit = lookup(cache, "a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->scenario, "a");
  const ReportCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.capacity, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ReportCache, EvictsLeastRecentlyUsedFirst) {
  ReportCache cache(2);
  cache.publish("a", tagged_report("a"));
  cache.publish("b", tagged_report("b"));
  EXPECT_TRUE(lookup(cache, "a").has_value());   // promote a: LRU order b, a
  cache.publish("c", tagged_report("c"));        // evicts b
  EXPECT_FALSE(lookup(cache, "b").has_value());
  EXPECT_TRUE(lookup(cache, "a").has_value());
  EXPECT_TRUE(lookup(cache, "c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ReportCache, PublishRefreshesExistingKeysWithoutEvicting) {
  ReportCache cache(2);
  cache.publish("a", tagged_report("a"));
  cache.publish("b", tagged_report("b"));
  cache.publish("a", tagged_report("a2"));  // refresh, promote a: LRU order b, a
  EXPECT_EQ(cache.stats().insertions, 2u);
  cache.publish("c", tagged_report("c"));  // evicts b, not a
  EXPECT_EQ(lookup(cache, "a")->scenario, "a2");
  EXPECT_FALSE(lookup(cache, "b").has_value());
}

TEST(ReportCache, CapacityZeroDisablesCaching) {
  ReportCache cache(0);
  cache.publish("a", tagged_report("a"));
  EXPECT_FALSE(lookup(cache, "a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---- ReportCache::find_tails (the event loop's all-or-nothing lookup) ----

std::optional<ReportCache::Tails> find_tails(
    ReportCache& cache, const std::vector<std::string_view>& keys,
    RowFormat format) {
  return cache.find_tails(keys, format);
}

// Whether every key hits, through the JSON tails.
bool all_cached(ReportCache& cache, const std::vector<std::string_view>& keys) {
  return find_tails(cache, keys, RowFormat::kJson).has_value();
}

TEST(ReportCache, FindTailsHitPromotesInKeyOrderAndCountsOneHitPerKey) {
  ReportCache cache(3);
  cache.publish("a", tagged_report("a"));
  cache.publish("b", tagged_report("b"));
  cache.publish("c", tagged_report("c"));  // LRU order a, b, c
  for (const RowFormat format : {RowFormat::kJson, RowFormat::kCsv}) {
    const auto tails = find_tails(cache, {"b", "a"}, format);
    ASSERT_TRUE(tails.has_value());
    ASSERT_EQ(tails->ends.size(), 2u);
    EXPECT_EQ((*tails)[0], row_tail(tagged_report("b"), format));
    EXPECT_EQ((*tails)[1], row_tail(tagged_report("a"), format));
  }
  const ReportCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.inflight, 0u);
  // b then a were promoted: LRU order c, b, a, so c goes first, then b.
  cache.publish("d", tagged_report("d"));
  EXPECT_FALSE(all_cached(cache, {"c"}));
  cache.publish("e", tagged_report("e"));
  EXPECT_FALSE(all_cached(cache, {"b"}));
  EXPECT_TRUE(all_cached(cache, {"a", "d", "e"}));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ReportCache, FindTailsPartialHitChangesNothing) {
  ReportCache cache(2);
  cache.publish("a", tagged_report("a"));
  cache.publish("b", tagged_report("b"));  // LRU order a, b
  const ReportCache::Stats before = cache.stats();
  // "a" is cached, "x" is not: no hit is counted and "a" is not promoted.
  EXPECT_FALSE(find_tails(cache, {"a", "x"}, RowFormat::kCsv).has_value());
  EXPECT_FALSE(all_cached(cache, {"a", "x"}));
  const ReportCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.coalesced, before.coalesced);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.inflight, 0u);  // "x" was not claimed
  // "a" is still the LRU entry, so the next insert evicts it, not "b".
  cache.publish("c", tagged_report("c"));
  EXPECT_FALSE(all_cached(cache, {"a"}));
  EXPECT_TRUE(all_cached(cache, {"b", "c"}));
  // Nobody leads "x": the first single-flight probe is appointed leader.
  EXPECT_TRUE(cache.probe_or_lead("x").leader);
  cache.abandon("x");
}

TEST(ReportCache, FindTailsTreatsAnInFlightKeyAsNotCached) {
  ReportCache cache(4);
  cache.publish("a", tagged_report("a"));
  ASSERT_TRUE(cache.probe_or_lead("b").leader);  // b is being computed
  EXPECT_FALSE(all_cached(cache, {"a", "b"}));
  EXPECT_FALSE(all_cached(cache, {"b"}));
  ReportCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);     // the leader's probe only
  EXPECT_EQ(s.coalesced, 0u);  // find_tails never joins a flight
  EXPECT_EQ(s.inflight, 1u);
  cache.publish("b", tagged_report("b"));
  EXPECT_TRUE(all_cached(cache, {"a", "b"}));
  s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ReportCache, FindTailsRendersFromTheCurrentReportAfterARefresh) {
  ReportCache cache(2);
  cache.publish("a", tagged_report("a"));
  EXPECT_EQ((*find_tails(cache, {"a"}, RowFormat::kJson))[0],
            row_tail(tagged_report("a"), RowFormat::kJson));
  // A refresh drops the stored tails with the Report they came from; a
  // probe's Report copy never carries or fills one.
  cache.publish("a", tagged_report("a2"));
  EXPECT_EQ(lookup(cache, "a")->model, "a2");
  for (const RowFormat format : {RowFormat::kJson, RowFormat::kCsv}) {
    EXPECT_EQ((*find_tails(cache, {"a"}, format))[0],
              row_tail(tagged_report("a2"), format));
  }
}

TEST(ReportCache, FindTailsSplicesStoredAndFreshTailsInKeyOrder) {
  ReportCache cache(4);
  for (const char* key : {"a", "b", "c"}) {
    cache.publish(key, tagged_report(key));
  }
  // b's tail is stored by this lookup; a's and c's are rendered by the
  // next one, around it, and are stored too.
  ASSERT_TRUE(all_cached(cache, {"b"}));
  for (int round = 0; round < 2; ++round) {
    const auto tails = find_tails(cache, {"a", "b", "c"}, RowFormat::kJson);
    ASSERT_TRUE(tails.has_value());
    std::string expected;
    for (const char* key : {"a", "b", "c"}) {
      expected += row_tail(tagged_report(key), RowFormat::kJson);
    }
    EXPECT_EQ(tails->bytes, expected);
    EXPECT_EQ((*tails)[1], row_tail(tagged_report("b"), RowFormat::kJson));
    EXPECT_EQ(tails->ends.back(), expected.size());
  }
}

// ---- Single-flight coalescing (ReportCache layer) ----

TEST(ReportCache, SingleFlightLeaderComputesOnceFollowersCoalesce) {
  ReportCache cache(8);
  // First prober is appointed leader; the cell is now in flight.
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);
  EXPECT_EQ(cache.stats().inflight, 1u);

  constexpr size_t kFollowers = 3;
  std::vector<std::optional<Report>> got(kFollowers);
  std::vector<int> calls(kFollowers, 0);
  const std::thread::id publisher = std::this_thread::get_id();
  for (size_t i = 0; i < kFollowers; ++i) {
    ReportCache::Probe probe = cache.probe_or_lead("cell");
    ASSERT_NE(probe.waiting, nullptr);
    // Registering returns at once: no thread is held while it waits.
    cache.follow(probe.waiting, [&, i](std::optional<Report> result) {
      ++calls[i];
      EXPECT_EQ(std::this_thread::get_id(), publisher);
      // Called after the cache lock is released: locking it again here
      // must not deadlock.
      EXPECT_EQ(cache.stats().inflight, 0u);
      got[i] = std::move(result);
    });
  }
  EXPECT_EQ(calls, std::vector<int>(kFollowers, 0));
  cache.publish("cell", tagged_report("computed"));
  EXPECT_EQ(calls, std::vector<int>(kFollowers, 1));
  for (const std::optional<Report>& report : got) {
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->scenario, "computed");
  }
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // only the leader missed
  EXPECT_EQ(stats.coalesced, kFollowers);
  EXPECT_EQ(stats.insertions, 1u);  // the cell was computed exactly once
  EXPECT_EQ(stats.hits, 0u);        // followers are not counted as hits
  EXPECT_EQ(stats.inflight, 0u);    // the entry retired with the publish
  // After the flight lands, the cell is a plain LRU hit.
  EXPECT_EQ(lookup(cache, "cell")->scenario, "computed");
}

TEST(ReportCache, FollowingARetiredEntryIsAnsweredAtOnce) {
  // A probe that saw the cell in flight may follow() only after the
  // leader published or abandoned: the follower is called right away,
  // on the following thread, with what the entry retired with.
  ReportCache cache(8);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);
  ReportCache::Probe late = cache.probe_or_lead("cell");
  ASSERT_NE(late.waiting, nullptr);
  cache.publish("cell", tagged_report("computed"));
  std::optional<Report> got;
  cache.follow(late.waiting, [&](std::optional<Report> r) { got = r; });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->scenario, "computed");

  ASSERT_TRUE(cache.probe_or_lead("gone").leader);
  ReportCache::Probe orphan = cache.probe_or_lead("gone");
  ASSERT_NE(orphan.waiting, nullptr);
  cache.abandon("gone");
  bool called = false;
  cache.follow(orphan.waiting, [&](std::optional<Report> r) {
    called = true;
    EXPECT_FALSE(r.has_value());
  });
  EXPECT_TRUE(called);
}

TEST(ReportCache, AbandonedLeaderReleasesFollowerToRelead) {
  ReportCache cache(8);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);

  std::optional<Report> followed = tagged_report("sentinel");
  bool called = false;
  bool reled = false;
  ReportCache::Probe probe = cache.probe_or_lead("cell");
  ASSERT_NE(probe.waiting, nullptr);
  cache.follow(probe.waiting, [&](std::optional<Report> result) {
    called = true;
    followed = std::move(result);
    if (followed.has_value()) return;
    // The leader gave up: the follower re-probes, is appointed the new
    // leader, and computes the cell itself - no permanent wait.
    ReportCache::Probe again = cache.probe_or_lead("cell");
    reled = again.leader;
    if (reled) cache.publish("cell", tagged_report("recomputed"));
  });
  EXPECT_EQ(cache.stats().coalesced, 1u);
  cache.abandon("cell");

  EXPECT_TRUE(called);
  EXPECT_FALSE(followed.has_value());  // answered with "no result"
  EXPECT_TRUE(reled);
  EXPECT_EQ(lookup(cache, "cell")->scenario, "recomputed");
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // original leader + the re-lead
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ReportCache, CoalescingServesFollowersEvenWithCachingDisabled) {
  // Followers are handed the result through the in-flight entry itself,
  // so single-flight works even at capacity 0 (nothing is ever stored).
  ReportCache cache(0);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);
  std::optional<Report> followed;
  ReportCache::Probe probe = cache.probe_or_lead("cell");
  ASSERT_NE(probe.waiting, nullptr);
  cache.follow(probe.waiting,
               [&](std::optional<Report> result) { followed = result; });
  cache.publish("cell", tagged_report("once"));
  ASSERT_TRUE(followed.has_value());
  EXPECT_EQ(followed->scenario, "once");
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(ReportCache, AbandonWithManyFollowersReleadsExactlyOnce) {
  // The abandon edge case at fan-out: several followers are registered
  // when the leader gives up. Every follower must be answered with
  // nullopt, and the ensuing re-probes must appoint exactly one new
  // leader - the rest follow the re-lead's in-flight entry.
  ReportCache cache(8);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);

  constexpr size_t kFollowers = 4;
  int releads = 0;
  int answered_empty = 0;
  std::vector<std::optional<Report>> got(kFollowers);
  for (size_t i = 0; i < kFollowers; ++i) {
    ReportCache::Probe probe = cache.probe_or_lead("cell");
    ASSERT_NE(probe.waiting, nullptr);
    cache.follow(probe.waiting, [&, i](std::optional<Report> result) {
      EXPECT_FALSE(result.has_value());
      ++answered_empty;
      // Server retry: re-probe; the one appointed leader computes it
      // (published below), the others follow that leader.
      ReportCache::Probe again = cache.probe_or_lead("cell");
      if (again.leader) {
        ++releads;
        got[i] = tagged_report("recomputed");
      } else {
        ASSERT_NE(again.waiting, nullptr);
        cache.follow(again.waiting,
                     [&got, i](std::optional<Report> r) { got[i] = r; });
      }
    });
  }
  EXPECT_EQ(cache.stats().coalesced, kFollowers);
  cache.abandon("cell");
  EXPECT_EQ(answered_empty, static_cast<int>(kFollowers));
  EXPECT_EQ(releads, 1);  // exactly one follower re-led
  cache.publish("cell", tagged_report("recomputed"));

  for (const std::optional<Report>& report : got) {
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->scenario, "recomputed");
  }
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // abandoned leader + the one re-lead
  EXPECT_EQ(stats.coalesced, kFollowers + kFollowers - 1);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(lookup(cache, "cell")->scenario, "recomputed");
}

TEST(ReportCache, SaveRacesSingleFlightAtCapacityZero) {
  // save() walks the LRU under the cache mutex while probe_or_lead /
  // follow / publish mutate the single-flight table on other threads. At
  // --cache-size 0 nothing is ever stored, so every round is a fresh
  // leader appointment racing the snapshot loop - the regression
  // surface for iterator invalidation or a snapshot taken mid-flight.
  // (TSan CI runs this test; locally it is a liveness + stats check.)
  ReportCache cache(0);
  const std::string path = testing::TempDir() + "/race_cache.jsonl";
  std::atomic<bool> stop{false};
  std::thread saver([&] {
    while (!stop.load()) EXPECT_TRUE(cache.save(path));
  });

  constexpr uint64_t kRounds = 100;
  for (uint64_t round = 0; round < kRounds; ++round) {
    const std::string key = "cell-" + std::to_string(round);
    ASSERT_TRUE(cache.probe_or_lead(key).leader);
    std::optional<Report> followed;
    std::thread follower([&cache, &followed, &key] {
      ReportCache::Probe probe = cache.probe_or_lead(key);
      ASSERT_NE(probe.waiting, nullptr);
      cache.follow(probe.waiting,
                   [&followed](std::optional<Report> r) { followed = r; });
    });
    // The follower is provably registered before the leader publishes.
    follower.join();
    ASSERT_EQ(cache.stats().coalesced, round + 1);
    cache.publish(key, tagged_report(key));
    ASSERT_TRUE(followed.has_value());
    EXPECT_EQ(followed->scenario, key);
  }
  stop.store(true);
  saver.join();

  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);     // capacity 0: nothing ever stored
  EXPECT_EQ(stats.insertions, 0u);  // publish() is a no-op insert
  EXPECT_EQ(stats.misses, kRounds);
  EXPECT_EQ(stats.coalesced, kRounds);
  EXPECT_EQ(stats.inflight, 0u);  // every flight retired
  // The concurrent snapshots were all of an empty cache, and the final
  // file is a loadable (empty) snapshot, not torn output.
  ReportCache reloaded(8);
  EXPECT_EQ(reloaded.load(path), 0u);
  std::remove(path.c_str());
}

// ---- Report wire form + cache persistence ----

// A Report with every field populated, including awkward doubles (no
// finite decimal expansion, tiny magnitudes) and the optional frugal
// block, so the wire round trip is exercised end to end.
Report full_report() {
  Report r;
  r.scenario = "cache/round,trip \"quoted\"";
  r.model = "52B";
  r.cluster = "DGX-1 V100 (InfiniBand)";
  r.method = "Breadth-first";
  r.n_gpus = 64;
  r.batch_size = 16;
  r.found = true;
  r.config.n_pp = 8;
  r.config.n_tp = 8;
  r.config.n_dp = 1;
  r.config.s_mb = 1;
  r.config.n_mb = 16;
  r.config.n_loop = 4;
  r.config.schedule = parallel::ScheduleKind::kBreadthFirst;
  r.config.sharding = parallel::DpSharding::kFull;
  r.config.overlap_dp = false;
  r.result.batch_time = 1.0 / 3.0;
  r.result.throughput_per_gpu = 3.6281234567891234e13;
  r.result.utilization = 0.2903225806451613;
  r.result.compute_idle_fraction = 1e-9;
  r.memory.state_bytes = 1.5e10;
  r.memory.buffer_bytes = 2.0 / 7.0;
  r.memory.activation_bytes = 3.25e8;
  r.memory.checkpoint_bytes = 0.0;
  r.memory.p2p_buffer_bytes = 1.25e6;
  r.memory_min = r.memory;
  r.memory_min.state_bytes = 2.5e8;
  r.evaluated = 97;
  r.infeasible = 31;
  Report::Frugal frugal;
  frugal.config = r.config;
  frugal.config.n_loop = 2;
  frugal.result = r.result;
  frugal.result.batch_time = 0.7071067811865476;
  frugal.memory_min = r.memory_min;
  r.frugal = frugal;
  return r;
}

Report negative_report() {
  Report r;
  r.scenario = "cache/negative";
  r.model = "52B";
  r.cluster = "DGX-1 V100 (InfiniBand)";
  r.batch_size = 64;
  r.n_gpus = 64;
  r.found = false;
  r.error = "[oom] 52B does not fit on one GPU";
  return r;
}

TEST(ReportWire, RoundTripsEveryFieldLosslessly) {
  for (const Report& original : {full_report(), negative_report()}) {
    const std::string wire = original.to_wire();
    EXPECT_EQ(wire.find('\n'), std::string::npos);  // one protocol line
    const Report copy = Report::from_wire(json::parse(wire));
    // Bit-exact doubles (the %.17g contract): every emitter must render
    // the reloaded Report byte-for-byte like the original.
    EXPECT_EQ(copy.to_wire(), wire);
    EXPECT_EQ(copy.to_json(), original.to_json());
    EXPECT_EQ(copy.to_csv_row(), original.to_csv_row());
    EXPECT_EQ(copy.config, original.config);
    EXPECT_EQ(copy.error, original.error);
    EXPECT_EQ(copy.frugal.has_value(), original.frugal.has_value());
  }
}

TEST(ReportWire, FromWireRejectsTruncatedValues) {
  EXPECT_THROW((void)Report::from_wire(json::parse("[1,2]")), ConfigError);
  EXPECT_THROW((void)Report::from_wire(json::parse("{\"scenario\":\"x\"}")),
               ConfigError);
  // A result array of the wrong arity is corruption, not a report.
  std::string wire = full_report().to_wire();
  const size_t pos = wire.find("\"result\":[");
  wire.replace(pos, std::string("\"result\":[").size(), "\"result\":[1,");
  EXPECT_THROW((void)Report::from_wire(json::parse(wire)), ConfigError);
}

TEST(ReportWire, FromWireRejectsNonFiniteNumbers) {
  // json::parse reads 1e999 as infinity, which to_wire() would write back
  // as "inf", a line no load can read: the entry is corrupt instead.
  const std::string field = "\"result\":[";
  std::string wire = full_report().to_wire();
  const size_t pos = wire.find(field) + field.size();
  wire.replace(pos, wire.find(',', pos) - pos, "1e999");
  EXPECT_THROW((void)Report::from_wire(json::parse(wire)), ConfigError);
}

TEST(ReportCache, SaveLoadRoundTripsEntriesRecencyOrderAndNegatives) {
  const std::string path =
      testing::TempDir() + "bfpp_cache_roundtrip.jsonl";
  std::remove(path.c_str());
  ReportCache cache(4);
  cache.publish("b", full_report());
  cache.publish("neg", negative_report());
  cache.publish("a", tagged_report("a"));
  (void)lookup(cache, "b");  // recency (MRU first): b, a, neg
  ASSERT_TRUE(cache.save(path));

  ReportCache loaded(3);
  EXPECT_EQ(loaded.load(path), 3u);
  const ReportCache::Stats stats = loaded.stats();
  EXPECT_EQ(stats.entries, 3u);
  // Loaded entries are not this process's traffic: counters stay zero.
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // The negative (found=false) cell survived with its reason.
  const std::optional<Report> neg = lookup(loaded, "neg");
  ASSERT_TRUE(neg.has_value());
  EXPECT_FALSE(neg->found);
  EXPECT_EQ(neg->error, "[oom] 52B does not fit on one GPU");
  // Recency order survived the round trip: "neg" was LRU at save time,
  // and get("neg") above promoted it, leaving "a" as LRU now.
  loaded.publish("d", tagged_report("d"));  // beyond capacity: evicts LRU
  EXPECT_FALSE(lookup(loaded, "a").has_value());
  EXPECT_TRUE(lookup(loaded, "b").has_value());
  std::remove(path.c_str());
}

TEST(ReportCache, LoadToleratesMissingGarbageAndPartiallyCorruptFiles) {
  const std::string dir = testing::TempDir();
  ReportCache cache(8);
  // Missing file: a silent cold start.
  EXPECT_EQ(cache.load(dir + "bfpp_cache_does_not_exist.jsonl"), 0u);

  // Garbage and version-mismatched files are ignored wholesale.
  const std::string garbage = dir + "bfpp_cache_garbage.jsonl";
  ASSERT_TRUE(serialize::write_file_atomic(garbage, "not a cache\x01\xff\n"));
  EXPECT_EQ(cache.load(garbage), 0u);
  ASSERT_TRUE(serialize::write_file_atomic(
      garbage, "{\"bfpp_report_cache\":999,\"entries\":1}\n{\"key\":1}\n"));
  EXPECT_EQ(cache.load(garbage), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // A corrupt entry line is skipped; intact neighbours still load.
  const std::string partial = dir + "bfpp_cache_partial.jsonl";
  ReportCache donor(4);
  donor.publish("k1", tagged_report("k1"));
  donor.publish("k2", full_report());
  ASSERT_TRUE(donor.save(partial));
  std::optional<std::string> content = serialize::read_file(partial);
  ASSERT_TRUE(content.has_value());
  std::vector<std::string> lines = serialize::split_lines(*content);
  ASSERT_EQ(lines.size(), 3u);
  lines.insert(lines.begin() + 2, "{\"key\":\"kx\",\"report\":{\"trunc");
  ASSERT_TRUE(serialize::write_file_atomic(
      partial, join(lines, "\n") + "\n"));
  ReportCache repaired(8);
  EXPECT_EQ(repaired.load(partial), 2u);
  EXPECT_TRUE(lookup(repaired, "k1").has_value());
  EXPECT_TRUE(lookup(repaired, "k2").has_value());
  EXPECT_FALSE(lookup(repaired, "kx").has_value());
  std::remove(garbage.c_str());
  std::remove(partial.c_str());
}

// ---- cache_key ----

Scenario fig5a_scenario() {
  return ScenarioBuilder()
      .model("52b")
      .cluster("dgx1-v100-ib")
      .pp(8)
      .tp(8)
      .nmb(16)
      .schedule("bf")
      .loop(4)
      .build();
}

TEST(CacheKey, IdenticalCellsShareAKey) {
  EXPECT_EQ(cache_key(fig5a_scenario(), std::nullopt, {}),
            cache_key(fig5a_scenario(), std::nullopt, {}));
}

TEST(CacheKey, LabelAndThreadBudgetAreExcluded) {
  // The cosmetic name and the (result-invariant) thread budget must not
  // split the cache: a sweep cell can serve a later run request.
  Scenario relabelled = fig5a_scenario();
  relabelled.name = "some/sweep/label";
  RunOptions threads;
  threads.threads = 7;
  EXPECT_EQ(cache_key(fig5a_scenario(), std::nullopt, {}),
            cache_key(relabelled, std::nullopt, threads));
}

TEST(CacheKey, BackendsKernelsConfigsAndMethodsSplitTheKey) {
  const Scenario s = fig5a_scenario();
  const std::string base = cache_key(s, std::nullopt, {});

  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  EXPECT_NE(base, cache_key(s, std::nullopt, analytic));

  RunOptions kernel;
  kernel.kernel = hw::KernelModel{};
  kernel.kernel->max_efficiency = 0.5;
  EXPECT_NE(base, cache_key(s, std::nullopt, kernel));
  RunOptions kernel2 = kernel;
  kernel2.kernel->max_efficiency = 0.51;
  EXPECT_NE(cache_key(s, std::nullopt, kernel),
            cache_key(s, std::nullopt, kernel2));

  Scenario other = ScenarioBuilder()
                       .model("52b")
                       .cluster("dgx1-v100-ib")
                       .pp(8)
                       .tp(8)
                       .nmb(32)  // different micro-batch count
                       .schedule("bf")
                       .loop(4)
                       .build();
  EXPECT_NE(base, cache_key(other, std::nullopt, {}));

  // Overlap capability flags are part of describe(), hence of the key.
  Scenario no_overlap = ScenarioBuilder()
                            .model("52b")
                            .cluster("dgx1-v100-ib")
                            .pp(8)
                            .tp(8)
                            .nmb(16)
                            .schedule("bf")
                            .loop(4)
                            .overlap(false, true)
                            .build();
  EXPECT_NE(base, cache_key(no_overlap, std::nullopt, {}));

  EXPECT_NE(base,
            cache_key(s, autotune::Method::kBreadthFirst, {}));
  EXPECT_NE(cache_key(s, autotune::Method::kBreadthFirst, {}),
            cache_key(s, autotune::Method::kDepthFirst, {}));

  // A resized cluster shares the preset display name but not the key.
  Scenario resized = ScenarioBuilder()
                         .model("52b")
                         .cluster("dgx1-v100-ib:16")
                         .pp(8)
                         .tp(8)
                         .nmb(16)
                         .schedule("bf")
                         .loop(4)
                         .build();
  EXPECT_NE(base, cache_key(resized, std::nullopt, {}));
}

// The forms cache_key() and describe() printed through str_format before
// they appended into one buffer. Keys are persisted in cache files and
// describe() is on the wire, so the appended forms must match byte for
// byte.
std::string formatted_describe(const parallel::ParallelConfig& c) {
  return str_format("%s pp%d tp%d dp%d smb%d nmb%d loop%d %s%s%s",
                    parallel::to_string(c.schedule), c.n_pp, c.n_tp, c.n_dp,
                    c.s_mb, c.n_mb, c.n_loop, parallel::to_string(c.sharding),
                    c.overlap_dp ? "" : " no-dp-overlap",
                    c.overlap_pp ? "" : " no-pp-overlap");
}

std::string formatted_key(const Scenario& scenario,
                          const std::optional<autotune::Method>& method,
                          const RunOptions& options) {
  const std::string cfg = scenario.config.has_value()
                              ? formatted_describe(*scenario.config)
                              : "-";
  std::string kernel = "default";
  if (options.kernel.has_value()) {
    kernel.clear();
    append_general(kernel, options.kernel->max_efficiency, 17) += '/';
    append_general(kernel, options.kernel->narrow_half, 17) += '/';
    append_general(kernel, options.kernel->rows_half, 17);
  }
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

TEST(CacheKey, AppendedKeysMatchTheFormattedForm) {
  using parallel::ScheduleKind;
  const ScheduleKind kinds[] = {
      ScheduleKind::kGpipe,         ScheduleKind::kOneFOneB,
      ScheduleKind::kDepthFirst,    ScheduleKind::kBreadthFirst,
      ScheduleKind::kOneFOneBAsync, ScheduleKind::kUnbalanced,
      ScheduleKind::kVSchedule,     ScheduleKind::kTwoBP,
  };
  const parallel::DpSharding shardings[] = {parallel::DpSharding::kNone,
                                            parallel::DpSharding::kPartial,
                                            parallel::DpSharding::kFull};
  const autotune::Method methods[] = {
      autotune::Method::kBreadthFirst,  autotune::Method::kDepthFirst,
      autotune::Method::kNonLooped,     autotune::Method::kNoPipeline,
      autotune::Method::kOneFOneBAsync, autotune::Method::kUnbalanced,
      autotune::Method::kVSchedule,     autotune::Method::kTwoBP,
  };
  const Backend backends[] = {Backend::kSimulator, Backend::kAnalytic,
                              Backend::kThreaded};
  const std::vector<std::string> models = model_names();
  const std::vector<std::string> clusters = cluster_names();
  Rng rng(0xca5e);
  auto any_int = [&rng] {
    // Small grid values most of the time, and the full int range.
    return rng.uniform() < 0.8
               ? static_cast<int>(rng.uniform_index(64))
               : static_cast<int>(rng.uniform_index(1ULL << 32) -
                                  (1ULL << 31));
  };
  for (int i = 0; i < 400; ++i) {
    Scenario s;
    s.name = "label " + std::to_string(i);
    s.model = lookup_model(models[rng.uniform_index(models.size())]);
    s.model.n_layers = any_int();
    s.cluster = lookup_cluster(clusters[rng.uniform_index(clusters.size())]);
    s.cluster.n_nodes = 1 + static_cast<int>(rng.uniform_index(64));
    s.batch_size = any_int();
    if (rng.uniform() < 0.75) {
      parallel::ParallelConfig c;
      c.schedule = kinds[rng.uniform_index(std::size(kinds))];
      c.sharding = shardings[rng.uniform_index(std::size(shardings))];
      c.n_pp = any_int();
      c.n_tp = any_int();
      c.n_dp = any_int();
      c.s_mb = any_int();
      c.n_mb = any_int();
      c.n_loop = any_int();
      c.overlap_dp = rng.uniform() < 0.5;
      c.overlap_pp = rng.uniform() < 0.5;
      EXPECT_EQ(c.describe(), formatted_describe(c));
      s.config = c;
    }
    std::optional<autotune::Method> method;
    if (rng.uniform() < 0.3) {
      method = methods[rng.uniform_index(std::size(methods))];
    }
    RunOptions options;
    options.backend = backends[rng.uniform_index(std::size(backends))];
    if (rng.uniform() < 0.4) {
      options.kernel = hw::KernelModel{};
      options.kernel->max_efficiency = rng.uniform();
      options.kernel->narrow_half = 1e4 * rng.uniform();
      options.kernel->rows_half = rng.uniform() < 0.5 ? 0.0 : 1e-3 * i;
    }
    ASSERT_EQ(cache_key(s, method, options), formatted_key(s, method, options))
        << i;
  }
}

}  // namespace
}  // namespace bfpp::api
