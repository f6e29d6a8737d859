// Tests for the `bfpp serve` experiment server (api/server.h): the LRU
// ReportCache (incl. its save/load persistence), its key construction,
// the line-delimited JSON protocol, cached-response byte identity, the
// JSON request parser (common/json.h), the stdio / TCP transports and
// the concurrent-client accept loop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/cli.h"
#include "api/server.h"
#include "common/error.h"
#include "common/json.h"
#include "common/serialize.h"
#include "common/socket.h"
#include "common/strings.h"

namespace bfpp::api {
namespace {

// ---- common/json.h ----

TEST(Json, ParsesScalarsArraysAndObjects) {
  const json::Value v = json::parse(
      R"({"s":"hi","i":8,"f":2.5,"t":true,"n":null,"a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("s")->as_string(), "hi");
  EXPECT_EQ(v.get("i")->as_int(), 8);
  EXPECT_DOUBLE_EQ(v.get("f")->as_number(), 2.5);
  EXPECT_TRUE(v.get("t")->as_bool());
  EXPECT_TRUE(v.get("n")->is_null());
  ASSERT_EQ(v.get("a")->size(), 3u);
  EXPECT_EQ(v.get("a")->items()[2].as_int(), 3);
  EXPECT_EQ(v.get("o")->get("k")->as_string(), "v");
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  const json::Value v =
      json::parse(R"({"e":"a\"b\\c\nd\u0041\u00e9\ud83d\ude00"})");
  EXPECT_EQ(v.get("e")->as_string(), "a\"b\\c\ndA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), ConfigError);
  EXPECT_THROW(json::parse("{"), ConfigError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), ConfigError);
  EXPECT_THROW(json::parse("{\"a\":1} extra"), ConfigError);
  EXPECT_THROW(json::parse("{'a':1}"), ConfigError);
  EXPECT_THROW(json::parse("nul"), ConfigError);
  EXPECT_THROW(json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW(json::parse("01x"), ConfigError);
  EXPECT_THROW(json::parse(std::string(100, '[')), ConfigError);  // depth cap
  EXPECT_THROW(json::parse("{\"a\":\"\\ud800\"}"), ConfigError);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const json::Value v = json::parse(R"({"s":"x","f":2.5})");
  EXPECT_THROW((void)v.get("s")->as_int("s"), ConfigError);
  EXPECT_THROW((void)v.get("f")->as_int("f"), ConfigError);  // not integral
  EXPECT_THROW((void)v.get("s")->as_bool("s"), ConfigError);
  EXPECT_THROW((void)v.get("f")->as_string("f"), ConfigError);
}

// ---- ReportCache ----

Report tagged_report(const std::string& tag) {
  Report r;
  r.scenario = tag;
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

// ---- Single-flight coalescing (ReportCache layer) ----

// Spins until `pred` holds (or ~timeout_ms passed); returns pred().
bool poll_until(const std::function<bool()>& pred, int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(ReportCache, SingleFlightLeaderComputesOnceFollowersCoalesce) {
  ReportCache cache(8);
  // First prober is appointed leader; the cell is now in flight.
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);
  EXPECT_EQ(cache.stats().inflight, 1u);

  constexpr size_t kFollowers = 3;
  std::vector<std::optional<Report>> got(kFollowers);
  std::vector<std::thread> followers;
  for (size_t i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&cache, &got, i] {
      ReportCache::Probe probe = cache.probe_or_lead("cell");
      EXPECT_NE(probe.waiting, nullptr);
      if (probe.waiting != nullptr) got[i] = cache.wait(probe.waiting);
    });
  }
  // All followers are provably waiting before the leader publishes.
  ASSERT_TRUE(
      poll_until([&] { return cache.stats().coalesced == kFollowers; }));
  cache.publish("cell", tagged_report("computed"));
  for (std::thread& follower : followers) follower.join();
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

TEST(ReportCache, AbandonedLeaderReleasesFollowerToRelead) {
  ReportCache cache(8);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);

  std::optional<Report> followed = tagged_report("sentinel");
  bool reled = false;
  std::thread follower([&] {
    ReportCache::Probe probe = cache.probe_or_lead("cell");
    EXPECT_NE(probe.waiting, nullptr);
    if (probe.waiting == nullptr) return;
    followed = cache.wait(probe.waiting);
    if (followed.has_value()) return;
    // The leader gave up: the follower re-probes, is appointed the new
    // leader, and computes the cell itself - no permanent wait.
    ReportCache::Probe again = cache.probe_or_lead("cell");
    reled = again.leader;
    if (reled) cache.publish("cell", tagged_report("recomputed"));
  });
  ASSERT_TRUE(poll_until([&] { return cache.stats().coalesced == 1u; }));
  cache.abandon("cell");
  follower.join();

  EXPECT_FALSE(followed.has_value());  // woken with "no result"
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
  std::thread follower([&] {
    ReportCache::Probe probe = cache.probe_or_lead("cell");
    EXPECT_NE(probe.waiting, nullptr);
    if (probe.waiting != nullptr) followed = cache.wait(probe.waiting);
  });
  ASSERT_TRUE(poll_until([&] { return cache.stats().coalesced == 1u; }));
  cache.publish("cell", tagged_report("once"));
  follower.join();
  ASSERT_TRUE(followed.has_value());
  EXPECT_EQ(followed->scenario, "once");
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(ReportCache, AbandonWithManyFollowersMidWaitReleadsExactlyOnce) {
  // The abandon edge case at fan-out: several followers are provably
  // blocked inside wait() when the leader gives up. Every follower must
  // wake with nullopt, and the ensuing re-probe stampede must appoint
  // exactly one new leader - the rest coalesce onto the re-lead's
  // in-flight entry (or hit the cache if they probe after its publish).
  ReportCache cache(8);
  ASSERT_TRUE(cache.probe_or_lead("cell").leader);

  constexpr size_t kFollowers = 4;
  std::atomic<int> releads{0};
  std::atomic<int> woken_empty{0};
  std::vector<std::optional<Report>> got(kFollowers);
  std::vector<std::thread> followers;
  for (size_t i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&cache, &releads, &woken_empty, &got, i] {
      ReportCache::Probe probe = cache.probe_or_lead("cell");
      ASSERT_NE(probe.waiting, nullptr);
      std::optional<Report> result = cache.wait(probe.waiting);
      if (!result.has_value()) woken_empty.fetch_add(1);
      // Server retry loop: re-probe until the cell resolves, computing
      // it ourselves if appointed the post-abandon leader.
      while (!result.has_value()) {
        ReportCache::Probe again = cache.probe_or_lead("cell");
        if (again.leader) {
          releads.fetch_add(1);
          cache.publish("cell", tagged_report("recomputed"));
          result = tagged_report("recomputed");
        } else if (again.waiting != nullptr) {
          result = cache.wait(again.waiting);
        } else {
          result = again.report;
        }
      }
      got[i] = std::move(result);
    });
  }
  // All followers are blocked in wait() before the leader abandons.
  ASSERT_TRUE(
      poll_until([&] { return cache.stats().coalesced == kFollowers; }));
  cache.abandon("cell");
  for (std::thread& follower : followers) follower.join();

  EXPECT_EQ(woken_empty.load(), static_cast<int>(kFollowers));
  EXPECT_EQ(releads.load(), 1);  // exactly one follower re-led
  for (const std::optional<Report>& report : got) {
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->scenario, "recomputed");
  }
  const ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // abandoned leader + the one re-lead
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(lookup(cache, "cell")->scenario, "recomputed");
}

TEST(ReportCache, SaveRacesSingleFlightAtCapacityZero) {
  // save() walks the LRU under the cache mutex while probe_or_lead /
  // publish / wait mutate the single-flight table on other threads. At
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
      followed = cache.wait(probe.waiting);
    });
    // The follower is provably mid-wait before the leader publishes.
    ASSERT_TRUE(
        poll_until([&] { return cache.stats().coalesced == round + 1; }));
    cache.publish(key, tagged_report(key));
    follower.join();
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

// ---- Server protocol ----

constexpr const char* kFig5aRun =
    R"({"type":"run","model":"52b","cluster":"dgx1-v100-ib","pp":8,"tp":8,)"
    R"("nmb":16,"schedule":"bf","loop":4})";

TEST(Server, PingStatsAndShutdown) {
  Server server;
  EXPECT_EQ(server.handle(R"({"id":7,"type":"ping"})"),
            "{\"id\":7,\"ok\":true,\"type\":\"pong\"}\n");
  EXPECT_EQ(server.handle(R"({"id":"x","type":"ping"})"),
            "{\"id\":\"x\",\"ok\":true,\"type\":\"pong\"}\n");
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"requests\":3"), std::string::npos);
  EXPECT_NE(stats.find("\"hits\":0,\"misses\":0"), std::string::npos);
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_EQ(server.handle(R"({"type":"shutdown"})"),
            "{\"ok\":true,\"type\":\"shutdown\"}\n");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(Server, EchoesLargeIntegerIdsVerbatim) {
  // Correlation ids are commonly epoch-millisecond timestamps; they must
  // come back digit-for-digit, not through %g scientific notation.
  Server server;
  EXPECT_EQ(server.handle(R"({"id":1722300000000,"type":"ping"})"),
            "{\"id\":1722300000000,\"ok\":true,\"type\":\"pong\"}\n");
  EXPECT_EQ(server.handle(R"({"id":-3,"type":"ping"})"),
            "{\"id\":-3,\"ok\":true,\"type\":\"pong\"}\n");
  EXPECT_NE(server.handle(R"({"id":[1],"type":"ping"})")
                .find("\"ok\":false"),
            std::string::npos);
  // An overflowing literal parses to infinity; echoing it would emit
  // bare `inf` and corrupt the response line.
  const std::string inf_id = server.handle(R"({"id":1e400,"type":"ping"})");
  EXPECT_NE(inf_id.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(inf_id.find("inf"), std::string::npos);
}

TEST(Server, RunRequestsRejectASearchMethod) {
  // run simulates one exact configuration; a method field on it would
  // otherwise be silently dropped and mislead.
  Server server;
  const std::string response = server.handle(
      R"({"type":"run","preset":"fig5a-bf-b16","method":"df"})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("search and sweep"), std::string::npos);
}

TEST(Server, BlankLinesAreKeepAliveNoOps) {
  Server server;
  EXPECT_EQ(server.handle(""), "");
  EXPECT_EQ(server.handle("   \t"), "");
  EXPECT_NE(server.handle(R"({"type":"stats"})").find("\"requests\":1"),
            std::string::npos);
}

TEST(Server, MalformedRequestsBecomeErrorLines) {
  Server server;
  EXPECT_NE(server.handle("not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(server.handle("[1,2]").find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(server.handle(R"({"no_type":1})").find("needs a"),
            std::string::npos);
  EXPECT_NE(server.handle(R"({"type":"frobnicate"})")
                .find("unknown request type"),
            std::string::npos);
  // Unknown fields are rejected (typo protection), echoing the id.
  const std::string bad_field =
      server.handle(R"({"id":3,"type":"run","pq":8})");
  EXPECT_EQ(bad_field.rfind("{\"id\":3,\"ok\":false", 0), 0u);
  EXPECT_NE(bad_field.find("unknown field"), std::string::npos);
  EXPECT_NE(bad_field.find("pq"), std::string::npos);
  // A structurally invalid *request* (contradictory flags) is a protocol
  // error; a valid request whose configuration the engine rejects is a
  // found=false row instead (see InfeasibleRunsAreReportRowsNot...).
  EXPECT_NE(server.handle(
                    R"({"type":"run","preset":"fig5a-bf-b16","pp":4})")
                .find("\"ok\":false"),
            std::string::npos);
  // Scenario fields make no sense on a stats request.
  EXPECT_NE(server.handle(R"({"type":"stats","pp":8})").find("\"ok\":false"),
            std::string::npos);
}

TEST(Server, RepeatedRunIsAByteIdenticalCacheHit) {
  Server server;
  const std::string first = server.handle(kFig5aRun);
  EXPECT_EQ(first.rfind("{\"ok\":true,\"type\":\"run\",\"report\":{", 0), 0u);
  EXPECT_NE(first.find("\"found\":true"), std::string::npos);
  EXPECT_EQ(first.find('\n'), first.size() - 1);  // one line
  const std::string second = server.handle(kFig5aRun);
  EXPECT_EQ(first, second);
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":1,\"misses\":1,\"insertions\":1"),
            std::string::npos);
}

TEST(Server, CacheKeysRespectBackendAndKernelAcrossRequests) {
  Server server;
  (void)server.handle(kFig5aRun);
  // Same cell on another backend: a miss, not a hit.
  const std::string analytic = std::string(kFig5aRun);
  (void)server.handle(analytic.substr(0, analytic.size() - 1) +
                      R"(,"backend":"analytic"})");
  // Same cell with a kernel override: a third miss.
  (void)server.handle(analytic.substr(0, analytic.size() - 1) +
                      R"(,"kernel":{"max_efficiency":0.5}})");
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":0,\"misses\":3,\"insertions\":3"),
            std::string::npos);
}

TEST(Server, InfeasibleRunsAreReportRowsNotProtocolErrors) {
  Server server;
  // 52B replicated on every GPU: out of memory, reported as a
  // found=false row with the reason, and cached like any other result.
  const std::string oom =
      R"({"type":"run","model":"52b","cluster":"dgx1-v100-ib","pp":1,)"
      R"("tp":1,"dp":64,"nmb":1,"schedule":"gpipe"})";
  const std::string first = server.handle(oom);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first.find("\"found\":false"), std::string::npos);
  EXPECT_NE(first.find("[oom]"), std::string::npos);
  EXPECT_EQ(first, server.handle(oom));
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":1,\"misses\":1"), std::string::npos);
}

TEST(Server, SweepStreamsRowsAndServesRepeatsFromTheCache) {
  Server server;
  const std::string sweep =
      R"({"id":1,"type":"sweep","model":"52b","cluster":"dgx1-v100-ib",)"
      R"("pp":[8],"tp":[8],"nmb":[16,32],"schedule":["bf"],"loop":[4]})";
  const std::string first = server.handle(sweep);
  // Framing: one header line announcing the payload, then one compact
  // JSON object per row.
  std::vector<std::string> lines;
  for (size_t pos = 0; pos < first.size();) {
    const size_t nl = first.find('\n', pos);
    lines.push_back(first.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "{\"id\":1,\"ok\":true,\"type\":\"sweep\",\"rows\":2,"
            "\"lines\":2}");
  EXPECT_EQ(lines[1].rfind("{\"scenario\":", 0), 0u);
  EXPECT_NE(lines[1].find("nmb16"), std::string::npos);
  EXPECT_NE(lines[2].find("nmb32"), std::string::npos);

  const std::string second = server.handle(sweep);
  EXPECT_EQ(first, second);
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":2,\"misses\":2"), std::string::npos);
}

TEST(Server, CompareRequestRunsTheNamedGridAndCaches) {
  Server server;
  const std::string req =
      R"({"id":1,"type":"compare","grid":"fig5-quick","backend":"analytic"})";
  const std::string first = server.handle(req);
  EXPECT_EQ(first.rfind("{\"id\":1,\"ok\":true,\"type\":\"compare\","
                        "\"rows\":12,",
                        0),
            0u);
  // One row per (batch, family) cell, labelled like the CLI table.
  EXPECT_NE(first.find("\"scenario\":\"6.6b/b64/bf\""), std::string::npos);
  EXPECT_NE(first.find("\"scenario\":\"6.6b/b128/2bp\""), std::string::npos);
  // A warm cache serves the identical bytes without recomputing.
  const std::string second = server.handle(req);
  EXPECT_EQ(first, second);
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":12,\"misses\":12"), std::string::npos);

  // Unknown grids and stray scenario fields are protocol errors.
  EXPECT_NE(server.handle(R"({"type":"compare","grid":"fig7"})")
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(server.handle(R"({"type":"compare","pp":8})")
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(server.handle(R"({"type":"run","grid":"fig5"})")
                .find("\"ok\":false"),
            std::string::npos);
}

TEST(Server, RunRequestHitsACellComputedByASweep) {
  // The cache key excludes the label, so the same physical cell is
  // shared between a sweep and a later run request (relabelled).
  Server server;
  (void)server.handle(
      R"({"type":"sweep","model":"52b","cluster":"dgx1-v100-ib",)"
      R"("pp":[8],"tp":[8],"nmb":[16],"schedule":["bf"],"loop":[4]})");
  const std::string run = server.handle(kFig5aRun);
  EXPECT_NE(run.find("\"scenario\":\"serve\""), std::string::npos);
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":1,\"misses\":1"), std::string::npos);
}

TEST(Server, CsvFormatFramesHeaderAndRows) {
  Server server;
  const std::string response = server.handle(
      std::string(kFig5aRun).substr(0, std::string(kFig5aRun).size() - 1) +
      R"(,"format":"csv"})");
  const size_t first_nl = response.find('\n');
  EXPECT_EQ(response.substr(0, first_nl),
            "{\"ok\":true,\"type\":\"run\",\"format\":\"csv\",\"rows\":1,"
            "\"lines\":2}");
  const size_t second_nl = response.find('\n', first_nl + 1);
  EXPECT_EQ(response.substr(first_nl + 1, second_nl - first_nl - 1),
            Report::csv_header());
  EXPECT_EQ(std::count(response.begin(), response.end(), '\n'), 3);
}

TEST(Server, SearchRequestFindsAConfigOnTheAnalyticBackend) {
  Server server;
  const std::string response = server.handle(
      R"({"type":"search","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("batch":64,"method":"bf","backend":"analytic","jobs":2})");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"type\":\"search\"", 0), 0u);
  EXPECT_NE(response.find("\"found\":true"), std::string::npos);
  EXPECT_NE(response.find("\"method\":\"Breadth-first\""),
            std::string::npos);
  EXPECT_EQ(response, server.handle(
      R"({"type":"search","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("batch":64,"method":"bf","backend":"analytic","jobs":2})"));
}

TEST(Server, ListAndPresetRequests) {
  Server server;
  const std::string models = server.handle(R"({"type":"list","what":"models"})");
  EXPECT_NE(models.find("\"models\":[\"52b\",\"6.6b\""), std::string::npos);
  EXPECT_EQ(models.find("\"clusters\""), std::string::npos);
  const std::string all = server.handle(R"({"type":"list"})");
  EXPECT_NE(all.find("\"clusters\""), std::string::npos);
  EXPECT_NE(all.find("\"scenarios\""), std::string::npos);

  const std::string preset =
      server.handle(R"({"type":"run","preset":"fig5a-bf-b16"})");
  EXPECT_NE(preset.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(preset.find("\"scenario\":\"fig5a-bf-b16\""), std::string::npos);
}

TEST(Server, CacheSizeZeroMeansEveryRequestRecomputes) {
  ServeOptions options;
  options.cache_capacity = 0;
  Server server(options);
  const std::string first = server.handle(kFig5aRun);
  const std::string second = server.handle(kFig5aRun);
  EXPECT_EQ(first, second);  // still deterministic, just recomputed
  const std::string stats = server.handle(R"({"type":"stats"})");
  EXPECT_NE(stats.find("\"hits\":0,\"misses\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"capacity\":0"), std::string::npos);
}

// ---- Transports ----

TEST(Server, StdioTransportAnswersLineRequests) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs("{\"id\":1,\"type\":\"ping\"}\n", in);
  std::fputs(kFig5aRun, in);
  std::fputs("\n{\"type\":\"shutdown\"}\n", in);
  std::fputs("{\"type\":\"ping\"}\n", in);  // after shutdown: unread
  std::rewind(in);

  Server server;
  EXPECT_EQ(server.serve_stdio(in, out), 0);
  EXPECT_TRUE(server.shutdown_requested());

  std::rewind(out);
  std::string output;
  char chunk[256];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), out)) > 0) {
    output.append(chunk, n);
  }
  std::fclose(in);
  std::fclose(out);
  EXPECT_EQ(output.rfind("{\"id\":1,\"ok\":true,\"type\":\"pong\"}\n", 0),
            0u);
  EXPECT_NE(output.find("\"type\":\"run\""), std::string::npos);
  EXPECT_NE(output.find("\"type\":\"shutdown\""), std::string::npos);
  // The post-shutdown ping is never read: exactly one pong in the output.
  const size_t first_pong = output.find("\"type\":\"pong\"");
  EXPECT_EQ(output.find("\"type\":\"pong\"", first_pong + 1),
            std::string::npos);
}

TEST(Transports, FinalUnterminatedLineIsReturnedByBothLineReaders) {
  // Identical bytes through the TCP reader (Stream over a pipe) and the
  // stdio reader: a terminated CRLF line, then a final line lacking the
  // trailing newline. Both must hand back both lines, then EOF.
  const char bytes[] = "{\"type\":\"one\"}\r\n{\"type\":\"two\"}";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], bytes, sizeof(bytes) - 1),
            static_cast<ssize_t>(sizeof(bytes) - 1));
  ::close(fds[1]);
  net::Stream stream(fds[0]);
  std::string line;
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "{\"type\":\"one\"}");
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "{\"type\":\"two\"}");
  EXPECT_FALSE(stream.read_line(line));

  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  std::fputs(bytes, file);
  std::rewind(file);
  ASSERT_TRUE(net::read_stdio_line(file, line));
  EXPECT_EQ(line, "{\"type\":\"one\"}");
  ASSERT_TRUE(net::read_stdio_line(file, line));
  EXPECT_EQ(line, "{\"type\":\"two\"}");
  EXPECT_FALSE(net::read_stdio_line(file, line));
  std::fclose(file);
}

TEST(Transports, LoneCarriageReturnAtEofIsEofOnBothLineReaders) {
  // The one divergence the transports used to have: a final "\r" with no
  // newline. Both now strip it and report EOF (nothing useful left).
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "\r", 1), 1);
  ::close(fds[1]);
  net::Stream stream(fds[0]);
  std::string line;
  EXPECT_FALSE(stream.read_line(line));

  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  std::fputs("\r", file);
  std::rewind(file);
  EXPECT_FALSE(net::read_stdio_line(file, line));
  std::fclose(file);
}

TEST(Server, StdioAnswersAFinalRequestLackingItsNewline) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs("{\"id\":1,\"type\":\"ping\"}", in);  // no trailing newline
  std::rewind(in);
  Server server;
  EXPECT_EQ(server.serve_stdio(in, out), 0);
  std::rewind(out);
  std::string output;
  char chunk[256];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), out)) > 0) {
    output.append(chunk, n);
  }
  std::fclose(in);
  std::fclose(out);
  EXPECT_EQ(output, "{\"id\":1,\"ok\":true,\"type\":\"pong\"}\n");
}

// ---- Concurrent clients + persistence ----

// Connects to 127.0.0.1:`port`; -1 on failure.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads `n` response lines, re-appending the '\n' framing so the result
// is byte-comparable against Server::handle() output.
bool read_lines(net::Stream& stream, size_t n, std::string& out) {
  out.clear();
  std::string line;
  for (size_t i = 0; i < n; ++i) {
    if (!stream.read_line(line)) return false;
    out += line + "\n";
  }
  return true;
}

TEST(Server, TcpTransportServesALoopbackClient) {
  // An ephemeral-port listener; skip (not fail) where the sandbox forbids
  // binding loopback sockets.
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ASSERT_GT(listener->port(), 0);
  Server server;
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  const int fd = connect_loopback(listener->port());
  ASSERT_GE(fd, 0);
  net::Stream stream(fd);
  std::string got_ping, got_stats, bye;
  ASSERT_TRUE(stream.write_all("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(stream.read_line(got_ping));
  ASSERT_TRUE(stream.write_all("{\"type\":\"stats\"}\n"));
  ASSERT_TRUE(stream.read_line(got_stats));
  ASSERT_TRUE(stream.write_all("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(stream.read_line(bye));
  serve_thread.join();  // the event loop exits once the shutdown lands
  EXPECT_EQ(got_ping, "{\"ok\":true,\"type\":\"pong\"}");
  EXPECT_NE(got_stats.find("\"requests\":2"), std::string::npos);
  EXPECT_EQ(bye, "{\"ok\":true,\"type\":\"shutdown\"}");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(Server, OverlongRequestLineIsAnsweredAndClosedWhileOthersAreServed) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  const int other_fd = connect_loopback(listener->port());
  const int hog_fd = connect_loopback(listener->port());
  ASSERT_GE(other_fd, 0);
  ASSERT_GE(hog_fd, 0);
  net::Stream other(other_fd);
  net::Stream hog(hog_fd);
  // A server that buffers without bound never answers; time the reads
  // out so that shows up as a failure, not a hang.
  timeval timeout{};
  timeout.tv_sec = 20;
  ASSERT_EQ(::setsockopt(hog_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  // One byte over the cap and no newline. Exactly that many, so the
  // server has read all of it when it closes (unread bytes would turn
  // the close into a reset that can swallow the error line).
  ASSERT_TRUE(hog.write_all(std::string(kMaxRequestLineBytes + 1, 'x')));
  std::string line;
  ASSERT_TRUE(hog.read_line(line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("request line exceeds"), std::string::npos);
  EXPECT_FALSE(hog.read_line(line));  // closed after the error line

  // The other client never noticed.
  ASSERT_TRUE(other.write_all("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(other.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  ASSERT_TRUE(other.write_all("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(other.read_line(line));
  serve_thread.join();
}

TEST(Server, ConcurrentClientsMatchSerialExecutionAndShareOneCache) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  const int port = listener->port();

  constexpr int kClients = 4;
  ServeOptions options;
  options.max_connections = kClients + 2;  // all workers + the idle client
  Server server(options);
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  // Each client gets a disjoint set of cells (deterministic hit/miss
  // accounting), issued twice: the repeat must be a byte-identical hit.
  auto run_request = [](int i) {
    return str_format(
        R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
        R"("tp":2,"dp":8,"nmb":%d,"schedule":"bf","loop":2,)"
        R"("backend":"analytic"})",
        4 * (i + 1));
  };
  auto sweep_request = [](int i) {
    return str_format(
        R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
        R"("pp":[4],"tp":[2],"dp":[8],"nmb":[%d,%d],"schedule":["bf"],)"
        R"("loop":[2],"backend":"analytic"})",
        24 + 8 * i, 28 + 8 * i);
  };
  // The serial reference: the same requests through handle() on one
  // thread of a fresh server. Concurrent transport responses must be
  // byte-identical to these.
  std::vector<std::string> expected_run(kClients), expected_sweep(kClients);
  {
    Server reference(options);
    for (int i = 0; i < kClients; ++i) {
      expected_run[static_cast<size_t>(i)] = reference.handle(run_request(i));
      expected_sweep[static_cast<size_t>(i)] =
          reference.handle(sweep_request(i));
    }
  }

  // An idle client that connects first and never sends a byte: with the
  // old serial accept loop this starved every client below (and this
  // test would hang); now it must delay no one.
  const int idle_fd = connect_loopback(port);
  ASSERT_GE(idle_fd, 0);
  net::Stream idle(idle_fd);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      net::Stream stream(fd);
      std::string got;
      for (int repeat = 0; repeat < 2; ++repeat) {
        ASSERT_TRUE(stream.write_all(run_request(i) + "\n"));
        ASSERT_TRUE(read_lines(stream, 1, got));
        EXPECT_EQ(got, expected_run[static_cast<size_t>(i)]);
        ASSERT_TRUE(stream.write_all(sweep_request(i) + "\n"));
        ASSERT_TRUE(read_lines(stream, 3, got));  // header + 2 rows
        EXPECT_EQ(got, expected_sweep[static_cast<size_t>(i)]);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Exact shared-cache accounting across all sessions: per client one
  // run cell and two sweep cells, each missed once then hit once.
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, 3u * kClients);
  EXPECT_EQ(stats.hits, 3u * kClients);
  EXPECT_EQ(stats.insertions, 3u * kClients);

  // Orderly shutdown from yet another connection; the idle client is
  // drained (EOF), not abandoned.
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  net::Stream stopper(fd);
  ASSERT_TRUE(stopper.write_all("{\"type\":\"shutdown\"}\n"));
  std::string bye;
  ASSERT_TRUE(stopper.read_line(bye));
  EXPECT_EQ(bye, "{\"ok\":true,\"type\":\"shutdown\"}");
  serve_thread.join();
  std::string nothing;
  EXPECT_FALSE(idle.read_line(nothing));
  EXPECT_TRUE(server.shutdown_requested());
}

// ---- Single-flight coalescing (server + transport level) ----

// The cell (and matching request line) the coalescing tests race on:
// 6.6B, pp4/tp2/dp8, nmb8, bf, loop 2 on the default sim backend.
Scenario coalesced_cell() {
  return ScenarioBuilder()
      .model("6.6b")
      .cluster("dgx1-v100-ib")
      .pp(4)
      .tp(2)
      .dp(8)
      .nmb(8)
      .schedule("bf")
      .loop(2)
      .build();
}

constexpr const char* kCoalescedRun =
    R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
    R"("tp":2,"dp":8,"nmb":8,"schedule":"bf","loop":2})";

TEST(Server, ConcurrentClientsRacingAColdCellCoalesceToOneComputation) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }

  ServeOptions options;
  options.max_connections = 8;
  Server server(options);

  // Claim leadership of the exact cell the clients will request: until
  // this test publishes, every client is provably concurrent with the
  // (held) computation, so the coalescing counts below are exact, not
  // timing-dependent.
  const std::string key =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(key).leader);

  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  // What the response must look like, from an unrelated serial server.
  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);
  ASSERT_NE(expected.find("\"found\":true"), std::string::npos);

  constexpr size_t kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_loopback(listener->port());
      EXPECT_GE(fd, 0);
      if (fd < 0) return;
      net::Stream stream(fd);
      EXPECT_TRUE(stream.write_all(std::string(kCoalescedRun) + "\n"));
      (void)read_lines(stream, 1, got[i]);
    });
  }
  // All N clients join the in-flight entry (none recomputes)...
  ASSERT_TRUE(
      poll_until([&] { return server.cache_stats().coalesced == kClients; }));
  EXPECT_EQ(server.cache_stats().inflight, 1u);
  // ...then the leader (this test) computes the cell once and publishes.
  server.cache().publish(key, run(coalesced_cell(), options.run));
  for (std::thread& client : clients) client.join();

  // Byte-identical responses for everyone, exactly one insert, N
  // coalesced waits and zero duplicate computations.
  for (const std::string& response : got) EXPECT_EQ(response, expected);
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.coalesced, kClients);
  EXPECT_EQ(stats.misses, 1u);  // the held leadership claim
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inflight, 0u);

  server.request_shutdown();
  serve_thread.join();
}

TEST(Server, InfeasibleCellReleasesFollowersAndCachesTheNegativeOnce) {
  // Leader-failure semantics, full path: followers parked on a cell
  // whose leader goes away must not hang - one of them re-leads, the
  // infeasible result is computed once, published as a negative
  // (found=false) entry, and every client gets identical bytes.
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }

  const std::string oom_req =
      R"({"type":"run","model":"52b","cluster":"dgx1-v100-ib","pp":1,)"
      R"("tp":1,"dp":64,"nmb":1,"schedule":"gpipe"})";
  const Scenario oom_cell = ScenarioBuilder()
                                .model("52b")
                                .cluster("dgx1-v100-ib")
                                .pp(1)
                                .tp(1)
                                .dp(64)
                                .nmb(1)
                                .schedule("gpipe")
                                .build();

  ServeOptions options;
  options.max_connections = 8;
  Server server(options);
  const std::string key = cache_key(oom_cell, std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(key).leader);

  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  Server reference;
  const std::string expected = reference.handle(oom_req);
  ASSERT_NE(expected.find("\"found\":false"), std::string::npos);
  ASSERT_NE(expected.find("[oom]"), std::string::npos);

  constexpr size_t kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_loopback(listener->port());
      EXPECT_GE(fd, 0);
      if (fd < 0) return;
      net::Stream stream(fd);
      EXPECT_TRUE(stream.write_all(oom_req + "\n"));
      (void)read_lines(stream, 1, got[i]);
    });
  }
  ASSERT_TRUE(
      poll_until([&] { return server.cache_stats().coalesced == kClients; }));
  // The erroring leader abandons instead of publishing. Exactly one
  // follower re-leads (probes are serialized on the cache mutex), the
  // others re-wait or hit - nobody waits forever.
  server.cache().abandon(key);
  for (std::thread& client : clients) client.join();

  for (const std::string& response : got) EXPECT_EQ(response, expected);
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 1u);  // the negative result, cached once
  EXPECT_EQ(stats.misses, 2u);      // the held claim + the one re-lead
  EXPECT_GE(stats.coalesced, kClients);
  EXPECT_EQ(stats.inflight, 0u);
  // The negative entry is now a plain hit for everyone else.
  EXPECT_EQ(server.handle(oom_req), expected);

  server.request_shutdown();
  serve_thread.join();
}

TEST(Server, OverlappingSweepsShareInFlightCells) {
  // Coalescing is per *cell*, not per request: a sweep whose grid
  // contains a cell already in flight (here: held by the test, as if an
  // overlapping sweep were computing it) waits for that one cell while
  // computing its own, and renders byte-identically to a serial sweep.
  Server server;
  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  const Scenario shared_cell = ScenarioBuilder()
                                   .model("6.6b")
                                   .cluster("dgx1-v100-ib")
                                   .pp(4)
                                   .tp(2)
                                   .dp(8)
                                   .nmb(16)
                                   .schedule("bf")
                                   .loop(2)
                                   .build();
  const std::string key = cache_key(shared_cell, std::nullopt, analytic);
  ASSERT_TRUE(server.cache().probe_or_lead(key).leader);

  const std::string sweep_req =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("pp":[4],"tp":[2],"dp":[8],"nmb":[8,16],"schedule":["bf"],)"
      R"("loop":[2],"backend":"analytic"})";
  std::string got;
  std::thread sweeper([&] { got = server.handle(sweep_req); });
  // The sweep computes its nmb=8 cell itself and coalesces on nmb=16.
  ASSERT_TRUE(poll_until([&] { return server.cache_stats().coalesced == 1u; }));
  server.cache().publish(key, run(shared_cell, analytic));
  sweeper.join();

  Server reference;
  EXPECT_EQ(got, reference.handle(sweep_req));
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.coalesced, 1u);   // the shared cell was not recomputed
  EXPECT_EQ(stats.misses, 2u);      // the held claim + the sweep's own cell
  EXPECT_EQ(stats.insertions, 2u);  // one per distinct cell
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(Server, TcpAnswersUnterminatedFinalRequestAndRequestShutdownDrains) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  const int fd = connect_loopback(listener->port());
  ASSERT_GE(fd, 0);
  net::Stream client(fd);
  // A request lacking its trailing newline, then half-close: the session
  // must still answer it (same contract as the stdio transport).
  ASSERT_TRUE(client.write_all("{\"type\":\"ping\"}"));
  ::shutdown(client.fd(), SHUT_WR);
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");

  // Programmatic shutdown (no client involved) wakes the accept loop.
  server.request_shutdown();
  serve_thread.join();
  EXPECT_TRUE(server.shutdown_requested());
}

// ---- Event-loop serving core: saturation, admission, backpressure ----

TEST(ServeStatsWire, RoundTripsLosslesslyAndRejectsTruncation) {
  ServeStats stats;
  stats.requests = 42;
  stats.cache.entries = 3;
  stats.cache.capacity = 1024;
  stats.cache.hits = 7;
  stats.cache.misses = 5;
  stats.cache.insertions = 5;
  stats.cache.evictions = 2;
  stats.cache.coalesced = 4;
  stats.cache.inflight = 1;
  stats.connections.active = 6;
  stats.connections.reading = 3;
  stats.connections.processing = 2;
  stats.connections.writing = 1;
  stats.connections.accepted = 9;
  stats.connections.rejected = 2;
  stats.queues.dispatch_backlog = 11;
  stats.queues.executing = 4;
  stats.latency.count = 13;
  stats.latency.sum_us = 12345;
  stats.latency.p50_us = 127;
  stats.latency.p99_us = 1023;
  for (size_t i = 0; i < ServeStats::kLatencyBuckets; ++i) {
    stats.latency.buckets.push_back(i);
  }
  const std::string wire = stats.to_wire();
  const ServeStats back = ServeStats::from_wire(json::parse(wire));
  EXPECT_EQ(back.to_wire(), wire);  // byte-identical round trip
  EXPECT_THROW(ServeStats::from_wire(json::parse(R"({"schema":1})")),
               ConfigError);
}

TEST(Server, MetricsRequestSharesTheVersionedStatsSchema) {
  Server server;
  (void)server.handle(R"({"type":"ping"})");
  (void)server.handle(R"({"type":"ping"})");
  const std::string response = server.handle(R"({"type":"metrics"})");
  ASSERT_EQ(response.rfind("{\"ok\":true,\"type\":\"metrics\",\"schema\":1,", 0),
            0u);
  // The whole response line parses back into a ServeStats: the payload
  // is exactly the shared wire schema (from_wire ignores the ok/type
  // preamble).
  const ServeStats stats = ServeStats::from_wire(
      json::parse(response.substr(0, response.size() - 1)));
  EXPECT_EQ(stats.requests, 3u);       // stats/metrics count themselves...
  EXPECT_EQ(stats.latency.count, 2u);  // ...but are timed after responding
  ASSERT_EQ(stats.latency.buckets.size(), ServeStats::kLatencyBuckets);
  uint64_t histogram_total = 0;
  for (const uint64_t b : stats.latency.buckets) histogram_total += b;
  EXPECT_EQ(histogram_total, 2u);
  EXPECT_GE(stats.latency.p50_us, 1u);
  EXPECT_GE(stats.latency.p99_us, stats.latency.p50_us);
  // `stats` splices the identical emitter after its own type tag, and
  // the pre-metrics response shape (top-level "requests", hits/misses
  // adjacency) survives the unification.
  const std::string stats_response = server.handle(R"({"type":"stats"})");
  ASSERT_EQ(stats_response.rfind("{\"ok\":true,\"type\":\"stats\",\"schema\":1,",
                                 0),
            0u);
  EXPECT_NE(stats_response.find("\"requests\":4"), std::string::npos);
  EXPECT_NE(stats_response.find("\"hits\":0,\"misses\":0"), std::string::npos);
}

TEST(Server, OverCapConnectionsAreExplicitlyRejectedAndCounted) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  options.max_connections = 2;
  Server server(options);
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  // Fill the cap; a ping round trip per client proves both are admitted
  // (admission happens on accept, inside the event loop).
  const int fd1 = connect_loopback(listener->port());
  const int fd2 = connect_loopback(listener->port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  net::Stream first(fd1);
  net::Stream second(fd2);
  std::string line;
  for (net::Stream* admitted : {&first, &second}) {
    ASSERT_TRUE(admitted->write_all("{\"type\":\"ping\"}\n"));
    ASSERT_TRUE(admitted->read_line(line));
    EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  }

  // The connection over the cap gets one explicit error line and EOF -
  // never a silent stall in the kernel backlog.
  const int fd3 = connect_loopback(listener->port());
  ASSERT_GE(fd3, 0);
  net::Stream third(fd3);
  ASSERT_TRUE(third.read_line(line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("connection limit reached"), std::string::npos);
  EXPECT_NE(line.find("--max-connections 2"), std::string::npos);
  EXPECT_FALSE(third.read_line(line));  // closed right after the refusal

  // The rejection is visible in the metrics an admitted client reads.
  ASSERT_TRUE(first.write_all("{\"type\":\"metrics\"}\n"));
  ASSERT_TRUE(first.read_line(line));
  const ServeStats stats = ServeStats::from_wire(json::parse(line));
  EXPECT_EQ(stats.connections.accepted, 2u);
  EXPECT_EQ(stats.connections.rejected, 1u);
  EXPECT_EQ(stats.connections.active, 2);

  ASSERT_TRUE(first.write_all("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(first.read_line(line));
  serve_thread.join();
}

TEST(Server, BurstyClientIsBackpressuredWithoutStallingOthers) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  options.max_inflight_per_client = 2;
  Server server(options);
  // Hold the cell the burst will request: every dispatched copy parks as
  // a coalescing follower until this test publishes.
  const std::string key =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(key).leader);
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);

  // A bursty client pipelines six copies without reading a byte. The
  // per-connection in-flight rule dispatches exactly one at a time, so
  // exactly one follower parks on the held cell; the rest wait their
  // turn in the connection's own queue (or its socket, once the
  // in-flight cap gates POLLIN off).
  const int fd = connect_loopback(listener->port());
  ASSERT_GE(fd, 0);
  net::Stream bursty(fd);
  std::string burst;
  for (int i = 0; i < 6; ++i) burst += std::string(kCoalescedRun) + "\n";
  ASSERT_TRUE(bursty.write_all(burst));
  ASSERT_TRUE(poll_until([&] { return server.cache_stats().coalesced == 1u; }));

  // A second client gets served while the burst is parked: the event
  // loop never blocks behind a busy or backpressured connection.
  const int fd2 = connect_loopback(listener->port());
  ASSERT_GE(fd2, 0);
  net::Stream nimble(fd2);
  std::string line;
  ASSERT_TRUE(nimble.write_all("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(nimble.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  EXPECT_EQ(server.cache_stats().coalesced, 1u);  // still exactly one

  // Publishing releases the follower; the backlog drains in request
  // order with byte-identical responses (one coalesced wait, five hits).
  server.cache().publish(key, run(coalesced_cell(), options.run));
  std::string got;
  ASSERT_TRUE(read_lines(bursty, 6, got));
  std::string six;
  for (int i = 0; i < 6; ++i) six += expected;
  EXPECT_EQ(got, six);
  EXPECT_EQ(server.cache_stats().hits, 5u);

  server.request_shutdown();
  serve_thread.join();
}

TEST(Server, ClientVanishingMidResponseDoesNotDisturbOthers) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  // A client that sends a request and vanishes before the response: the
  // computation still finishes (and warms the cache); the dead socket is
  // reaped, not crashed into.
  {
    const int fd = connect_loopback(listener->port());
    ASSERT_GE(fd, 0);
    net::Stream doomed(fd);
    ASSERT_TRUE(doomed.write_all(std::string(kCoalescedRun) + "\n"));
  }  // ~Stream closes the socket mid-computation
  ASSERT_TRUE(
      poll_until([&] { return server.cache_stats().insertions == 1u; }));

  const int fd = connect_loopback(listener->port());
  ASSERT_GE(fd, 0);
  net::Stream survivor(fd);
  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);
  std::string got;
  ASSERT_TRUE(survivor.write_all(std::string(kCoalescedRun) + "\n"));
  ASSERT_TRUE(read_lines(survivor, 1, got));
  EXPECT_EQ(got, expected);  // served from the cache the doomed run warmed
  EXPECT_EQ(server.cache_stats().hits, 1u);

  // The vanished connection is reaped (EOF or flush error), leaving only
  // the survivor active. The gauge refreshes per loop tick, so poll.
  ServeStats seen;
  ASSERT_TRUE(poll_until([&] {
    if (!survivor.write_all("{\"type\":\"metrics\"}\n")) return false;
    std::string line;
    if (!survivor.read_line(line)) return false;
    seen = ServeStats::from_wire(json::parse(line));
    return seen.connections.active == 1;
  }));
  EXPECT_EQ(seen.connections.accepted, 2u);

  server.request_shutdown();
  serve_thread.join();
}

TEST(Server, SaturationSixtyFourMixedClientsGetByteIdenticalResponses) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  constexpr int kClients = 64;
  constexpr int kIdle = 4;
  ServeOptions options;
  options.max_connections = kClients + kIdle + 2;
  Server server(options);
  std::thread serve_thread([&] { EXPECT_EQ(server.serve_on(*listener), 0); });

  // Per-client unique cells plus one cell every client races on (nmb=6,
  // disjoint from the unique nmb=4*(i+1) series).
  auto unique_run = [](int i) {
    return str_format(
        R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
        R"("tp":2,"dp":8,"nmb":%d,"schedule":"bf","loop":2,)"
        R"("backend":"analytic"})",
        4 * (i + 1));
  };
  const std::string shared_run =
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":6,"schedule":"bf","loop":2,)"
      R"("backend":"analytic"})";

  // The serial reference a fresh server produces on one thread: every
  // concurrent transport response must be byte-identical to it.
  std::vector<std::string> expected(kClients);
  std::string expected_shared;
  {
    Server reference(options);
    for (int i = 0; i < kClients; ++i) {
      expected[static_cast<size_t>(i)] = reference.handle(unique_run(i));
    }
    expected_shared = reference.handle(shared_run);
  }

  // Idle connections held open across the whole run: they must cost
  // nothing and delay no one.
  std::vector<std::unique_ptr<net::Stream>> idles;
  for (int i = 0; i < kIdle; ++i) {
    const int fd = connect_loopback(listener->port());
    ASSERT_GE(fd, 0);
    idles.push_back(std::make_unique<net::Stream>(fd));
  }

  // Mixed traffic: even clients pipeline all three requests in one
  // write; odd clients trickle them one round trip at a time.
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_loopback(listener->port());
      EXPECT_GE(fd, 0);
      if (fd < 0) return;
      net::Stream stream(fd);
      const std::string requests =
          unique_run(i) + "\n" + shared_run + "\n" + unique_run(i) + "\n";
      std::string lines;
      if (i % 2 == 0) {
        EXPECT_TRUE(stream.write_all(requests));
        if (read_lines(stream, 3, lines)) got[static_cast<size_t>(i)] = lines;
        return;
      }
      for (const std::string& request :
           {unique_run(i), shared_run, unique_run(i)}) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_TRUE(stream.write_all(request + "\n"));
        if (!read_lines(stream, 1, lines)) return;
        got[static_cast<size_t>(i)] += lines;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              expected[static_cast<size_t>(i)] + expected_shared +
                  expected[static_cast<size_t>(i)])
        << "client " << i;
  }

  // Exact shared-cache accounting: 64 unique cells each missed once and
  // hit once, plus the shared cell - computed exactly once, with the
  // other 63 requests split between coalesced waits and plain hits
  // depending on arrival time (the split is timing, the sum is not).
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, kClients + 1u);
  EXPECT_EQ(stats.insertions, kClients + 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, 2u * kClients - 1u);
  EXPECT_EQ(stats.inflight, 0u);

  // Orderly drain: the idle clients get EOF, not abandonment.
  const int fd = connect_loopback(listener->port());
  ASSERT_GE(fd, 0);
  net::Stream stopper(fd);
  ASSERT_TRUE(stopper.write_all("{\"type\":\"shutdown\"}\n"));
  std::string bye;
  ASSERT_TRUE(stopper.read_line(bye));
  EXPECT_EQ(bye, "{\"ok\":true,\"type\":\"shutdown\"}");
  serve_thread.join();
  for (const std::unique_ptr<net::Stream>& idle : idles) {
    std::string nothing;
    EXPECT_FALSE(idle->read_line(nothing));
  }
}

TEST(Server, CacheFileWarmRestartServesEntirelyFromCache) {
  const std::string path = testing::TempDir() + "bfpp_serve_cache.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;

  const std::string run_req =
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":8,"schedule":"bf","loop":2,"backend":"analytic"})";
  const std::string search_req =
      R"({"type":"search","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("batch":64,"method":"bf","backend":"analytic"})";
  const std::string oom_req =
      R"({"type":"run","model":"52b","cluster":"dgx1-v100-ib","pp":1,)"
      R"("tp":1,"dp":64,"nmb":1,"schedule":"gpipe"})";

  std::string first_run, first_search, first_oom;
  {
    Server server(options);
    first_run = server.handle(run_req);
    first_search = server.handle(search_req);  // frugal block on the wire
    first_oom = server.handle(oom_req);        // negative entry persisted
    ASSERT_TRUE(server.persist_cache());
  }

  Server restarted(options);
  EXPECT_EQ(restarted.handle(run_req), first_run);
  EXPECT_EQ(restarted.handle(search_req), first_search);
  EXPECT_EQ(restarted.handle(oom_req), first_oom);
  const ReportCache::Stats stats = restarted.cache_stats();
  EXPECT_EQ(stats.hits, 3u);    // every request answered from the cache
  EXPECT_EQ(stats.misses, 0u);  // nothing recomputed after the restart
  EXPECT_EQ(stats.insertions, 0u);
  std::remove(path.c_str());
}

TEST(Server, PersistCacheWithoutACacheFileIsANoOp) {
  Server server;
  (void)server.handle(R"({"type":"ping"})");
  EXPECT_FALSE(server.persist_cache());
}

// ---- The cache journal (--cache-file) ----

// Distinct analytic run requests, one cell each.
std::string journal_run(int k) {
  return str_format(
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":%d,"schedule":"bf","loop":2,)"
      R"("backend":"analytic"})",
      4 * (k + 1));
}

// The entry lines of a cache file (header dropped), sorted: the set of
// cells the file restores, independent of recency order.
std::vector<std::string> sorted_entry_lines(const std::string& path) {
  const std::optional<std::string> content = serialize::read_file(path);
  if (!content.has_value()) return {};
  std::vector<std::string> lines = serialize::split_lines(*content);
  if (!lines.empty()) lines.erase(lines.begin());
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(Server, JournalRestoresEveryAnsweredInsertWithoutPersistCache) {
  // handle() journals each inserted cell before it answers, so a server
  // that dies without its shutdown save (here: destroyed without
  // persist_cache(), as after a kill -9) loses no answered cell.
  const std::string path = testing::TempDir() + "bfpp_journal_crash.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;
  const std::vector<std::string> requests = {
      journal_run(0), journal_run(1),
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":[16,24],"schedule":"bf","loop":2,)"
      R"("backend":"analytic","format":"csv"})"};
  std::vector<std::string> first;
  {
    Server server(options);
    for (const std::string& request : requests) {
      first.push_back(server.handle(request));
      EXPECT_NE(first.back().find("\"ok\":true"), std::string::npos);
    }
    EXPECT_EQ(server.cache_stats().insertions, 4u);
  }

  Server restarted(options);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(restarted.handle(requests[i]), first[i]);
  }
  const ReportCache::Stats stats = restarted.cache_stats();
  EXPECT_EQ(stats.hits, 4u);  // every cell, sweep rows included
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  std::remove(path.c_str());
}

TEST(Server, JournalSkipsATornLineAndCompactsAtStartup) {
  // A kill -9 mid-append leaves a torn last line. The next start skips
  // it (with a warning), serves the intact lines, and rewrites the file
  // so no later append can land after the torn bytes.
  const std::string path = testing::TempDir() + "bfpp_journal_torn.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;
  std::vector<std::string> first;
  {
    Server server(options);
    for (int k = 0; k < 3; ++k) first.push_back(server.handle(journal_run(k)));
  }
  std::optional<std::string> content = serialize::read_file(path);
  ASSERT_TRUE(content.has_value());
  ASSERT_EQ(serialize::split_lines(*content).size(), 4u);  // header + 3
  content->resize(content->size() - 20);  // tear the last entry line
  ASSERT_TRUE(serialize::write_file_atomic(path, *content));

  Server restarted(options);
  content = serialize::read_file(path);
  ASSERT_TRUE(content.has_value());
  const std::vector<std::string> lines = serialize::split_lines(*content);
  ASSERT_EQ(lines.size(), 3u);  // compacted: header + the 2 intact cells
  EXPECT_EQ(json::parse(lines[0]).get("entries")->as_int(), 2);

  EXPECT_EQ(restarted.handle(journal_run(0)), first[0]);
  EXPECT_EQ(restarted.handle(journal_run(1)), first[1]);
  EXPECT_EQ(restarted.cache_stats().hits, 2u);
  EXPECT_EQ(restarted.handle(journal_run(2)), first[2]);  // recomputed
  EXPECT_EQ(restarted.cache_stats().misses, 1u);
  std::remove(path.c_str());
}

TEST(Server, JournalStaysBoundedAndCompleteUnderConcurrentHandlers) {
  // Several handler threads insert far past the compaction threshold
  // (the capacity) at once: appends and compactions interleave, yet the
  // file never exceeds one snapshot plus one capacity of appends, and
  // it restores exactly the cells the live cache holds. The TSan job
  // runs this test.
  const std::string path = testing::TempDir() + "bfpp_journal_bound.jsonl";
  std::remove(path.c_str());
  constexpr size_t kCapacity = 4;
  ServeOptions options;
  options.cache_file = path;
  options.cache_capacity = kCapacity;
  Server server(options);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 6;
  std::atomic<size_t> max_lines{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &max_lines, &path, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string response =
            server.handle(journal_run(t * kPerThread + i));
        EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
        const size_t lines = sorted_entry_lines(path).size();
        size_t seen = max_lines.load();
        while (lines > seen && !max_lines.compare_exchange_weak(seen, lines)) {
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(server.cache_stats().insertions,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(max_lines.load(), 2 * kCapacity);
  EXPECT_LE(sorted_entry_lines(path).size(), 2 * kCapacity);

  // Replaying the file rebuilds the live cache cell for cell.
  ReportCache restored(kCapacity);
  (void)restored.load(path);
  const std::string live_file = path + ".live";
  const std::string restored_file = path + ".restored";
  ASSERT_TRUE(server.cache().save(live_file));
  ASSERT_TRUE(restored.save(restored_file));
  EXPECT_EQ(sorted_entry_lines(restored_file), sorted_entry_lines(live_file));
  EXPECT_EQ(sorted_entry_lines(live_file).size(), kCapacity);
  std::remove(path.c_str());
  std::remove(live_file.c_str());
  std::remove(restored_file.c_str());
}

TEST(Server, PristineSnapshotIsServedWithoutARewrite) {
  // A snapshot persist_cache() wrote is already compact: a restart
  // appends to it as it is instead of rewriting it at startup.
  const std::string path = testing::TempDir() + "bfpp_journal_pristine.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;
  {
    Server server(options);
    (void)server.handle(journal_run(0));
    (void)server.handle(journal_run(1));
    ASSERT_TRUE(server.persist_cache());
  }
  const std::optional<std::string> before = serialize::read_file(path);
  ASSERT_TRUE(before.has_value());
  {
    Server restarted(options);
    EXPECT_EQ(serialize::read_file(path), before);  // untouched at startup
    (void)restarted.handle(journal_run(2));          // one appended line
  }
  const std::optional<std::string> after = serialize::read_file(path);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->rfind(*before, 0), 0u);  // the snapshot is a prefix
  EXPECT_EQ(serialize::split_lines(*after).size(), 4u);
  std::remove(path.c_str());
}

TEST(Server, StdioTransportCompactsTheJournalOnShutdown) {
  const std::string path = testing::TempDir() + "bfpp_journal_stdio.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs((journal_run(0) + "\n" + journal_run(0) + "\n").c_str(), in);
  std::rewind(in);
  {
    Server server(options);
    EXPECT_EQ(server.serve_stdio(in, out), 0);
  }
  std::fclose(in);
  std::fclose(out);
  // One cell, one entry line: the shutdown compaction folded the journal
  // into a snapshot whose header counts it.
  const std::optional<std::string> content = serialize::read_file(path);
  ASSERT_TRUE(content.has_value());
  const std::vector<std::string> lines = serialize::split_lines(*content);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json::parse(lines[0]).get("entries")->as_int(), 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfpp::api
