// Tests for the `bfpp serve` experiment server (api/server.h): the
// line-delimited JSON protocol, cached-response byte identity, the cache
// file as the server uses it, the JSON request parser (common/json.h),
// the stdio / TCP transports and the concurrent-client event loop. The
// ReportCache itself is tested in test_report_cache.cpp.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
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
#include "common/thread_pool.h"
#include "line_client.h"

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

TEST(Json, ExpectedCharacterErrorsNameAFixedByte) {
  // Clients read these messages, so the offset must not depend on the
  // compiler's argument evaluation order.
  auto message = [](const char* text) {
    try {
      (void)json::parse(text);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("parsed");
  };
  EXPECT_EQ(message(R"({"type"   1})"), "json: expected ':' (at byte 7)");
  EXPECT_EQ(message(R"({"type":1   2})"), "json: expected '}' (at byte 12)");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const json::Value v = json::parse(R"({"s":"x","f":2.5})");
  EXPECT_THROW((void)v.get("s")->as_int("s"), ConfigError);
  EXPECT_THROW((void)v.get("f")->as_int("f"), ConfigError);  // not integral
  EXPECT_THROW((void)v.get("s")->as_bool("s"), ConfigError);
  EXPECT_THROW((void)v.get("f")->as_string("f"), ConfigError);
}

TEST(Json, NumbersParseBitForBitLikeStrtod) {
  // strtod is the reference. Out-of-range literals keep its answer:
  // +-inf on overflow, +-0 on underflow (2.4e-324 rounds to zero,
  // 4.9e-324 to the smallest subnormal).
  const std::string nines(400, '9');
  const std::vector<std::string> literals = {
      "1e400", "-1e400", "1e-400", "-1e-400", "2.4e-324", "4.9e-324", "-0",
      "0.5", "-2.5e-3", "1.7976931348623157e308", "1.7976931348623159e308",
      std::string(300, '7'), nines, nines + "e-10",
      "0." + std::string(400, '0') + "1e2", "-1000e-99999999999999999999",
      "0.001e99999999999999999999"};
  for (const std::string& text : literals) {
    const double got = json::parse(text).as_number();
    const double want = std::strtod(text.c_str(), nullptr);
    uint64_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &got, sizeof got);
    std::memcpy(&want_bits, &want, sizeof want);
    EXPECT_EQ(got_bits, want_bits) << text.substr(0, 40);
  }
}

// Spins until `pred` holds (or ~timeout_ms passed); returns pred().
bool poll_until(const std::function<bool()>& pred, int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
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

TEST(Server, CachedSweepWithAnUnbuildableCellRepeatsItsRows) {
  // pp3 does not fit the 64-GPU cluster: that cell is a [config] row
  // with no cache key, and the repeat is answered from the cache with
  // the identical row beside the cached one.
  Server server;
  const std::string sweep =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("pp":[4,3],"tp":[2],"dp":[8],"nmb":[8],"schedule":["bf"],)"
      R"("loop":[2],"backend":"analytic"})";
  const std::string first = server.handle(sweep);
  EXPECT_NE(first.find("[config] parallel: grid 8x2x3"), std::string::npos);
  EXPECT_EQ(server.handle(sweep), first);
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

// `n` comma-separated integers 1..n: one axis list of a sweep line.
std::string axis(int n) {
  std::string out;
  for (int i = 1; i <= n; ++i) out += (i > 1 ? "," : "") + std::to_string(i);
  return out;
}

TEST(Server, SweepsOverTheCellCapAreRefusedBeforeTheGridIsBuilt) {
  static_assert(kMaxCellsPerRequest == 4096);
  Server server;
  // 65 x 65 = 4225 cells: one over-cap sweep, refused with a typed line.
  const std::string over =
      R"({"id":9,"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("pp":[4],"tp":[2],"dp":[8],"nmb":[)" + axis(65) + R"(],"loop":[)" +
      axis(65) + R"(],"schedule":["bf"]})";
  EXPECT_EQ(server.handle(over),
            "{\"id\":9,\"ok\":false,\"error\":\"serve: a sweep may name at "
            "most 4096 cells (the product of its axis lengths); split it "
            "into smaller sweeps\"}\n");
  // Seven 100-value axes and two 3-value ones name 9 x 10^14 cells,
  // which would never finish materialising. The count stops at the cap,
  // so this is refused at once.
  std::string huge =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib")";
  for (const char* key : {"pp", "tp", "dp", "smb", "nmb", "loop", "batch"}) {
    huge += std::string(",\"") + key + "\":[" + axis(100) + "]";
  }
  huge += R"(,"schedule":["bf","df","v"],"sharding":["dp0","dp1","dp2"]})";
  EXPECT_NE(server.handle(huge).find("at most 4096 cells"), std::string::npos);
  EXPECT_EQ(server.cache_stats().misses, 0u);  // nothing was built or run
}

TEST(Server, AxisErrorTextsArePinned) {
  // Clients match on these lines; the axis parsing behind them must not
  // move them. The cell cap's text is pinned by
  // SweepsOverTheCellCapAreRefusedBeforeTheGridIsBuilt.
  Server server;
  auto error_line = [](const std::string& what) {
    return "{\"ok\":false,\"error\":\"" + what + "\"}\n";
  };
  EXPECT_EQ(server.handle(R"({"type":"compare","pp":8})"),
            error_line("serve: field \\\"pp\\\" is not valid for a 'compare' "
                       "request (format, backend, kernel, jobs or grid)"));
  EXPECT_EQ(
      server.handle(R"({"type":"run","preset":"fig5a-bf-b16","method":"df"})"),
      error_line("serve: \\\"method\\\" applies to search and sweep "
                 "requests, not run"));
  // A preset pins the model and cluster too: naming either beside it
  // is refused, not silently answered with the preset's own.
  const std::string preset_conflict = error_line(
      "cli: --preset cannot be combined with scenario flags "
      "(--model/--cluster/--pp/--tp/--dp/--smb/--nmb/--loop/--batch/"
      "--schedule/--sharding/--megatron/--no-*-overlap)");
  EXPECT_EQ(
      server.handle(R"({"type":"run","preset":"fig5a-bf-b16","pp":4})"),
      preset_conflict);
  EXPECT_EQ(
      server.handle(R"({"type":"run","preset":"fig5a-bf-b16","model":"6.6b"})"),
      preset_conflict);
  EXPECT_EQ(server.handle(R"({"type":"run","preset":"fig5a-bf-b16",)"
                          R"("cluster":"dgx1-v100-eth"})"),
            preset_conflict);
  EXPECT_EQ(
      server.handle(R"({"type":"search","model":"6.6b","batch":64,"pp":4})"),
      error_line("cli: search explores the configuration space itself; "
                 "only --model/--cluster/--batch/--method apply"));
  EXPECT_EQ(
      server.handle(
          R"({"type":"sweep","method":["bf"],"batch":[16],"pp":[8]})"),
      error_line("cli: a --method sweep grid-searches the configuration "
                 "space per cell; only --model/--cluster/--batch axes "
                 "apply"));
  EXPECT_EQ(server.handle(R"({"type":"sweep","pp":[]})"),
            error_line("serve: \\\"pp\\\" must not be an empty list"));
  EXPECT_EQ(server.handle(R"({"type":"sweep","model":[]})"),
            error_line("serve: \\\"model\\\" must not be an empty list"));
  EXPECT_EQ(server.handle(R"({"type":"sweep","pp":["8x"]})"),
            error_line("json: pp must be a number"));
  EXPECT_EQ(server.handle(R"({"type":"run","pp":"8x"})"),
            error_line("json: pp must be a number"));
  EXPECT_EQ(server.cache_stats().misses, 0u);
}

TEST(Server, SweepRunsAZeroAxisValueLikeRunDoes) {
  // "pp":[0,4] is two cells: pp0 is a found=false [config] row with the
  // message a run with "pp":0 fails with, not a silent pp1 cell.
  Server server;
  const std::string run = server.handle(
      R"({"type":"run","model":"6.6b","pp":0,"tp":2,"nmb":8})");
  const std::string message =
      "scenario: N_TP*N_PP = 0 does not divide the cluster's 64 GPUs; set "
      "dp() explicitly";
  EXPECT_EQ(run, "{\"ok\":false,\"error\":\"" + message + "\"}\n");
  const std::string sweep = server.handle(
      R"({"type":"sweep","model":"6.6b","pp":[0,4],"tp":[2],"nmb":[8],)"
      R"("backend":"analytic"})");
  const size_t first = sweep.find('\n') + 1;
  const json::Value pp0 =
      json::parse(sweep.substr(first, sweep.find('\n', first) - first));
  EXPECT_EQ(pp0.get("scenario")->as_string(), "6.6b/dgx1-v100-ib/pp0/tp2/nmb8");
  EXPECT_FALSE(pp0.get("found")->as_bool());
  EXPECT_EQ(pp0.get("error")->as_string(), "[config] " + message);
  // The row keeps the identity the cell named; it names no batch.
  EXPECT_EQ(pp0.get("model")->as_string(), "6.6B");
  EXPECT_EQ(pp0.get("cluster")->as_string(), "DGX-1 V100 (InfiniBand)");
  EXPECT_EQ(pp0.get("n_gpus")->as_int("n_gpus"), 64);
  EXPECT_EQ(pp0.get("batch_size")->as_int("batch_size"), 0);

  // A cell that names a batch keeps it, in the CSV form as well.
  const std::string csv = server.handle(
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-eth:4",)"
      R"("pp":[0],"tp":[2],"batch":[64],"format":"csv"})");
  EXPECT_NE(csv.find("\n6.6b/dgx1-v100-eth:4/b64/pp0/tp2,6.6B,DGX-1 V100 "
                     "(Ethernet),,32,64,2,0,"),
            std::string::npos)
      << csv;
}

// The scenario labels of a sweep's rows, in row order.
std::vector<std::string> row_labels(const std::string& response) {
  std::vector<std::string> labels;
  size_t pos = response.find('\n') + 1;  // past the header line
  while (pos < response.size()) {
    const size_t nl = response.find('\n', pos);
    labels.push_back(json::parse(response.substr(pos, nl - pos))
                         .get("scenario")
                         ->as_string());
    pos = nl + 1;
  }
  return labels;
}

TEST(Server, EveryAxisSweepsLikeItsCliFlag) {
  // For every scenario axis, `bfpp sweep --<axis> a,b` and a serve sweep
  // with "<axis>":[a,b] name the same cells under the same labels.
  struct Case {
    const char* axis;
    const char* cli_values;
    const char* json_values;
  };
  const Case cases[] = {
      {"model", "52b,6.6b", R"(["52b","6.6b"])"},
      {"cluster", "dgx1-v100-ib,dgx1-v100-eth",
       R"(["dgx1-v100-ib","dgx1-v100-eth"])"},
      {"method", "bf,df", R"(["bf","df"])"},
      {"batch", "16,64", "[16,64]"},
      {"schedule", "bf,df", R"(["bf","df"])"},
      {"sharding", "none,ps", R"(["none","ps"])"},
      {"pp", "4,8", "[4,8]"},
      {"tp", "1,2", "[1,2]"},
      {"dp", "1,2", "[1,2]"},
      {"smb", "1,2", "[1,2]"},
      {"nmb", "8,16", "[8,16]"},
      {"loop", "1,2", "[1,2]"},
  };
  Server server;
  for (const Case& c : cases) {
    std::vector<std::string> args = {"sweep", std::string("--") + c.axis,
                                     c.cli_values};
    std::string request = std::string(R"({"type":"sweep","backend":)") +
                          R"("analytic",")" + c.axis + "\":" + c.json_values;
    if (std::string(c.axis) == "method") {  // a search sweep needs batches
      args.insert(args.end(), {"--batch", "64", "--model", "6.6b"});
      request += R"(,"batch":[64],"model":["6.6b"])";
    }
    request += "}";
    const ScenarioGrid grid = sweep_from_cli(parse_cli(args)).build();
    std::vector<std::string> cli_labels;
    for (const SweepCell& cell : grid.cells()) {
      cli_labels.push_back(cell.label);
    }
    EXPECT_EQ(cli_labels.size(), 2u) << c.axis;
    EXPECT_EQ(row_labels(server.handle(request)), cli_labels) << c.axis;
  }
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

// Every line the TCP reader yields for `bytes`, read the way serve_on
// reads a connection: a non-blocking Stream over a pipe, next_line()
// after each fill() until EOF, then take_final_line().
std::vector<std::string> stream_lines(std::string_view bytes) {
  int fds[2];
  EXPECT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  net::Stream stream(fds[0]);
  std::vector<std::string> lines;
  std::string line;
  net::IoStatus status;
  do {
    status = stream.fill();
    while (stream.next_line(line)) lines.push_back(line);
  } while (status == net::IoStatus::kOk);
  EXPECT_EQ(status, net::IoStatus::kEof);
  if (stream.take_final_line(line)) lines.push_back(line);
  return lines;
}

// The same through the stdio reader.
std::vector<std::string> stdio_lines(std::string_view bytes) {
  std::vector<std::string> lines;
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return lines;
  std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::rewind(file);
  std::string line;
  while (net::read_stdio_line(file, line)) lines.push_back(line);
  std::fclose(file);
  return lines;
}

TEST(Transports, FinalUnterminatedLineIsReturnedByBothLineReaders) {
  // Identical bytes through both readers: a terminated CRLF line, then a
  // final line lacking the trailing newline. Both must hand back both
  // lines, then EOF.
  const std::string_view bytes = "{\"type\":\"one\"}\r\n{\"type\":\"two\"}";
  const std::vector<std::string> expected = {"{\"type\":\"one\"}",
                                             "{\"type\":\"two\"}"};
  EXPECT_EQ(stream_lines(bytes), expected);
  EXPECT_EQ(stdio_lines(bytes), expected);
}

TEST(Transports, LoneCarriageReturnAtEofIsEofOnBothLineReaders) {
  // The one divergence the transports used to have: a final "\r" with no
  // newline. Both now strip it and report EOF (nothing useful left).
  EXPECT_TRUE(stream_lines("\r").empty());
  EXPECT_TRUE(stdio_lines("\r").empty());
}

// Everything a fresh server's serve_stdio writes for `input`.
std::string stdio_output(const std::string& input) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  if (in == nullptr || out == nullptr) return "";
  std::fwrite(input.data(), 1, input.size(), in);
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
  return output;
}

TEST(Server, StdioAnswersAFinalRequestLackingItsNewline) {
  EXPECT_EQ(stdio_output("{\"id\":1,\"type\":\"ping\"}"),  // no newline
            "{\"id\":1,\"ok\":true,\"type\":\"pong\"}\n");
}

TEST(Server, StdioCapsTheRequestLineLikeTcp) {
  // The request before the overlong line is answered, then one error
  // line, then serving stops: the ping after it is never read.
  EXPECT_EQ(stdio_output("{\"id\":1,\"type\":\"ping\"}\n" +
                         std::string(net::kMaxRequestLineBytes + 1, 'x') +
                         "\n{\"id\":2,\"type\":\"ping\"}\n"),
            "{\"id\":1,\"ok\":true,\"type\":\"pong\"}\n"
            "{\"ok\":false,\"error\":\"serve: request line exceeds " +
                std::to_string(net::kMaxRequestLineBytes) +
                " bytes without a newline; closing the connection\"}\n");
}

// ---- Concurrent clients + persistence ----

using test_util::LineClient;
using test_util::ServeThread;

// How long a test client waits for one read before it fails.
constexpr std::chrono::seconds kReadTimeout{20};

// A connection to `port` whose reads give up after kReadTimeout, so a
// request stuck behind a held cell fails the test instead of hanging it.
std::unique_ptr<LineClient> connect_with_timeout(int port) {
  auto client = std::make_unique<LineClient>(port, kReadTimeout);
  EXPECT_TRUE(client->connected());
  return client;
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
  ServeThread serving(server, *listener);

  LineClient client(listener->port());
  ASSERT_TRUE(client.connected());
  std::string got_ping, got_stats, bye;
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(client.read_line(got_ping));
  ASSERT_TRUE(client.send("{\"type\":\"stats\"}\n"));
  ASSERT_TRUE(client.read_line(got_stats));
  ASSERT_TRUE(client.send("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(client.read_line(bye));
  // The event loop exits once the shutdown lands.
  EXPECT_EQ(serving.join(), 0);
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
  ServeThread serving(server, *listener);

  LineClient other(listener->port());
  // A server that buffers without bound never answers; time the reads
  // out so that shows up as a failure, not a hang.
  LineClient hog(listener->port(), kReadTimeout);
  ASSERT_TRUE(other.connected());
  ASSERT_TRUE(hog.connected());

  // One byte over the cap and no newline. Exactly that many, so the
  // server has read all of it when it closes (unread bytes would turn
  // the close into a reset that can swallow the error line).
  ASSERT_TRUE(
      hog.send(std::string(net::kMaxRequestLineBytes + 1, 'x')));
  std::string line;
  ASSERT_TRUE(hog.read_line(line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("request line exceeds"), std::string::npos);
  EXPECT_FALSE(hog.read_line(line));  // closed after the error line

  // The other client never noticed.
  ASSERT_TRUE(other.send("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(other.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  ASSERT_TRUE(other.send("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(other.read_line(line));
  EXPECT_EQ(serving.join(), 0);
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
  ServeThread serving(server, *listener);

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
  LineClient idle(port);
  ASSERT_TRUE(idle.connected());

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient client(port);
      ASSERT_TRUE(client.connected());
      std::string got;
      for (int repeat = 0; repeat < 2; ++repeat) {
        ASSERT_TRUE(client.send(run_request(i) + "\n"));
        ASSERT_TRUE(client.read_lines(1, got));
        EXPECT_EQ(got, expected_run[static_cast<size_t>(i)]);
        ASSERT_TRUE(client.send(sweep_request(i) + "\n"));
        ASSERT_TRUE(client.read_lines(3, got));  // header + 2 rows
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
  LineClient stopper(port);
  ASSERT_TRUE(stopper.connected());
  ASSERT_TRUE(stopper.send("{\"type\":\"shutdown\"}\n"));
  std::string bye;
  ASSERT_TRUE(stopper.read_line(bye));
  EXPECT_EQ(bye, "{\"ok\":true,\"type\":\"shutdown\"}");
  EXPECT_EQ(serving.join(), 0);
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

  ServeThread serving(server, *listener);

  // What the response must look like, from an unrelated serial server.
  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);
  ASSERT_NE(expected.find("\"found\":true"), std::string::npos);

  constexpr size_t kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient client(listener->port());
      EXPECT_TRUE(client.connected());
      if (!client.connected()) return;
      EXPECT_TRUE(client.send(std::string(kCoalescedRun) + "\n"));
      (void)client.read_lines(1, got[i]);
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
  EXPECT_EQ(serving.join(), 0);
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

  ServeThread serving(server, *listener);

  Server reference;
  const std::string expected = reference.handle(oom_req);
  ASSERT_NE(expected.find("\"found\":false"), std::string::npos);
  ASSERT_NE(expected.find("[oom]"), std::string::npos);

  constexpr size_t kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient client(listener->port());
      EXPECT_TRUE(client.connected());
      if (!client.connected()) return;
      EXPECT_TRUE(client.send(oom_req + "\n"));
      (void)client.read_lines(1, got[i]);
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
  EXPECT_EQ(serving.join(), 0);
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
  ServeThread serving(server, *listener);

  LineClient client(listener->port());
  ASSERT_TRUE(client.connected());
  // A request lacking its trailing newline, then half-close: the session
  // must still answer it (same contract as the stdio transport).
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}"));
  ::shutdown(client.fd(), SHUT_WR);
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");

  // Programmatic shutdown (no client involved) wakes the accept loop.
  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
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
  ServeThread serving(server, *listener);

  // Fill the cap; a ping round trip per client proves both are admitted
  // (admission happens on accept, inside the event loop).
  LineClient first(listener->port());
  LineClient second(listener->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  std::string line;
  for (LineClient* admitted : {&first, &second}) {
    ASSERT_TRUE(admitted->send("{\"type\":\"ping\"}\n"));
    ASSERT_TRUE(admitted->read_line(line));
    EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  }

  // The connection over the cap gets one explicit error line and EOF -
  // never a silent stall in the kernel backlog.
  LineClient third(listener->port());
  ASSERT_TRUE(third.connected());
  ASSERT_TRUE(third.read_line(line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("connection limit reached"), std::string::npos);
  EXPECT_NE(line.find("--max-connections 2"), std::string::npos);
  EXPECT_FALSE(third.read_line(line));  // closed right after the refusal

  // The rejection is visible in the metrics an admitted client reads.
  ASSERT_TRUE(first.send("{\"type\":\"metrics\"}\n"));
  ASSERT_TRUE(first.read_line(line));
  const ServeStats stats = ServeStats::from_wire(json::parse(line));
  EXPECT_EQ(stats.connections.accepted, 2u);
  EXPECT_EQ(stats.connections.rejected, 1u);
  EXPECT_EQ(stats.connections.active, 2);

  ASSERT_TRUE(first.send("{\"type\":\"shutdown\"}\n"));
  ASSERT_TRUE(first.read_line(line));
  EXPECT_EQ(serving.join(), 0);
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
  ServeThread serving(server, *listener);

  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);

  // A bursty client pipelines six copies without reading a byte. The
  // per-connection in-flight rule dispatches exactly one at a time, so
  // exactly one follower parks on the held cell; the rest wait their
  // turn in the connection's own queue (or its socket, once the
  // in-flight cap gates POLLIN off).
  LineClient bursty(listener->port());
  ASSERT_TRUE(bursty.connected());
  std::string burst;
  for (int i = 0; i < 6; ++i) burst += std::string(kCoalescedRun) + "\n";
  ASSERT_TRUE(bursty.send(burst));
  ASSERT_TRUE(poll_until([&] { return server.cache_stats().coalesced == 1u; }));

  // A second client gets served while the burst is parked: the event
  // loop never blocks behind a busy or backpressured connection.
  LineClient nimble(listener->port());
  ASSERT_TRUE(nimble.connected());
  std::string line;
  ASSERT_TRUE(nimble.send("{\"type\":\"ping\"}\n"));
  ASSERT_TRUE(nimble.read_line(line));
  EXPECT_EQ(line, "{\"ok\":true,\"type\":\"pong\"}");
  EXPECT_EQ(server.cache_stats().coalesced, 1u);  // still exactly one

  // Publishing releases the follower; the backlog drains in request
  // order with byte-identical responses (one coalesced wait, five hits).
  server.cache().publish(key, run(coalesced_cell(), options.run));
  std::string got;
  ASSERT_TRUE(bursty.read_lines(6, got));
  std::string six;
  for (int i = 0; i < 6; ++i) six += expected;
  EXPECT_EQ(got, six);
  EXPECT_EQ(server.cache_stats().hits, 5u);

  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
}

TEST(Server, EventLoopAnswersCachedRequestsWithTheSameBytesAndCounters) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  Server server(options);
  // Held like in the coalescing tests: requests for this cell follow it
  // until the test publishes it.
  const std::string held =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(held).leader);
  ServeThread serving(server, *listener);

  const std::string run_a =
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":4,"schedule":"bf","loop":2,"backend":"analytic"})";
  const std::string sweep_ab =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib","pp":[4],)"
      R"("tp":[2],"dp":[8],"nmb":[4,12],"schedule":["bf"],"loop":[2],)"
      R"("backend":"analytic"})";
  Server reference;
  const std::string expected_run = reference.handle(run_a);
  const std::string expected_sweep = reference.handle(sweep_ab);
  const std::string expected_held = reference.handle(kCoalescedRun);

  // A request stuck behind the held cell would hang the reads below;
  // time them out so that shows up as a failure.
  LineClient client(listener->port(), kReadTimeout);
  ASSERT_TRUE(client.connected());
  uint64_t sent = 0;
  auto ask = [&](const std::string& request, size_t lines) {
    ++sent;
    std::string got;
    EXPECT_TRUE(client.send(request + "\n"));
    EXPECT_TRUE(client.read_lines(lines, got));
    return got;
  };
  auto metrics = [&] {
    return ServeStats::from_wire(json::parse(ask(R"({"type":"metrics"})", 1)));
  };

  // A cold run computes on the pool. A sweep of that cell and a new one
  // is a partial hit, so it computes too: one hit, one miss, as the
  // per-cell probes always counted. Its repeat is all hits: one hit per
  // cell, the same bytes.
  EXPECT_EQ(ask(run_a, 1), expected_run);
  EXPECT_EQ(ask(sweep_ab, 3), expected_sweep);
  ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);  // the held claim, A, then B
  EXPECT_EQ(ask(sweep_ab, 3), expected_sweep);
  stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);

  // An over-cap sweep gets a typed error; the connection keeps serving.
  const std::string over =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("nmb":[)" + axis(65) + R"(],"loop":[)" + axis(65) + R"(]})";
  EXPECT_NE(ask(over, 1).find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(ask(R"({"type":"ping"})", 1), "{\"ok\":true,\"type\":\"pong\"}\n");

  // Park 16 requests for the held cell, each on its own connection.
  constexpr size_t kBlockers = 16;
  std::vector<std::unique_ptr<LineClient>> blockers;
  for (size_t i = 0; i < kBlockers; ++i) {
    blockers.push_back(std::make_unique<LineClient>(listener->port()));
    ASSERT_TRUE(blockers.back()->connected());
    ASSERT_TRUE(blockers.back()->send(std::string(kCoalescedRun) + "\n"));
  }
  // Every parked request is a Job waiting on its followed cell: it
  // counts as executing, and none has a pool driver left to start.
  ASSERT_TRUE(poll_until([&] {
    const ServeStats parked = metrics();
    return parked.connections.processing == int{kBlockers} &&
           parked.queues.executing == kBlockers &&
           parked.queues.dispatch_backlog == 0;
  }));
  // Cached requests are still answered: the event loop serves them.
  EXPECT_EQ(ask(run_a, 1), expected_run);
  EXPECT_EQ(ask(sweep_ab, 3), expected_sweep);

  server.cache().publish(held, run(coalesced_cell(), options.run));
  for (const std::unique_ptr<LineClient>& blocker : blockers) {
    std::string got;
    ASSERT_TRUE(blocker->read_lines(1, got));
    EXPECT_EQ(got, expected_held);
  }
  stats = server.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.hits + stats.coalesced, 3u + 3u + kBlockers);
  EXPECT_EQ(stats.inflight, 0u);

  // Every request is counted, and every one answered before this
  // metrics request - on the loop or by a Job - is timed.
  const ServeStats final_metrics = metrics();
  EXPECT_EQ(final_metrics.requests, sent + kBlockers);
  EXPECT_EQ(final_metrics.latency.count, sent + kBlockers - 1);
  // A Job leaves the gauges before handing back its response.
  EXPECT_EQ(final_metrics.queues.executing, 0u);
  EXPECT_EQ(final_metrics.queues.dispatch_backlog, 0u);

  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
}

TEST(Server, ShutdownDrainAnswersEveryParkedFollower) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  Server server(options);
  const std::string held =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(held).leader);
  ServeThread serving(server, *listener);
  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);

  const auto connect = [&] { return connect_with_timeout(listener->port()); };
  std::unique_ptr<LineClient> monitor = connect();
  // More requests for the held cell than the pool has threads, each on
  // its own connection.
  constexpr size_t kBlockers = 20;
  std::vector<std::unique_ptr<LineClient>> blockers;
  for (size_t i = 0; i < kBlockers; ++i) {
    blockers.push_back(connect());
    ASSERT_TRUE(blockers.back()->send(std::string(kCoalescedRun) + "\n"));
  }
  ASSERT_TRUE(poll_until([&] {
    std::string line;
    if (!monitor->send("{\"type\":\"metrics\"}\n") ||
        !monitor->read_line(line)) {
      return false;
    }
    const ServeStats parked = ServeStats::from_wire(json::parse(line));
    return parked.connections.processing == int{kBlockers} &&
           parked.queues.executing == kBlockers &&
           parked.queues.dispatch_backlog == 0;
  }));

  // The drain has begun once the idle monitor connection is closed.
  server.request_shutdown();
  std::string line;
  EXPECT_FALSE(monitor->read_line(line));
  server.cache().publish(held, run(coalesced_cell(), options.run));
  for (const std::unique_ptr<LineClient>& blocker : blockers) {
    std::string got;
    ASSERT_TRUE(blocker->read_lines(1, got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(serving.join(), 0);
}

TEST(Server, ParkedFollowersHoldNoThread) {
  // 20 requests follow a held cell - more than the shared pool has
  // threads. A follower is a callback on the in-flight entry, so novel
  // misses on fresh connections are still computed and answered first.
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  Server server(options);
  const std::string held =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(held).leader);
  ServeThread serving(server, *listener);

  const std::string novel_run =
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":16,"schedule":"bf","loop":2})";
  const std::string novel_sweep =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib","pp":[4],)"
      R"("tp":[2],"dp":[8],"nmb":[4,12,24],"schedule":["bf","df"],)"
      R"("loop":[2],"format":"csv"})";
  Server reference;
  const std::string expected_run = reference.handle(novel_run);
  const std::string expected_sweep = reference.handle(novel_sweep);
  const std::string expected_held = reference.handle(kCoalescedRun);

  constexpr size_t kFollowers = 20;
  std::vector<std::unique_ptr<LineClient>> followers;
  for (size_t i = 0; i < kFollowers; ++i) {
    followers.push_back(connect_with_timeout(listener->port()));
    ASSERT_TRUE(followers.back()->send(std::string(kCoalescedRun) + "\n"));
  }
  ASSERT_TRUE(poll_until(
      [&] { return server.cache_stats().coalesced == kFollowers; }));

  std::unique_ptr<LineClient> run_client =
      connect_with_timeout(listener->port());
  std::unique_ptr<LineClient> sweep_client =
      connect_with_timeout(listener->port());
  ASSERT_TRUE(run_client->send(novel_run + "\n"));
  ASSERT_TRUE(sweep_client->send(novel_sweep + "\n"));
  std::string got;
  ASSERT_TRUE(run_client->read_lines(1, got));
  EXPECT_EQ(got, expected_run);
  got.clear();
  ASSERT_TRUE(sweep_client->read_lines(8, got));  // head, header, 6 rows
  EXPECT_EQ(got, expected_sweep);
  EXPECT_EQ(server.cache_stats().inflight, 1u);  // still held

  server.cache().publish(held, run(coalesced_cell(), options.run));
  for (const std::unique_ptr<LineClient>& follower : followers) {
    got.clear();
    ASSERT_TRUE(follower->read_lines(1, got));
    EXPECT_EQ(got, expected_held);
  }
  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
}

TEST(Server, ARequestWaitingForAPoolThreadCountsInTheDispatchBacklog) {
  // A request of more than 64 cells is probed on a pool thread, not on
  // the event loop. While every pool thread is busy it waits in the
  // pool's queue, and the metrics must show it waiting there.
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  ServeThread serving(server, *listener);

  const std::string sweep =
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib","pp":[4],)"
      R"("tp":[2],"dp":[8],"nmb":[)" + axis(65) + R"(],"schedule":["bf"],)"
      R"("loop":[2],"backend":"analytic"})";
  Server reference;
  const std::string expected = reference.handle(sweep);
  const auto lines =
      static_cast<size_t>(std::count(expected.begin(), expected.end(), '\n'));
  ASSERT_EQ(lines, 66u);  // header + 65 rows
  std::unique_ptr<LineClient> monitor = connect_with_timeout(listener->port());
  std::unique_ptr<LineClient> client = connect_with_timeout(listener->port());
  ServeStats seen;
  const auto observe = [&] {
    std::string line;
    if (!monitor->send("{\"type\":\"metrics\"}\n") ||
        !monitor->read_line(line)) {
      return false;
    }
    seen = ServeStats::from_wire(json::parse(line));
    return true;
  };

  // Hold every pool thread. Nothing below may return early: the test
  // must release them and stop the server whatever it finds. The tasks
  // share ownership of the latches, which a released thread may still
  // read after this test has returned.
  ThreadPool& pool = ThreadPool::shared();
  const auto holding = std::make_shared<std::latch>(pool.size());
  const auto release = std::make_shared<std::latch>(1);
  for (int i = 0; i < pool.size(); ++i) {
    pool.submit([holding, release] {
      holding->count_down();
      release->wait();
    });
  }
  holding->wait();
  const bool sent = client->send(sweep + "\n");
  const bool queued = sent && poll_until([&] {
    return observe() && seen.connections.processing == 1 &&
           seen.queues.dispatch_backlog == 1;
  });
  // Its wait in the pool's queue is service time like any other.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  release->count_down();
  EXPECT_TRUE(queued) << "dispatch_backlog " << seen.queues.dispatch_backlog;
  EXPECT_EQ(seen.queues.executing, 0u);

  std::string got;
  EXPECT_TRUE(client->read_lines(lines, got));
  EXPECT_EQ(got, expected);
  // The processing gauge refreshes per loop tick, so poll.
  EXPECT_TRUE(poll_until([&] {
    return observe() && seen.connections.processing == 0;
  }));
  EXPECT_EQ(seen.queues.dispatch_backlog, 0u);
  EXPECT_EQ(seen.queues.executing, 0u);
  EXPECT_GE(seen.latency.sum_us, 200000u);

  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
}

TEST(Server, ServeOnReturnsOnlyAfterAJobWhoseClientVanishedCompletes) {
  // A client resets its connection while its request follows a held
  // cell: the event loop drops the connection at once, but the Job still
  // runs, and serve_on must not return - releasing the server under it -
  // before that Job has handed back its completion.
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  ServeOptions options;
  Server server(options);
  const std::string held =
      cache_key(coalesced_cell(), std::nullopt, options.run);
  ASSERT_TRUE(server.cache().probe_or_lead(held).leader);
  ServeThread serving(server, *listener);

  std::unique_ptr<LineClient> monitor = connect_with_timeout(listener->port());
  {
    LineClient doomed(listener->port());
    ASSERT_TRUE(doomed.connected());
    ASSERT_TRUE(doomed.send(std::string(kCoalescedRun) + "\n"));
    ASSERT_TRUE(
        poll_until([&] { return server.cache_stats().coalesced == 1u; }));
    linger reset{};
    reset.l_onoff = 1;  // close() sends RST: the server's read fails
    ASSERT_EQ(::setsockopt(doomed.fd(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
  }  // ~LineClient resets the connection mid-request
  ASSERT_TRUE(poll_until([&] {
    std::string line;
    if (!monitor->send("{\"type\":\"metrics\"}\n") ||
        !monitor->read_line(line)) {
      return false;
    }
    const ServeStats seen = ServeStats::from_wire(json::parse(line));
    return seen.connections.active == 1 && seen.queues.executing == 1;
  }));

  server.request_shutdown();
  std::string line;
  EXPECT_FALSE(monitor->read_line(line));  // the drain closed the monitor
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(serving.returned());  // the orphaned Job is still pending
  server.cache().publish(held, run(coalesced_cell(), options.run));
  EXPECT_EQ(serving.join(), 0);
  const std::string metrics = server.handle(R"({"type":"metrics"})");
  const ServeStats after = ServeStats::from_wire(
      json::parse(metrics.substr(0, metrics.size() - 1)));
  EXPECT_EQ(after.queues.executing, 0u);
  EXPECT_EQ(after.queues.dispatch_backlog, 0u);
  EXPECT_EQ(after.cache.inflight, 0u);
}

TEST(Server, ClientVanishingMidResponseDoesNotDisturbOthers) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  ServeThread serving(server, *listener);

  // A client that sends a request and vanishes before the response: the
  // computation still finishes (and warms the cache); the dead socket is
  // reaped, not crashed into.
  {
    LineClient doomed(listener->port());
    ASSERT_TRUE(doomed.connected());
    ASSERT_TRUE(doomed.send(std::string(kCoalescedRun) + "\n"));
  }  // ~LineClient closes the socket mid-computation
  ASSERT_TRUE(
      poll_until([&] { return server.cache_stats().insertions == 1u; }));

  LineClient survivor(listener->port());
  ASSERT_TRUE(survivor.connected());
  Server reference;
  const std::string expected = reference.handle(kCoalescedRun);
  std::string got;
  ASSERT_TRUE(survivor.send(std::string(kCoalescedRun) + "\n"));
  ASSERT_TRUE(survivor.read_lines(1, got));
  EXPECT_EQ(got, expected);  // served from the cache the doomed run warmed
  EXPECT_EQ(server.cache_stats().hits, 1u);

  // The vanished connection is reaped (EOF or flush error), leaving only
  // the survivor active. The gauge refreshes per loop tick, so poll.
  ServeStats seen;
  ASSERT_TRUE(poll_until([&] {
    if (!survivor.send("{\"type\":\"metrics\"}\n")) return false;
    std::string line;
    if (!survivor.read_line(line)) return false;
    seen = ServeStats::from_wire(json::parse(line));
    return seen.connections.active == 1;
  }));
  EXPECT_EQ(seen.connections.accepted, 2u);

  server.request_shutdown();
  EXPECT_EQ(serving.join(), 0);
}

// `clients` connections, all open before the first request and held
// open through a cold wave (each client's own cell plus one cell every
// client races on) and a warm wave (the same two again). Even clients
// pipeline each wave in one write; odd clients trickle it one round trip
// at a time. Every response must be byte-identical to a serial handle()
// reference, and the shared cache must account for every request.
void expect_saturated_clients_match_serial(int clients) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0, clients);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  constexpr int kIdle = 4;
  const auto n = static_cast<size_t>(clients);
  ServeOptions options;
  options.max_connections = clients + kIdle + 2;
  Server server(options);
  ServeThread serving(server, *listener);

  // Per-client unique cells plus the shared cell (nmb=6, disjoint from
  // the unique nmb=4*(i+1) series).
  auto unique_run = [](size_t i) {
    return str_format(
        R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
        R"("tp":2,"dp":8,"nmb":%zu,"schedule":"bf","loop":2,)"
        R"("backend":"analytic"})",
        4 * (i + 1));
  };
  const std::string shared_run =
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":6,"schedule":"bf","loop":2,)"
      R"("backend":"analytic"})";

  // The serial reference a fresh server produces on one thread: every
  // concurrent transport response must be byte-identical to it.
  std::vector<std::string> expected(n);
  std::string expected_shared;
  {
    Server reference(options);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = reference.handle(unique_run(i));
    }
    expected_shared = reference.handle(shared_run);
  }

  // Idle connections held open across the whole run: they must cost
  // nothing and delay no one.
  std::vector<std::unique_ptr<LineClient>> idles;
  for (int i = 0; i < kIdle; ++i) {
    idles.push_back(std::make_unique<LineClient>(listener->port()));
    ASSERT_TRUE(idles.back()->connected());
  }

  std::vector<std::string> got(n);
  std::barrier all_connected(clients);
  std::barrier cold_done(clients);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      LineClient client(listener->port());
      EXPECT_TRUE(client.connected());
      auto wave = [&] {
        if (!client.connected()) return;
        const std::string requests[] = {unique_run(i), shared_run};
        std::string lines;
        if (i % 2 == 0) {
          EXPECT_TRUE(client.send(requests[0] + "\n" + requests[1] + "\n"));
          if (client.read_lines(2, lines)) got[i] += lines;
          return;
        }
        for (const std::string& request : requests) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          EXPECT_TRUE(client.send(request + "\n"));
          if (!client.read_lines(1, lines)) return;
          got[i] += lines;
        }
      };
      all_connected.arrive_and_wait();
      wave();  // cold
      cold_done.arrive_and_wait();
      wave();  // warm
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < n; ++i) {
    const std::string one_wave = expected[i] + expected_shared;
    EXPECT_EQ(got[i], one_wave + one_wave) << "client " << i;
  }

  // Exact shared-cache accounting: each unique cell missed once and hit
  // once, plus the shared cell - computed exactly once, with the other
  // requests for it split between coalesced waits and plain hits
  // depending on arrival time (the split is timing, the sum is not).
  const ReportCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, n + 1);
  EXPECT_EQ(stats.insertions, n + 1);
  EXPECT_EQ(stats.hits + stats.coalesced, 3 * n - 1);
  EXPECT_EQ(stats.inflight, 0u);

  // Orderly drain: the idle clients get EOF, not abandonment.
  LineClient stopper(listener->port());
  ASSERT_TRUE(stopper.connected());
  ASSERT_TRUE(stopper.send("{\"type\":\"shutdown\"}\n"));
  std::string bye;
  ASSERT_TRUE(stopper.read_line(bye));
  EXPECT_EQ(bye, "{\"ok\":true,\"type\":\"shutdown\"}");
  EXPECT_EQ(serving.join(), 0);
  for (const std::unique_ptr<LineClient>& idle : idles) {
    std::string nothing;
    EXPECT_FALSE(idle->read_line(nothing));
  }
}

TEST(Server, SaturationSixtyFourMixedClientsGetByteIdenticalResponses) {
  expect_saturated_clients_match_serial(64);
}

TEST(Server, Saturation256HeldOpenClientsGetByteIdenticalResponses) {
  expect_saturated_clients_match_serial(256);
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

TEST(Server, SnapshotHitsSpliceTheComputedBytesInBothFormats) {
  // A warm start holds no rendered tails: the first hit in each format
  // renders and stores them, the second splices the stored ones. Both
  // must equal what a cacheless server computes and renders afresh.
  const std::string path = testing::TempDir() + "bfpp_serve_tails.jsonl";
  std::remove(path.c_str());
  const std::vector<std::string> requests = {
      // A preset run: the empty label shows the scenario's name.
      R"({"type":"run","preset":"fig5a-bf-b16","backend":"analytic")",
      R"({"type":"run","model":"6.6b","cluster":"dgx1-v100-ib","pp":4,)"
      R"("tp":2,"dp":8,"nmb":8,"schedule":"bf","loop":2,"backend":"analytic")",
      // A search, with its frugal block.
      R"({"type":"search","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("batch":64,"method":"bf","backend":"analytic")",
      // An infeasible cell: found=false with an [oom] error.
      R"({"type":"run","model":"52b","cluster":"dgx1-v100-ib","pp":1,)"
      R"("tp":1,"dp":64,"nmb":1,"schedule":"gpipe","backend":"analytic")",
      // Two cached cells (one shared with the run above, under another
      // label) and two [config] rows, which have no key.
      R"({"type":"sweep","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("pp":[4,3],"tp":[2],"dp":[8],"nmb":[8,16],"schedule":["bf"],)"
      R"("loop":[2],"backend":"analytic")"};
  const size_t keyed_cells = 1 + 1 + 1 + 1 + 2;
  std::vector<std::string> lines;  // every request in JSON, then in CSV
  for (const std::string& r : requests) lines.push_back(r + "}");
  for (const std::string& r : requests) {
    lines.push_back(r + R"(,"format":"csv"})");
  }

  ServeOptions cacheless;
  cacheless.cache_capacity = 0;
  Server reference(cacheless);
  std::vector<std::string> want;
  for (const std::string& line : lines) {
    want.push_back(reference.handle(line));
    ASSERT_NE(want.back().find("\"ok\":true"), std::string::npos) << line;
  }

  ServeOptions options;
  options.cache_file = path;
  {
    Server writer(options);
    for (const std::string& r : requests) (void)writer.handle(r + "}");
    ASSERT_TRUE(writer.persist_cache());
  }
  Server restarted(options);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(restarted.handle(lines[i]), want[i])
          << "pass " << pass << ": " << lines[i];
    }
  }
  const ReportCache::Stats stats = restarted.cache_stats();
  EXPECT_EQ(stats.hits, 2 * 2 * keyed_cells);  // two passes, two formats
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
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

TEST(Server, CacheSizeZeroLeavesTheCacheFileAlone) {
  // A cache that stores nothing has nothing to persist: a shutdown
  // compaction would replace the file's cells with an empty snapshot.
  const std::string path = testing::TempDir() + "bfpp_cache_size_zero.jsonl";
  std::remove(path.c_str());
  ServeOptions options;
  options.cache_file = path;
  {
    Server writer(options);
    (void)writer.handle(journal_run(0));
    ASSERT_TRUE(writer.persist_cache());
  }
  const std::optional<std::string> before = serialize::read_file(path);
  ASSERT_TRUE(before.has_value());
  options.cache_capacity = 0;
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs((journal_run(1) + "\n").c_str(), in);
  std::rewind(in);
  {
    Server cacheless(options);
    EXPECT_EQ(cacheless.serve_stdio(in, out), 0);  // compacts on the way out
    EXPECT_FALSE(cacheless.persist_cache());
  }
  std::fclose(in);
  std::fclose(out);
  EXPECT_EQ(serialize::read_file(path), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfpp::api
