// Golden-report regression suite: the `fig5-quick` compare grid (all six
// schedule families on the 6.6B point, batches 64 and 128) serialized to
// JSON and CSV, and the `bfpp serve` response lines for the same grid
// (through handle(), and over loopback TCP both computed and cached),
// must byte-match the files checked into tests/golden/.
// Any intentional change to costs, schedules, or serialization shows up
// here as a diff that has to be re-recorded, reviewed, and committed.
//
// Regenerating after an intentional change:
//
//   BFPP_UPDATE_GOLDEN=1 ./build/tests/test_golden
//     or
//   ./build/tests/test_golden --update-golden
//
// then `git diff tests/golden/` to review what moved before committing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/compare.h"
#include "api/engine.h"
#include "api/report.h"
#include "api/server.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/json.h"
#include "common/socket.h"
#include "golden_util.h"
#include "line_client.h"

namespace bfpp::api {
namespace {

// One sweep per process; both serializations pin the same Reports.
const std::vector<Report>& fig5_quick_reports() {
  static const std::vector<Report>* reports = [] {
    SweepOptions options;
    options.jobs = 1;  // the contract says jobs-independent; keep CI serial
    return new std::vector<Report>(sweep(compare_grid("fig5-quick"), options));
  }();
  return *reports;
}

TEST(Golden, GridShapeCoversAllFamilies) {
  const auto& reports = fig5_quick_reports();
  // 2 batches x 6 schedule families, one row per cell, always.
  ASSERT_EQ(reports.size(), 12u);
  for (const char* family :
       {"/bf", "/df", "/1f1b-async", "/unbalanced", "/v", "/2bp"}) {
    int seen = 0;
    for (const Report& r : reports) {
      if (r.scenario.size() >= std::string(family).size() &&
          r.scenario.rfind(family) ==
              r.scenario.size() - std::string(family).size()) {
        ++seen;
      }
    }
    EXPECT_EQ(seen, 2) << "family column " << family;
  }
}

TEST(Golden, Fig5QuickJsonIsByteStable) {
  bfpp::testing::check_golden("fig5_quick.json", to_json(fig5_quick_reports()));
}

TEST(Golden, Fig5QuickCsvIsByteStable) {
  bfpp::testing::check_golden("fig5_quick.csv", to_csv(fig5_quick_reports()));
}

// The pretty forms no other golden reaches: a search Report (with its
// "search" and "frugal" blocks) and an infeasible cell (with "error"),
// as `bfpp sweep --json` prints them.
TEST(Golden, SearchAndInfeasibleJsonAreByteStable) {
  ScenarioGrid grid;
  grid.push({ScenarioBuilder().model("6.6b").cluster("dgx1-v100-ib").batch(64),
             autotune::Method::kBreadthFirst, "search"});
  grid.push({ScenarioBuilder()
                 .model("52b")
                 .cluster("dgx1-v100-ib")
                 .pp(1)
                 .tp(1)
                 .dp(64)
                 .nmb(1)
                 .schedule("gpipe"),
             std::nullopt, "oom"});
  SweepOptions options;
  options.jobs = 1;
  options.run.backend = parse_backend("analytic");
  bfpp::testing::check_golden("search_and_oom.json",
                              to_json(sweep(grid, options)));
}

// The protocol's report bytes: run, sweep and compare responses over the
// fig5-quick point in both formats, one infeasible cell (its Report
// carries "error") and one search (its Report carries "search" and
// "frugal"), answered in order by one fresh server.
std::vector<std::string> serve_requests() {
  const std::string point =
      R"("model":"6.6b","cluster":"dgx1-v100-ib","pp":4,"tp":2,"dp":8)";
  const std::string oom =
      R"("model":"52b","cluster":"dgx1-v100-ib","pp":1,"tp":1,"dp":64,)"
      R"("nmb":1,"schedule":"gpipe")";
  return {
      R"({"id":1,"type":"run",)" + point +
          R"(,"nmb":8,"schedule":"bf","loop":4})",
      R"({"type":"run",)" + point +
          R"(,"nmb":16,"schedule":"df","loop":4,"megatron":true})",
      R"({"type":"run",)" + point + R"(,"nmb":8,"schedule":"1f1b-async"})",
      R"({"type":"run",)" + point + R"(,"nmb":16,"schedule":"unbalanced"})",
      R"({"type":"run",)" + point + R"(,"nmb":8,"schedule":"v","loop":2})",
      R"({"type":"run",)" + point + R"(,"nmb":16,"schedule":"2bp"})",
      R"({"id":"csv","type":"run",)" + point +
          R"(,"nmb":8,"schedule":"bf","loop":4,"format":"csv"})",
      R"({"type":"run",)" + oom + "}",
      R"({"type":"run",)" + oom + R"(,"format":"csv"})",
      R"({"id":2,"type":"sweep",)" + point +
          R"(,"nmb":[8,16],"schedule":["bf","df"],"loop":4})",
      R"({"type":"sweep",)" + point +
          R"(,"nmb":[8,16],"schedule":["bf","df"],"loop":4,"format":"csv"})",
      R"({"type":"compare","grid":"fig5-quick"})",
      R"({"type":"compare","grid":"fig5-quick","format":"csv"})",
      R"({"type":"search","model":"6.6b","batch":64,"method":"bf",)"
      R"("backend":"analytic"})",
  };
}

TEST(Golden, ServeResponsesAreByteStable) {
  Server server;
  std::string responses;
  for (const std::string& request : serve_requests()) {
    responses += server.handle(request);
  }
  bfpp::testing::check_golden("serve_responses.jsonl", responses);
}

// Sends one request line over `client` and appends its whole response
// (the header line plus the "lines" it announces) to `out`. Returns the
// number of cells the response carries.
uint64_t round_trip(test_util::LineClient& client, const std::string& request,
                    std::string& out) {
  std::string line;
  EXPECT_TRUE(client.send(request + "\n"));
  EXPECT_TRUE(client.read_line(line));
  out += line + "\n";
  const json::Value head = json::parse(line);
  const json::Value* lines = head.get("lines");
  if (lines == nullptr) return 1;  // a run or search: its report inline
  std::string rows;
  EXPECT_TRUE(client.read_lines(static_cast<size_t>(lines->as_int()), rows));
  out += rows;
  return static_cast<uint64_t>(head.get("rows")->as_int());
}

ReportCache::Stats tcp_cache_stats(test_util::LineClient& client) {
  std::string line;
  EXPECT_TRUE(client.send("{\"type\":\"stats\"}\n"));
  EXPECT_TRUE(client.read_line(line));
  return ServeStats::from_wire(json::parse(line)).cache;
}

// The same request list over one loopback connection to a fresh
// `bfpp serve` event loop, twice. The first pass computes (nearly every
// request goes to an executor); the second finds every cell cached and
// is answered on the event loop. Both must be the golden bytes.
TEST(Golden, ServeResponsesAreByteStableOverTcpComputedAndCached) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(0);
  } catch (const ConfigError& e) {
    GTEST_SKIP() << e.what();
  }
  Server server;
  test_util::ServeThread serving(server, *listener);
  test_util::LineClient client(listener->port());
  ASSERT_TRUE(client.connected());

  for (int pass = 0; pass < 2; ++pass) {
    const ReportCache::Stats before = tcp_cache_stats(client);
    std::string responses;
    uint64_t cells = 0;
    for (const std::string& request : serve_requests()) {
      cells += round_trip(client, request, responses);
    }
    bfpp::testing::check_golden("serve_responses.jsonl", responses);
    if (pass == 1) {
      const ReportCache::Stats after = tcp_cache_stats(client);
      EXPECT_EQ(after.hits - before.hits, cells);  // one hit per cell
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_EQ(after.coalesced, before.coalesced);
    }
  }
  ASSERT_TRUE(client.send("{\"type\":\"shutdown\"}\n"));
  std::string bye;
  ASSERT_TRUE(client.read_line(bye));
  EXPECT_EQ(serving.join(), 0);
}

}  // namespace
}  // namespace bfpp::api
