// The cache-hit path's allocation budget: how many times a cached run or
// sweep calls the global operator new inside Server::handle().
//
// On a saturated `bfpp serve` the event loop is the bottleneck, and a hit
// is answered on it from end to end, so a heap allocation there is paid
// by every client. This test replaces the global operator new with a
// counting one and pins the budget of the two request shapes the serve
// benchmark's hot workload sends: a one-cell JSON run and an 8-cell CSV
// sweep. It also holds each hit to the bytes its miss was answered with.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "api/server.h"

namespace {

// Calls to operator new on this thread while `t_counting` is set. A hit
// never leaves the calling thread, so pool threads cannot blur the count.
thread_local long t_allocations = 0;
thread_local bool t_counting = false;

}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bfpp::api {
namespace {

// The budgets, response included.
constexpr long kRunHitAllocations = 18;
constexpr long kSweepHitAllocations = 75;

struct Counted {
  std::string response;
  long allocations = 0;
};

Counted counted_handle(Server& server, const std::string& line) {
  t_allocations = 0;
  t_counting = true;
  std::string response = server.handle(line);
  t_counting = false;
  return {std::move(response), t_allocations};
}

// Answers `line` once to cache its cells and once more to render and
// store their row tails, as the first hit on a cell does; then counts a
// third answer, the steady-state hit. Checks that both hits carry the
// miss's bytes and returns the count.
long hit_allocations(const std::string& line, size_t cells) {
  Server server;
  const std::string miss = server.handle(line);
  EXPECT_NE(miss.find("\"ok\":true"), std::string::npos) << miss;
  EXPECT_EQ(miss.find("[config]"), std::string::npos) << miss;
  EXPECT_EQ(server.cache_stats().misses, cells);
  EXPECT_EQ(server.handle(line), miss);
  const ReportCache::Stats before = server.cache_stats();
  const Counted hit = counted_handle(server, line);
  EXPECT_EQ(hit.response, miss);
  const ReportCache::Stats after = server.cache_stats();
  EXPECT_EQ(after.hits - before.hits, cells);
  EXPECT_EQ(after.misses, before.misses);
  return hit.allocations;
}

TEST(HitPath, OneCellJsonRunHitStaysWithinItsAllocationBudget) {
  const long allocations = hit_allocations(
      R"({"id":7,"type":"run","model":"6.6b","cluster":"dgx1-v100-ib",)"
      R"("schedule":"bf","pp":4,"tp":2,"dp":8,"smb":1,"nmb":8,"loop":2})",
      1);
  EXPECT_LE(allocations, kRunHitAllocations);
}

TEST(HitPath, EightCellCsvSweepHitStaysWithinItsAllocationBudget) {
  const long allocations = hit_allocations(
      R"({"id":8,"type":"sweep","format":"csv","model":["6.6b"],)"
      R"("cluster":["dgx1-v100-ib"],"schedule":["bf"],"pp":[4],"tp":[2],)"
      R"("dp":[8],"smb":[1],"nmb":[4,8,12,16],"loop":[1,2]})",
      8);
  EXPECT_LE(allocations, kSweepHitAllocations);
}

TEST(HitPath, CountingSeesAllocations) {
  // The replaced operator new is the one the library calls: a request
  // that renders a response cannot take none.
  Server server;
  EXPECT_GT(counted_handle(server, R"({"type":"ping"})").allocations, 0);
}

}  // namespace
}  // namespace bfpp::api
