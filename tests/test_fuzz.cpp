// Seeded mutation fuzzing of the two parsers that read untrusted bytes:
// parse_request() (a `bfpp serve` request line) and ReportCache::load()
// (a cache file: a snapshot plus its journal tail). The seeds are the
// request lines docs/PROTOCOL.md shows and a cache file this test writes;
// each case applies a few byte flips, inserted JSON punctuation,
// truncations and duplicated spans. The properties:
//   - parse_request either fills the request or throws a bfpp::Error;
//   - ReportCache::load never throws;
//   - whatever load keeps, save writes, and a second load and save of
//     that file write the same bytes.
// The seed is fixed, so a failure names a case that reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "api/report_cache.h"
#include "api/request.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"

#ifndef BFPP_PROTOCOL_MD
#error "BFPP_PROTOCOL_MD must point at docs/PROTOCOL.md (CMakeLists.txt)"
#endif

namespace bfpp::api {
namespace {

constexpr uint64_t kSeed = 0xf0221e5;

// Applies one to four mutations to `input`.
std::string mutate(std::string input, Rng& rng) {
  static constexpr std::string_view kPunctuation[] = {
      "{", "}", "[", "]", ":", ",", "\"", "\\", "-", "0", "1e999",
      "null", "true", "\"\"", "[]", "{}", "\\u0000", "\\ud800", "\xff"};
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform_index(n + 1));  // 0..n
  };
  const size_t rounds = 1 + static_cast<size_t>(rng.uniform_index(4));
  for (size_t round = 0; round < rounds; ++round) {
    const size_t at = pick(input.size());
    switch (rng.uniform_index(4)) {
      case 0:  // flip a byte
        if (at < input.size()) {
          input[at] =
              static_cast<char>(input[at] ^ (1 << rng.uniform_index(8)));
        }
        break;
      case 1:  // insert JSON punctuation
        input.insert(
            at, kPunctuation[rng.uniform_index(std::size(kPunctuation))]);
        break;
      case 2:  // truncate
        input.resize(at);
        break;
      default: {  // duplicate a span
        const size_t from = pick(input.size());
        const size_t length = pick(std::min<size_t>(input.size() - from, 64));
        input.insert(at, input.substr(from, length));
        break;
      }
    }
  }
  return input;
}

// The request lines docs/PROTOCOL.md sends: each '{...}' quoted in a
// shell command line.
std::vector<std::string> protocol_requests() {
  std::ifstream in(BFPP_PROTOCOL_MD);
  std::vector<std::string> requests;
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find("'{\"");
    if (line.find("printf") == std::string::npos ||
        begin == std::string::npos) {
      continue;
    }
    const size_t end = line.find("}'", begin);
    if (end != std::string::npos) {
      requests.push_back(line.substr(begin + 1, end - begin));
    }
  }
  return requests;
}

TEST(Fuzz, ParseRequestFillsTheRequestOrThrowsAnError) {
  const std::vector<std::string> seeds = protocol_requests();
  ASSERT_GE(seeds.size(), 10u)
      << "too few request lines found in " BFPP_PROTOCOL_MD;
  for (const std::string& seed : seeds) {
    Request req;
    parse_request(seed, RunOptions{}, 0, req);  // every seed parses
  }
  Rng rng(kSeed);
  size_t parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line =
        mutate(seeds[rng.uniform_index(seeds.size())], rng);
    Request req;
    try {
      parse_request(line, RunOptions{}, 0, req);
    } catch (const Error&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw " << e.what() << ": " << line;
      continue;
    }
    ++parsed;
    EXPECT_FALSE(req.type.empty()) << line;
    EXPECT_LE(req.cells.size(), kMaxCellsPerRequest) << line;
    for (const RequestCell& cell : req.cells) {
      // A cell is built and keyed, or carries the row of its failure.
      EXPECT_NE(cell.built.has_value(), cell.failed.has_value()) << line;
      EXPECT_EQ(cell.key.empty(), cell.failed.has_value()) << line;
    }
  }
  EXPECT_GT(parsed, 0u);  // some mutations keep a valid request
}

std::optional<std::string> read(const std::string& path) {
  return serialize::read_file(path);
}

TEST(Fuzz, CacheFileLoadNeverThrowsAndWhatItKeepsSavesStably) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "bfpp_fuzz_cache.jsonl";
  const std::string saved = dir + "bfpp_fuzz_saved.jsonl";
  const std::string resaved = dir + "bfpp_fuzz_resaved.jsonl";
  std::remove(path.c_str());
  RunOptions analytic;
  analytic.backend = Backend::kAnalytic;
  {
    // A snapshot of two cells, then a journal tail of two more, one of
    // them the negative row of an infeasible configuration.
    ReportCache cache(8, path);
    const auto cell = [&](int nmb, int pp) {
      const Scenario s = ScenarioBuilder()
                             .model("6.6b")
                             .cluster("dgx1-v100-ib")
                             .pp(pp)
                             .tp(2)
                             .nmb(nmb)
                             .schedule("bf")
                             .loop(2)
                             .build();
      cache.publish(cache_key(s, std::nullopt, analytic), run(s, analytic));
    };
    cell(8, 4);
    cell(16, 4);
    ASSERT_TRUE(cache.compact());
    cell(32, 4);
    Report negative;
    negative.scenario = "fuzz/negative";
    negative.model = "52B";
    negative.found = false;
    negative.error = "[oom] 52B does not fit on one GPU";
    cache.publish("negative", negative);
  }
  const std::optional<std::string> seed = read(path);
  ASSERT_TRUE(seed.has_value());
  ASSERT_EQ(serialize::split_lines(*seed).size(), 5u);  // header + 4

  Rng rng(kSeed);
  for (int i = 0; i < 1500; ++i) {
    const std::string content = i == 0 ? *seed : mutate(*seed, rng);
    ASSERT_TRUE(serialize::write_file_atomic(path, content));
    ReportCache loaded(8);
    size_t entries = 0;
    EXPECT_NO_THROW(entries = loaded.load(path)) << "case " << i;
    if (i == 0) EXPECT_EQ(entries, 4u);
    ASSERT_TRUE(loaded.save(saved));
    ReportCache reloaded(8);
    EXPECT_NO_THROW((void)reloaded.load(saved)) << "case " << i;
    ASSERT_TRUE(reloaded.save(resaved));
    EXPECT_EQ(reloaded.stats().entries, loaded.stats().entries)
        << "case " << i << ":\n" << content;
    EXPECT_EQ(read(saved), read(resaved)) << "case " << i << ":\n" << content;
  }
  for (const std::string& file : {path, saved, resaved}) {
    std::remove(file.c_str());
  }
}

}  // namespace
}  // namespace bfpp::api
