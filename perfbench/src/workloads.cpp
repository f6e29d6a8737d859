// Seeded request lists for the three serve workloads.
//
// Every cell comes from one CellSpace per run, which hands out disjoint
// micro-batch windows per base configuration, so a cell never repeats
// unless a workload repeats it on purpose. Cells are checked with the
// library's own validation and memory model before they are used, so no
// request fails and every row is a found=true report.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <list>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "memmodel/memory.h"

namespace perfbench {

using bfpp::Rng;
using bfpp::str_format;

bfpp::api::ScenarioBuilder Cell::builder() const {
  bfpp::api::ScenarioBuilder b;
  b.model(model).cluster(cluster).schedule(schedule).pp(pp).tp(tp).dp(dp)
      .smb(smb).nmb(nmb).loop(loop);
  return b;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_ref_us() {
  // Integer mixing plus a dependent floating-point chain: touches the
  // ALUs and the FPU but no memory, so it tracks clock speed and CPU
  // steal, not cache state.
  const int64_t start = now_ns();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (int i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.9999999 + static_cast<double>(x & 0xff) * 1e-9;
  }
  volatile double sink = acc + static_cast<double>(x & 1);
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e3;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

namespace {

std::string cell_key(const Cell& c) {
  return str_format("%s|%s|%s|%d|%d|%d|%d|%d|%d", c.model.c_str(),
                    c.cluster.c_str(), c.schedule.c_str(), c.pp, c.tp, c.dp,
                    c.smb, c.nmb, c.loop);
}

const std::vector<std::string> kFamilies = {"bf", "df", "1f1b-async",
                                            "unbalanced", "v", "2bp"};

// Largest micro-batch count a window may reach: keeps the costliest
// cell within a few milliseconds of simulation.
constexpr int kMaxNmb = 48;

// The pool of base configurations (model, cluster, grid, schedule) and
// the next free micro-batch window of each.
class CellSpace {
 public:
  CellSpace() {
    for (const char* model : {"6.6b", "52b"}) {
      for (const char* cluster :
           {"dgx1-v100-ib", "dgx1-v100-eth", "dgx-a100-ib"}) {
        for (const int nodes : {1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24}) {
          for (const int pp : {2, 4, 8}) {
            for (const int tp : {1, 2, 4, 8}) {
              const int gpus = 8 * nodes;
              if (gpus % (pp * tp) != 0) continue;
              for (const int smb : {1, 2}) {
                for (const std::string& family : kFamilies) {
                  Base b;
                  b.cell.model = model;
                  b.cell.cluster = str_format("%s:%d", cluster, nodes);
                  b.cell.schedule = family;
                  b.cell.pp = pp;
                  b.cell.tp = tp;
                  b.cell.dp = gpus / (pp * tp);
                  b.cell.smb = smb;
                  bases_.push_back(b);
                }
              }
            }
          }
        }
      }
    }
  }

  // `n_nmb` fresh micro-batch counts x `loops` on one random base of
  // `family`, every cell valid and fitting in memory. Throws when the
  // space is exhausted (a sizing bug, not a run-time condition).
  std::vector<Cell> draw(Rng& rng, const std::string& family, int n_nmb,
                         const std::vector<int>& loops) {
    for (int attempt = 0; attempt < 4000; ++attempt) {
      Base& base = bases_[rng.uniform_index(bases_.size())];
      if (base.exhausted || base.cell.schedule != family) continue;
      // Depth-first needs N_mb in multiples of N_PP; every other family
      // steps N_mb by one from N_PP, the smallest count that fills the
      // pipeline.
      const int step = family == "df" ? base.cell.pp : 1;
      if (base.cell.pp + step * (base.offset + n_nmb - 1) > kMaxNmb) {
        base.exhausted = true;
        continue;
      }
      std::vector<Cell> cells;
      bool ok = true;
      for (int j = 0; j < n_nmb && ok; ++j) {
        for (const int loop : loops) {
          Cell c = base.cell;
          c.nmb = base.cell.pp + step * (base.offset + j);
          c.loop = loop;
          if (!feasible(c)) {
            ok = false;
            break;
          }
          cells.push_back(c);
        }
      }
      if (!ok) {
        // Memory only grows with N_mb, and a loop count the base cannot
        // take fails for every window: retire the base.
        base.exhausted = true;
        continue;
      }
      base.offset += n_nmb;
      for (const Cell& c : cells) {
        if (!seen_.insert(cell_key(c)).second) {
          throw std::logic_error("perfbench: cell drawn twice: " +
                                 cell_key(c));
        }
      }
      return cells;
    }
    throw std::runtime_error("perfbench: cell space exhausted for " + family);
  }

 private:
  struct Base {
    Cell cell;
    int offset = 0;  // N_mb values handed out so far
    bool exhausted = false;
  };

  static bool feasible(const Cell& c) {
    try {
      const bfpp::api::Scenario s = c.builder().build();
      return bfpp::memmodel::fits(s.model, s.require_config(), s.cluster);
    } catch (const bfpp::ConfigError&) {
      return false;
    }
  }

  std::vector<Base> bases_;
  std::set<std::string> seen_;
};

std::string quoted_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ",\"" : "\"") + xs[i] + "\"";
  }
  return out + "]";
}

std::string int_list(std::vector<int> xs) {
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    out += (i ? "," : "") + std::to_string(xs[i]);
  }
  return out + "]";
}

// A sweep over the cells of one draw (they share every axis but nmb and
// loop, so the grid is exactly those cells).
Request sweep_request(int id, const std::vector<Cell>& cells, bool csv) {
  const Cell& c = cells.front();
  std::vector<int> nmbs, loops;
  for (const Cell& x : cells) {
    nmbs.push_back(x.nmb);
    loops.push_back(x.loop);
  }
  Request r;
  r.sweep = true;
  r.csv = csv;
  r.cells = cells;
  r.line = str_format(
      "{\"id\":%d,\"type\":\"sweep\",\"format\":\"%s\",\"model\":%s,"
      "\"cluster\":%s,\"schedule\":%s,\"pp\":[%d],\"tp\":[%d],\"dp\":[%d],"
      "\"smb\":[%d],\"nmb\":%s,\"loop\":%s}",
      id, csv ? "csv" : "json", quoted_list({c.model}).c_str(),
      quoted_list({c.cluster}).c_str(), quoted_list({c.schedule}).c_str(),
      c.pp, c.tp, c.dp, c.smb, int_list(nmbs).c_str(), int_list(loops).c_str());
  return r;
}

Request run_request(int id, const Cell& c, bool csv) {
  Request r;
  r.csv = csv;
  r.cells = {c};
  r.line = str_format(
      "{\"id\":%d,\"type\":\"run\",%s\"model\":\"%s\",\"cluster\":\"%s\","
      "\"schedule\":\"%s\",\"pp\":%d,\"tp\":%d,\"dp\":%d,\"smb\":%d,"
      "\"nmb\":%d,\"loop\":%d}",
      id, csv ? "\"format\":\"csv\"," : "", c.model.c_str(),
      c.cluster.c_str(), c.schedule.c_str(), c.pp, c.tp, c.dp, c.smb, c.nmb,
      c.loop);
  return r;
}

// One 8-cell block of the snapshot working set.
std::vector<Cell> draw_block(CellSpace& space, Rng& rng) {
  const std::string& family = kFamilies[rng.uniform_index(kFamilies.size())];
  if (family == "bf" || family == "df") {
    return rng.uniform_index(2) == 0 ? space.draw(rng, family, 4, {1, 2})
                                     : space.draw(rng, family, 2, {1, 2, 4, 8});
  }
  return space.draw(rng, family, 8, {family == "v" ? 2 : 1});
}

// A seeded 6-12-cell neighbour sweep (nmb x loop) of a random family.
std::vector<Cell> draw_neighbour_sweep(CellSpace& space, Rng& rng) {
  const std::string& family = kFamilies[rng.uniform_index(kFamilies.size())];
  if (family == "bf" || family == "df") {
    if (rng.uniform_index(2) == 0) {
      return space.draw(rng, family, 3 + static_cast<int>(rng.uniform_index(4)),
                        {1, 2});
    }
    return space.draw(rng, family, 2 + static_cast<int>(rng.uniform_index(3)),
                      {1, 2, 4});
  }
  return space.draw(rng, family, 6 + static_cast<int>(rng.uniform_index(7)),
                    {family == "v" ? 2 : 1});
}

// A single novel cell (one micro-batch window of one loop value).
Cell draw_novel(CellSpace& space, Rng& rng) {
  const std::string& family = kFamilies[rng.uniform_index(kFamilies.size())];
  int loop = 1;
  if (family == "v") loop = 2;
  if (family == "bf" || family == "df") {
    loop = 1 << static_cast<int>(rng.uniform_index(3));
  }
  return space.draw(rng, family, 1, {loop}).front();
}

// The snapshot working set: `blocks` sweeps of 8 cells. Returns the
// warm requests in load order (the last ones end up most recently used).
std::vector<Request> working_set(CellSpace& space, Rng& rng, int blocks) {
  std::vector<Request> warm;
  for (int b = 0; b < blocks; ++b) {
    warm.push_back(sweep_request(-1 - b, draw_block(space, rng), true));
  }
  return warm;
}

std::vector<size_t> draw_sample(Rng& rng, size_t n, size_t k) {
  std::set<size_t> picked;
  k = std::min(k, n);
  while (picked.size() < k) picked.insert(rng.uniform_index(n));
  return {picked.begin(), picked.end()};
}

struct Sizes {
  int blocks;       // 8-cell blocks in the snapshot working set
  int hot_blocks;   // serve_churn: blocks whose cells form the hot subset
  int hot_requests;
  int cold_requests;
  int churn_epochs;
  int churn_novel_per_epoch;
  size_t sample;
};

Sizes sizes_for(int seconds, bool smoke) {
  if (smoke) return {8, 2, 40, 8, 2, 2, 6};
  // Requests per measured second on a 4-vCPU host; the run length
  // follows --seconds but the work never depends on elapsed time.
  return {128, 32, 5000 * seconds, 400 * seconds, 3 * seconds, 8, 48};
}

Workload serve_hot(uint64_t seed, const Sizes& z) {
  Rng rng(seed ^ 0x686f74ULL);
  CellSpace space;
  Workload w;
  w.name = "serve_hot";
  w.connections = 3;
  w.capacity = static_cast<size_t>(z.blocks) * 8;
  w.snapshot = true;
  w.warm = working_set(space, rng, z.blocks);
  std::vector<Cell> cells;
  for (const Request& r : w.warm) {
    cells.insert(cells.end(), r.cells.begin(), r.cells.end());
  }
  for (int i = 0; i < z.hot_requests; ++i) {
    if (rng.uniform_index(4) == 0) {
      const Request& block = w.warm[rng.uniform_index(w.warm.size())];
      w.requests.push_back(sweep_request(i, block.cells, true));
    } else {
      w.requests.push_back(
          run_request(i, cells[rng.uniform_index(cells.size())], false));
    }
  }
  w.sample = draw_sample(rng, w.requests.size(), z.sample);
  return w;
}

Workload sweep_cold(uint64_t seed, const Sizes& z) {
  Rng rng(seed ^ 0x636f6c64ULL);
  CellSpace space;
  Workload w;
  w.name = "sweep_cold";
  w.connections = 2;
  w.capacity = 1024;
  std::vector<std::vector<Cell>> sweeps;
  for (int i = 0; i < z.cold_requests; ++i) {
    sweeps.push_back(draw_neighbour_sweep(space, rng));
  }
  // The space hands out each base's N_mb windows in increasing order, so
  // later draws are costlier; a seeded shuffle keeps the cost per cell
  // the same throughout the window.
  for (size_t i = sweeps.size(); i > 1; --i) {
    std::swap(sweeps[i - 1], sweeps[rng.uniform_index(i)]);
  }
  for (size_t i = 0; i < sweeps.size(); ++i) {
    Request r = sweep_request(static_cast<int>(i), sweeps[i],
                              rng.uniform_index(2) == 0);
    r.novel = true;
    w.requests.push_back(std::move(r));
  }
  w.sample = draw_sample(rng, w.requests.size(), z.sample / 2);
  return w;
}

Workload serve_churn(uint64_t seed, const Sizes& z) {
  Rng rng(seed ^ 0x636875726eULL);
  CellSpace space;
  Workload w;
  w.name = "serve_churn";
  w.connections = 3;
  w.capacity = static_cast<size_t>(z.blocks) * 8;
  w.snapshot = true;
  w.pool_all_rounds = true;
  w.warm = working_set(space, rng, z.blocks);
  // The hot subset is the most recently loaded blocks, so it starts at
  // the MRU end and inserts evict only cold entries.
  std::vector<Cell> hot;
  for (size_t b = w.warm.size() - static_cast<size_t>(z.hot_blocks);
       b < w.warm.size(); ++b) {
    hot.insert(hot.end(), w.warm[b].cells.begin(), w.warm[b].cells.end());
  }
  int id = 0;
  int novel_count = 0;
  for (int e = 0; e < z.churn_epochs; ++e) {
    // One epoch touches every hot cell once, in a seeded order, with the
    // novel cells at seeded positions among them.
    std::vector<size_t> order(hot.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    size_t hot_left = hot.size();
    int novel_left = z.churn_novel_per_epoch;
    size_t next_hot = 0;
    while (hot_left > 0 || novel_left > 0) {
      const uint64_t total = hot_left + static_cast<uint64_t>(novel_left);
      const bool csv = rng.uniform_index(4) == 0;
      if (rng.uniform_index(total) < static_cast<uint64_t>(novel_left)) {
        --novel_left;
        Request r = run_request(id++, draw_novel(space, rng), csv);
        r.novel = true;
        // Every 16th novel cell is sent on two connections at once.
        if (++novel_count % 16 == 0) {
          Request twin = run_request(id++, r.cells.front(), csv);
          twin.novel = true;
          r.pair_first = true;
          w.requests.push_back(std::move(r));
          w.requests.push_back(std::move(twin));
        } else {
          w.requests.push_back(std::move(r));
        }
      } else {
        --hot_left;
        w.requests.push_back(run_request(id++, hot[order[next_hot++]], csv));
      }
    }
  }
  w.sample = draw_sample(rng, w.requests.size(), z.sample);
  return w;
}

}  // namespace

// Serial LRU model of the server's ReportCache: the snapshot's cells in
// load order, then the first `n` requests one cell at a time. When the
// traffic inserts, it also proves that no hit ever comes within `margin`
// entries of eviction, so the few requests in flight at once on
// different connections cannot change which lookups hit.
CacheCounts model_cache(const Workload& w, size_t n) {
  std::list<std::string> lru;  // front = most recently used
  std::unordered_map<std::string, std::list<std::string>::iterator> index;
  for (const Request& r : w.warm) {
    for (const Cell& c : r.cells) {
      lru.push_front(cell_key(c));
      index[lru.front()] = lru.begin();
    }
  }
  bool inserts = false;
  for (size_t i = 0; i < n; ++i) inserts = inserts || w.requests[i].novel;
  CacheCounts k;
  const size_t margin = 16;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = w.requests[i];
    k.coalesced_fixed = k.coalesced_fixed && !r.pair_first;
    for (const Cell& c : r.cells) {
      const std::string key = cell_key(c);
      const auto it = index.find(key);
      if (it != index.end()) {
        const auto rank = static_cast<size_t>(std::distance(lru.begin(), it->second));
        if (inserts && !r.novel && rank + margin >= w.capacity) {
          throw std::logic_error("perfbench: a hot cell comes near eviction");
        }
        lru.splice(lru.begin(), lru, it->second);
        ++k.hits_plus_coalesced;
        continue;
      }
      ++k.misses;
      ++k.insertions;
      lru.push_front(key);
      index[key] = lru.begin();
      if (lru.size() > w.capacity) {
        index.erase(lru.back());
        lru.pop_back();
        ++k.evictions;
      }
    }
  }
  return k;
}

Workload make_workload(const std::string& name, uint64_t seed, int seconds,
                       bool smoke) {
  const Sizes z = sizes_for(seconds, smoke);
  Workload w;
  if (name == "serve_hot") {
    w = serve_hot(seed, z);
  } else if (name == "sweep_cold") {
    w = sweep_cold(seed, z);
  } else if (name == "serve_churn") {
    w = serve_churn(seed, z);
  } else {
    throw std::invalid_argument("perfbench: unknown workload '" + name +
                                "' (serve_hot, sweep_cold or serve_churn)");
  }
  w.expected = model_cache(w, w.requests.size());
  return w;
}

}  // namespace perfbench
