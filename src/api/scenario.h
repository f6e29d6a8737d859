// Scenario: the one experiment shape behind every figure and table in
// the paper - pick a model, a cluster and either an exact parallel
// configuration (for run()) or a global batch size (for search()).
//
// Scenarios are assembled with the fluent ScenarioBuilder, which accepts
// both in-memory specs and registry preset names ("52b",
// "dgx1-v100-ib", ...) and validates everything at build(), or looked up
// whole from the preset registry (registry.h).
#pragma once

#include <optional>
#include <string>

#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"

namespace bfpp::api {

struct Scenario {
  std::string name;  // preset or builder-assigned label (may be empty)
  model::TransformerSpec model;
  hw::ClusterSpec cluster;
  // Present for fully-specified scenarios (run()); absent for
  // search-only scenarios, which carry just the batch size.
  std::optional<parallel::ParallelConfig> config;
  int batch_size = 0;  // global batch (samples)

  // The config, or throws bfpp::ConfigError for search-only scenarios.
  [[nodiscard]] const parallel::ParallelConfig& require_config() const;
  [[nodiscard]] double beta() const {
    return static_cast<double>(batch_size) / cluster.total_gpus();
  }
};

// Fluent builder. Every setter returns *this; build() validates the
// composition (model invariants, grid-fits-cluster, schedule
// constraints) and throws bfpp::ConfigError with an explanation when the
// scenario is incomplete or structurally invalid.
//
//   const auto scenario = ScenarioBuilder()
//                             .model("52b")
//                             .cluster("dgx1-v100-ib")
//                             .pp(8).tp(8).nmb(16)
//                             .schedule("bf").loop(4)
//                             .build();
class ScenarioBuilder {
 public:
  ScenarioBuilder& name(std::string label);

  ScenarioBuilder& model(model::TransformerSpec spec);
  ScenarioBuilder& model(const std::string& preset);  // registry lookup
  ScenarioBuilder& cluster(hw::ClusterSpec spec);
  ScenarioBuilder& cluster(const std::string& preset);  // registry lookup

  // Grid / micro-batching. N_DP is inferred from the cluster when unset;
  // S_mb defaults to 1; N_mb may be derived from batch().
  ScenarioBuilder& pp(int n_pp);
  ScenarioBuilder& tp(int n_tp);
  ScenarioBuilder& dp(int n_dp);
  ScenarioBuilder& smb(int s_mb);
  ScenarioBuilder& nmb(int n_mb);
  ScenarioBuilder& loop(int n_loop);

  ScenarioBuilder& schedule(const std::string& kind);  // parse_schedule_kind
  ScenarioBuilder& sharding(const std::string& mode);  // parse_sharding

  // Capability flags (default: both overlapped, the paper's own
  // implementation). megatron() applies with_megatron_flags at build.
  ScenarioBuilder& overlap(bool dp, bool pp);
  ScenarioBuilder& megatron(bool enabled = true);

  // Global batch size. For a fully-specified scenario it is cross-checked
  // against the grid; alone (no grid fields) it yields a search-only
  // scenario for api::search().
  ScenarioBuilder& batch(int global_batch);

  // The second form moves the name, model and cluster out instead of
  // copying them.
  [[nodiscard]] Scenario build() const&;
  [[nodiscard]] Scenario build() &&;

  // What a failed build() still identifies, unvalidated: the name, the
  // model and cluster set so far (a cluster of no nodes when unset) and
  // the batch when one is named, with no config. Rows for cells that
  // fail to build carry it.
  [[nodiscard]] Scenario partial() const;

 private:
  // SweepBuilder's walk re-points one working builder from cell to cell:
  // it names each cell in place and resets the loop and megatron flag a
  // variant sets.
  friend class SweepBuilder;

  [[nodiscard]] bool any_grid_field() const;
  // build() after the name, model, cluster and batch are in `scenario`.
  [[nodiscard]] Scenario validated(Scenario scenario) const;

  std::string name_;
  std::optional<model::TransformerSpec> model_;
  std::optional<hw::ClusterSpec> cluster_;
  std::optional<int> pp_, tp_, dp_, smb_, nmb_, loop_;
  std::optional<parallel::ScheduleKind> schedule_;
  std::optional<parallel::DpSharding> sharding_;
  std::optional<bool> overlap_dp_, overlap_pp_;
  bool megatron_ = false;
  std::optional<int> batch_;
};

}  // namespace bfpp::api
