#include "api/scenario.h"

#include "api/registry.h"
#include "common/error.h"

namespace bfpp::api {

const parallel::ParallelConfig& Scenario::require_config() const {
  check_config(config.has_value(),
               "scenario '%s' has no parallel configuration (search-only); "
               "use api::search or set the grid", name.c_str());
  return *config;
}

ScenarioBuilder& ScenarioBuilder::name(std::string label) {
  name_ = std::move(label);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::model(model::TransformerSpec spec) {
  model_ = std::move(spec);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::model(const std::string& preset) {
  model_ = lookup_model(preset);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cluster(hw::ClusterSpec spec) {
  cluster_ = std::move(spec);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cluster(const std::string& preset) {
  cluster_ = lookup_cluster(preset);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pp(int n_pp) {
  pp_ = n_pp;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tp(int n_tp) {
  tp_ = n_tp;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::dp(int n_dp) {
  dp_ = n_dp;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::smb(int s_mb) {
  smb_ = s_mb;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::nmb(int n_mb) {
  nmb_ = n_mb;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::loop(int n_loop) {
  loop_ = n_loop;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::schedule(const std::string& kind) {
  schedule_ = parallel::parse_schedule_kind(kind);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::sharding(const std::string& mode) {
  sharding_ = parallel::parse_sharding(mode);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::overlap(bool dp, bool pp) {
  overlap_dp_ = dp;
  overlap_pp_ = pp;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::megatron(bool enabled) {
  megatron_ = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::batch(int global_batch) {
  batch_ = global_batch;
  return *this;
}

bool ScenarioBuilder::any_grid_field() const {
  return pp_.has_value() || tp_.has_value() || dp_.has_value() ||
         smb_.has_value() || nmb_.has_value() || loop_.has_value() ||
         schedule_.has_value() || sharding_.has_value();
}

Scenario ScenarioBuilder::partial() const {
  Scenario scenario;
  scenario.name = name_;
  if (model_) scenario.model = *model_;
  if (cluster_) {
    scenario.cluster = *cluster_;
  } else {
    scenario.cluster.n_nodes = 0;
  }
  scenario.batch_size = batch_.value_or(0);
  return scenario;
}

Scenario ScenarioBuilder::build() const& {
  check_config(model_.has_value(), "scenario: no model set");
  check_config(cluster_.has_value(), "scenario: no cluster set");
  return validated(partial());
}

Scenario ScenarioBuilder::build() && {
  check_config(model_.has_value(), "scenario: no model set");
  check_config(cluster_.has_value(), "scenario: no cluster set");
  Scenario scenario;
  scenario.name = std::move(name_);
  scenario.model = std::move(*model_);
  scenario.cluster = std::move(*cluster_);
  scenario.batch_size = batch_.value_or(0);
  return validated(std::move(scenario));
}

Scenario ScenarioBuilder::validated(Scenario scenario) const {
  if (!any_grid_field()) {
    // Search-only scenario: just model + cluster + batch. Capability
    // flags would be silently unused here, so reject them.
    check_config(!megatron_ && !overlap_dp_.has_value() &&
                     !overlap_pp_.has_value(),
                 "scenario: megatron()/overlap() need a parallel grid");
    check_config(batch_.has_value() && *batch_ >= 1,
                 "scenario: set either a parallel grid or a batch size");
    return scenario;
  }

  parallel::ParallelConfig cfg;
  if (pp_) cfg.n_pp = *pp_;
  if (tp_) cfg.n_tp = *tp_;
  if (smb_) cfg.s_mb = *smb_;
  if (loop_) cfg.n_loop = *loop_;
  if (schedule_) cfg.schedule = *schedule_;
  if (sharding_) cfg.sharding = *sharding_;
  if (overlap_dp_) cfg.overlap_dp = *overlap_dp_;
  if (overlap_pp_) cfg.overlap_pp = *overlap_pp_;

  if (dp_) {
    cfg.n_dp = *dp_;
  } else {
    // Infer data parallelism so the grid covers the whole cluster.
    const int grid = cfg.n_tp * cfg.n_pp;
    const int total = scenario.cluster.total_gpus();
    check_config(grid >= 1 && total % grid == 0,
                 "scenario: N_TP*N_PP = %d does not divide the cluster's %d "
                 "GPUs; set dp() explicitly", grid, total);
    cfg.n_dp = total / grid;
  }

  if (nmb_) {
    cfg.n_mb = *nmb_;
  } else if (batch_) {
    // Derive the micro-batch count from the requested global batch.
    const int per_replica = cfg.n_dp * cfg.s_mb;
    check_config(*batch_ % per_replica == 0,
                 "scenario: batch %d is not divisible by N_DP*S_mb = %d",
                 *batch_, per_replica);
    cfg.n_mb = *batch_ / per_replica;
  }

  if (megatron_) cfg = parallel::with_megatron_flags(cfg);

  parallel::validate(cfg, scenario.model, scenario.cluster);
  if (batch_) {
    check_config(*batch_ == cfg.batch_size(),
                 "scenario: batch %d contradicts the grid's "
                 "N_DP*N_mb*S_mb = %d", *batch_, cfg.batch_size());
  }
  scenario.config = cfg;
  scenario.batch_size = cfg.batch_size();
  return scenario;
}

}  // namespace bfpp::api
