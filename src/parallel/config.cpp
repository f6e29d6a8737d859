#include "parallel/config.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::parallel {

const char* to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kGpipe:
      return "GPipe";
    case ScheduleKind::kOneFOneB:
      return "1F1B";
    case ScheduleKind::kDepthFirst:
      return "Depth-first";
    case ScheduleKind::kBreadthFirst:
      return "Breadth-first";
    case ScheduleKind::kOneFOneBAsync:
      return "1F1B-async";
    case ScheduleKind::kUnbalanced:
      return "Unbalanced";
    case ScheduleKind::kVSchedule:
      return "V-schedule";
    case ScheduleKind::kTwoBP:
      return "2BP";
  }
  return "?";
}

const char* to_string(DpSharding sharding) {
  switch (sharding) {
    case DpSharding::kNone:
      return "DP0";
    case DpSharding::kPartial:
      return "DP_PS";
    case DpSharding::kFull:
      return "DP_FS";
  }
  return "?";
}

ScheduleKind parse_schedule_kind(const std::string& text) {
  const std::string s = to_lower(text);
  if (s == "gpipe") return ScheduleKind::kGpipe;
  if (s == "1f1b" || s == "one-f-one-b") return ScheduleKind::kOneFOneB;
  if (s == "depth-first" || s == "depthfirst" || s == "depth_first" ||
      s == "df") {
    return ScheduleKind::kDepthFirst;
  }
  if (s == "breadth-first" || s == "breadthfirst" || s == "breadth_first" ||
      s == "bf") {
    return ScheduleKind::kBreadthFirst;
  }
  if (s == "1f1b-async" || s == "async" || s == "pipedream") {
    return ScheduleKind::kOneFOneBAsync;
  }
  if (s == "unbalanced" || s == "bapipe") return ScheduleKind::kUnbalanced;
  if (s == "v-schedule" || s == "vschedule" || s == "v") {
    return ScheduleKind::kVSchedule;
  }
  if (s == "2bp" || s == "twobp" || s == "split-backward") {
    return ScheduleKind::kTwoBP;
  }
  throw ConfigError(str_format(
      "parallel: unknown schedule '%s' (expected gpipe, 1f1b, "
      "depth-first/df, breadth-first/bf, 1f1b-async, unbalanced, "
      "v-schedule or 2bp)",
      text.c_str()));
}

DpSharding parse_sharding(const std::string& text) {
  const std::string s = to_lower(text);
  if (s == "dp0" || s == "none" || s == "no") return DpSharding::kNone;
  if (s == "dp_ps" || s == "ps" || s == "partial") return DpSharding::kPartial;
  if (s == "dp_fs" || s == "fs" || s == "full") return DpSharding::kFull;
  throw ConfigError(str_format(
      "parallel: unknown sharding '%s' (expected dp0/none, dp_ps/partial "
      "or dp_fs/full)",
      text.c_str()));
}

namespace {

// Parses the digits following a describe() token prefix like "pp8".
int parse_grid_count(const std::string& token, size_t prefix_len) {
  const std::string digits = token.substr(prefix_len);
  check_config(!digits.empty() && digits.size() <= 9 &&
                   digits.find_first_not_of("0123456789") == std::string::npos,
               "parallel: malformed token '%s'", token.c_str());
  return std::stoi(digits);
}

}  // namespace

ParallelConfig ParallelConfig::parse(const std::string& text) {
  const std::vector<std::string> tokens = split_ws(text);
  check_config(!tokens.empty(), "parallel: empty config description");

  ParallelConfig cfg;
  cfg.schedule = parse_schedule_kind(tokens[0]);
  bool dp_seen = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string t = to_lower(tokens[i]);
    if (t == "no-dp-overlap") {
      cfg.overlap_dp = false;
    } else if (t == "no-pp-overlap") {
      cfg.overlap_pp = false;
    } else if (t == "dp_ps" || t == "dp_fs" || (t == "dp0" && dp_seen)) {
      // "dp0" doubles as the unsharded marker and a (never valid) zero
      // data-parallel size; the grid count always precedes the sharding
      // mode in describe() output.
      cfg.sharding = parse_sharding(t);
    } else if (t.rfind("smb", 0) == 0) {
      cfg.s_mb = parse_grid_count(t, 3);
    } else if (t.rfind("nmb", 0) == 0) {
      cfg.n_mb = parse_grid_count(t, 3);
    } else if (t.rfind("loop", 0) == 0) {
      cfg.n_loop = parse_grid_count(t, 4);
    } else if (t.rfind("pp", 0) == 0) {
      cfg.n_pp = parse_grid_count(t, 2);
    } else if (t.rfind("tp", 0) == 0) {
      cfg.n_tp = parse_grid_count(t, 2);
    } else if (t.rfind("dp", 0) == 0) {
      cfg.n_dp = parse_grid_count(t, 2);
      dp_seen = true;
    } else {
      throw ConfigError(
          str_format("parallel: unknown config token '%s'", tokens[i].c_str()));
    }
  }
  return cfg;
}

std::string ParallelConfig::describe() const {
  std::string out;
  {
    StringWriter writer(out, 64);
    describe(writer);
  }
  return out;
}

void ParallelConfig::describe(StringWriter& out) const {
  out << to_string(schedule) << " pp" << n_pp << " tp" << n_tp << " dp"
      << n_dp << " smb" << s_mb << " nmb" << n_mb << " loop" << n_loop << ' '
      << to_string(sharding);
  if (!overlap_dp) out << " no-dp-overlap";
  if (!overlap_pp) out << " no-pp-overlap";
}

ParallelConfig with_megatron_flags(ParallelConfig cfg) {
  cfg.overlap_dp = false;
  cfg.overlap_pp = false;
  if (cfg.sharding == DpSharding::kPartial) cfg.sharding = DpSharding::kNone;
  return cfg;
}

void validate(const ParallelConfig& cfg, const model::TransformerSpec& spec,
              const hw::ClusterSpec& cluster) {
  model::validate(spec);
  check_config(cfg.n_dp >= 1 && cfg.n_tp >= 1 && cfg.n_pp >= 1,
               "parallel: group sizes must be >= 1");
  check_config(cfg.s_mb >= 1, "parallel: micro-batch size must be >= 1");
  check_config(cfg.n_mb >= 1, "parallel: micro-batch count must be >= 1");
  check_config(cfg.n_loop >= 1, "parallel: loop count must be >= 1");
  check_config(cfg.n_gpus() == cluster.total_gpus(),
               "parallel: grid %dx%dx%d = %d GPUs != cluster %d", cfg.n_dp,
               cfg.n_tp, cfg.n_pp, cfg.n_gpus(), cluster.total_gpus());
  check_config(cfg.n_tp <= cluster.gpus_per_node,
               "parallel: tensor parallelism cannot span nodes");
  check_config(cluster.gpus_per_node % cfg.n_tp == 0,
               "parallel: N_TP must divide the node size");
  check_config(spec.n_layers % cfg.n_stages() == 0 ||
                   spec.n_layers > cfg.n_stages(),
               "parallel: %d stages for %d layers", cfg.n_stages(),
               spec.n_layers);
  check_config(cfg.n_stages() <= spec.n_layers,
               "parallel: more stages than layers");
  if (cfg.schedule == ScheduleKind::kGpipe ||
      cfg.schedule == ScheduleKind::kOneFOneB ||
      cfg.schedule == ScheduleKind::kOneFOneBAsync ||
      cfg.schedule == ScheduleKind::kUnbalanced ||
      cfg.schedule == ScheduleKind::kTwoBP) {
    check_config(cfg.n_loop == 1, "parallel: non-looped schedule needs N_loop=1");
  }
  if (cfg.schedule == ScheduleKind::kDepthFirst) {
    // Section 4.1: the depth-first schedule constrains N_mb to a multiple
    // of N_PP (micro-batches run in "sequences" of N_PP).
    check_config(cfg.n_mb % cfg.n_pp == 0,
                 "parallel: depth-first needs N_mb divisible by N_PP");
  }
  if (cfg.schedule == ScheduleKind::kVSchedule) {
    // The V shape folds the pipeline exactly once: device r hosts stages
    // r (down leg) and 2*N_PP-1-r (up leg), so N_loop is fixed at 2.
    check_config(cfg.n_loop == 2, "parallel: V-schedule needs N_loop=2");
  }
  if (cfg.schedule == ScheduleKind::kTwoBP) {
    // Deferred weight gradients are modelled without per-use sharded
    // weight reconstruction; DP_FS would need a second gather for B_w.
    check_config(cfg.sharding != DpSharding::kFull,
                 "parallel: 2BP does not support DP_FS sharding");
  }
  if (cfg.n_pp > 1) {
    check_config(cfg.n_mb >= cfg.n_pp,
                 "parallel: pipeline needs N_mb >= N_PP to fill (beta_min)");
  }
  if (cfg.sharding != DpSharding::kNone) {
    check_config(cfg.n_dp > 1, "parallel: sharding requires N_DP > 1");
  }
}

StagePlacement::StagePlacement(int n_layers, int n_pp, int n_loop)
    : n_layers_(n_layers), n_pp_(n_pp), n_loop_(n_loop) {
  check_config(n_layers >= 1 && n_pp >= 1 && n_loop >= 1,
               "placement: sizes must be >= 1");
  check_config(n_pp * n_loop <= n_layers,
               "placement: more stages than layers");
}

StagePlacement::StagePlacement(int n_layers, int n_pp, int n_loop,
                               std::vector<int> device_of_stage,
                               std::vector<int> layers_in_stage)
    : StagePlacement(n_layers, n_pp, n_loop) {
  check_config(static_cast<int>(device_of_stage.size()) == n_stages(),
               "placement: device map size != N_stage");
  check_config(static_cast<int>(layers_in_stage.size()) == n_stages(),
               "placement: layer partition size != N_stage");
  std::vector<int> stages_per_device(static_cast<size_t>(n_pp), 0);
  for (int d : device_of_stage) {
    check_config(d >= 0 && d < n_pp, "placement: device index out of range");
    ++stages_per_device[static_cast<size_t>(d)];
  }
  for (int count : stages_per_device) {
    check_config(count >= 1, "placement: device hosts no stage");
  }
  int total = 0;
  for (int l : layers_in_stage) {
    check_config(l >= 1, "placement: stage with no layers");
    total += l;
  }
  check_config(total == n_layers, "placement: layer partition != N_layer");
  device_map_ = std::move(device_of_stage);
  layers_ = std::move(layers_in_stage);
  first_layer_.resize(layers_.size());
  int first = 0;
  for (size_t s = 0; s < layers_.size(); ++s) {
    first_layer_[s] = first;
    first += layers_[s];
  }
}

StagePlacement StagePlacement::for_config(int n_layers,
                                          const ParallelConfig& cfg,
                                          double tail_extra_layers) {
  const int n_stages = cfg.n_stages();
  if (cfg.schedule == ScheduleKind::kVSchedule && cfg.n_pp > 1) {
    // Fold the pipeline: device r hosts stages r and 2*N_PP-1-r, so the
    // backward of the up leg lands on the device that just forwarded it.
    std::vector<int> device(static_cast<size_t>(n_stages));
    std::vector<int> layers(static_cast<size_t>(n_stages));
    const int base = n_layers / n_stages;
    const int remainder = n_layers % n_stages;
    for (int s = 0; s < n_stages; ++s) {
      device[static_cast<size_t>(s)] = s < cfg.n_pp ? s : n_stages - 1 - s;
      layers[static_cast<size_t>(s)] = base + (s < remainder ? 1 : 0);
    }
    return StagePlacement(n_layers, cfg.n_pp, cfg.n_loop, std::move(device),
                          std::move(layers));
  }
  if (cfg.schedule == ScheduleKind::kUnbalanced) {
    // BaPipe-style compute balancing: treat the model as N_layer unit
    // layers plus `tail_extra_layers` of head work pinned after the last
    // layer, and cut at equal effective-work boundaries. The last stage
    // absorbs the head and therefore gets fewer layers. Every stage keeps
    // at least one layer; cuts are clamped to stay monotone.
    const double work = static_cast<double>(n_layers) + tail_extra_layers;
    std::vector<int> cuts(static_cast<size_t>(n_stages) + 1, 0);
    cuts[static_cast<size_t>(n_stages)] = n_layers;
    for (int s = 1; s < n_stages; ++s) {
      const int ideal = static_cast<int>(
          work * static_cast<double>(s) / static_cast<double>(n_stages) + 0.5);
      const int lo = cuts[static_cast<size_t>(s) - 1] + 1;
      const int hi = n_layers - (n_stages - s);
      cuts[static_cast<size_t>(s)] = std::clamp(ideal, lo, hi);
    }
    std::vector<int> device(static_cast<size_t>(n_stages));
    std::vector<int> layers(static_cast<size_t>(n_stages));
    for (int s = 0; s < n_stages; ++s) {
      device[static_cast<size_t>(s)] = s % cfg.n_pp;
      layers[static_cast<size_t>(s)] =
          cuts[static_cast<size_t>(s) + 1] - cuts[static_cast<size_t>(s)];
    }
    return StagePlacement(n_layers, cfg.n_pp, cfg.n_loop, std::move(device),
                          std::move(layers));
  }
  return StagePlacement(n_layers, cfg.n_pp, cfg.n_loop);
}

int StagePlacement::device_of_stage(int stage) const {
  check(stage >= 0 && stage < n_stages(), "placement: stage out of range");
  if (!device_map_.empty()) return device_map_[static_cast<size_t>(stage)];
  return stage % n_pp_;
}

std::vector<int> StagePlacement::stages_of_device(int device) const {
  check(device >= 0 && device < n_pp_, "placement: device out of range");
  std::vector<int> stages;
  if (!device_map_.empty()) {
    for (int s = 0; s < n_stages(); ++s) {
      if (device_map_[static_cast<size_t>(s)] == device) stages.push_back(s);
    }
    return stages;
  }
  stages.reserve(static_cast<size_t>(n_loop_));
  for (int l = 0; l < n_loop_; ++l) stages.push_back(device + l * n_pp_);
  return stages;
}

int StagePlacement::layers_in_stage(int stage) const {
  check(stage >= 0 && stage < n_stages(), "placement: stage out of range");
  if (!layers_.empty()) return layers_[static_cast<size_t>(stage)];
  const int base = n_layers_ / n_stages();
  const int remainder = n_layers_ % n_stages();
  return base + (stage < remainder ? 1 : 0);
}

int StagePlacement::first_layer_of_stage(int stage) const {
  check(stage >= 0 && stage < n_stages(), "placement: stage out of range");
  if (!first_layer_.empty()) return first_layer_[static_cast<size_t>(stage)];
  const int base = n_layers_ / n_stages();
  const int remainder = n_layers_ % n_stages();
  return stage * base + std::min(stage, remainder);
}

DeviceGrid::DeviceGrid(const ParallelConfig& cfg,
                       const hw::ClusterSpec& cluster)
    : cfg_(cfg), gpus_per_node_(cluster.gpus_per_node) {}

int DeviceGrid::linear_rank(int dp, int pp, int tp) const {
  return tp + cfg_.n_tp * (pp + cfg_.n_pp * dp);
}

int DeviceGrid::node_of_rank(int rank) const { return rank / gpus_per_node_; }

int DeviceGrid::dp_group_extent() const {
  const int stride = cfg_.n_tp * cfg_.n_pp;
  return stride * (cfg_.n_dp - 1) + 1;
}

int DeviceGrid::dp_members_per_node() const {
  const int stride = cfg_.n_tp * cfg_.n_pp;
  if (stride >= gpus_per_node_) return 1;
  return std::min(cfg_.n_dp, gpus_per_node_ / stride);
}

hw::NetTier effective_dp_tier(const DeviceGrid& grid,
                              const hw::ClusterSpec& cluster) {
  hw::NetTier dp_tier = cluster.tier_for_group_extent(grid.dp_group_extent());
  if (grid.dp_group_extent() > cluster.gpus_per_node) {
    dp_tier.allreduce_bw =
        std::min(cluster.intra_node.allreduce_bw,
                 cluster.inter_node.allreduce_bw * grid.dp_members_per_node());
  }
  return dp_tier;
}

}  // namespace bfpp::parallel
