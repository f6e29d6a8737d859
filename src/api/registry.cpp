#include "api/registry.h"

#include <optional>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// Splits "name:<n>" into the base name and a node-count override.
struct ClusterKey {
  std::string base;
  int n_nodes = 0;  // 0 = preset default
};

ClusterKey parse_cluster_key(const std::string& name) {
  ClusterKey key;
  const size_t colon = name.find(':');
  key.base = to_lower(name.substr(0, colon));
  if (colon != std::string::npos) {
    const std::string digits = name.substr(colon + 1);
    // parse_int (not bare std::stoi) so a malformed or out-of-range
    // suffix is a ConfigError naming the offending value, never an
    // uncaught std::invalid_argument / std::out_of_range.
    const std::optional<int> n_nodes = parse_int(digits);
    check_config(n_nodes.has_value(),
                 "registry: bad node count ':%s' in cluster '%s' (expected a "
                 "positive integer)", digits.c_str(), name.c_str());
    key.n_nodes = *n_nodes;
    check_config(key.n_nodes >= 1,
                 "registry: cluster '%s' needs at least one node",
                 name.c_str());
  }
  return key;
}

[[noreturn]] void unknown(const char* what, const std::string& name,
                          const std::vector<std::string>& known) {
  throw ConfigError(str_format("registry: unknown %s '%s' (known: %s)", what,
                               name.c_str(), join(known, ", ").c_str()));
}

// The Figure 5a fixed configuration (52B, N_PP = N_TP = 8, S_mb = 1),
// shared by several presets.
ScenarioBuilder fig5a(int n_mb) {
  return ScenarioBuilder()
      .model("52b")
      .cluster("dgx1-v100-ib")
      .pp(8)
      .tp(8)
      .smb(1)
      .nmb(n_mb);
}

// The Figure 9 single-device gradient-accumulation setup (6.6B,
// N_TP = 8, N_DP = 8, four layer-group stages).
ScenarioBuilder fig9() {
  return ScenarioBuilder()
      .model("6.6b")
      .cluster("dgx1-v100-ib")
      .pp(1)
      .tp(8)
      .dp(8)
      .smb(2)
      .nmb(4)
      .loop(4);
}

}  // namespace

std::vector<std::string> model_names() {
  return {"52b", "6.6b", "gpt3", "1t"};
}

std::vector<std::string> cluster_names() {
  return {"dgx1-v100-ib", "dgx1-v100-eth", "dgx-a100-ib"};
}

std::vector<std::string> scenario_names() {
  return {"fig5a-bf-b16",    "fig5a-df-b16",    "fig5a-gpipe-b16",
          "fig5a-1f1b-b16",  "fig5b-bf-b64",    "fig6-bf-b64-loop8",
          "fig6-df-b64-loop8", "fig9-bf-fs",    "fig9-df-fs"};
}

model::TransformerSpec lookup_model(const std::string& name) {
  const std::string key = to_lower(name);
  if (key == "52b") return model::model_52b();
  if (key == "6.6b" || key == "6_6b" || key == "6.6") return model::model_6_6b();
  if (key == "gpt3" || key == "gpt-3") return model::model_gpt3();
  if (key == "1t") return model::model_1t();
  unknown("model", name, model_names());
}

hw::ClusterSpec lookup_cluster(const std::string& name) {
  const ClusterKey key = parse_cluster_key(name);
  const int nodes = key.n_nodes > 0 ? key.n_nodes : 8;
  if (key.base == "dgx1-v100-ib") return hw::dgx1_v100_infiniband(nodes);
  if (key.base == "dgx1-v100-eth") return hw::dgx1_v100_ethernet(nodes);
  if (key.base == "dgx-a100-ib") return hw::dgx_a100_infiniband(nodes);
  unknown("cluster", name, cluster_names());
}

Scenario lookup_scenario(const std::string& name) {
  const std::string key = to_lower(name);
  ScenarioBuilder builder;
  if (key == "fig5a-bf-b16") {
    builder = fig5a(16).schedule("bf").loop(4);
  } else if (key == "fig5a-df-b16") {
    builder = fig5a(16).schedule("df").loop(4).megatron();
  } else if (key == "fig5a-gpipe-b16") {
    builder = fig5a(16).schedule("gpipe");
  } else if (key == "fig5a-1f1b-b16") {
    builder = fig5a(16).schedule("1f1b").megatron();
  } else if (key == "fig5b-bf-b64") {
    builder = ScenarioBuilder()
                  .model("6.6b")
                  .cluster("dgx1-v100-ib")
                  .pp(4)
                  .tp(2)
                  .dp(8)
                  .smb(1)
                  .nmb(8)
                  .schedule("bf")
                  .loop(4);
  } else if (key == "fig6-bf-b64-loop8") {
    builder = fig5a(64).schedule("bf").loop(8);
  } else if (key == "fig6-df-b64-loop8") {
    builder = fig5a(64).schedule("df").loop(8).megatron();
  } else if (key == "fig9-bf-fs") {
    builder = fig9().schedule("bf").sharding("fs");
  } else if (key == "fig9-df-fs") {
    builder = fig9().schedule("df").sharding("fs");
  } else {
    unknown("scenario", name, scenario_names());
  }
  return builder.name(key).build();
}

}  // namespace bfpp::api
