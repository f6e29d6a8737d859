// Tests for the bfpp::api experiment layer: ScenarioBuilder validation,
// the preset registry, Report JSON/CSV golden output, the run()/search()
// entry points and CLI flag parsing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.h"
#include "api/cli.h"
#include "api/sweep.h"
#include "common/error.h"
#include "common/rng.h"

namespace bfpp::api {
namespace {

// The Figure 5a acceptance operating point.
ScenarioBuilder fig5a_builder() {
  return ScenarioBuilder()
      .model("52b")
      .cluster("dgx1-v100-ib")
      .pp(8)
      .tp(8)
      .nmb(16)
      .schedule("bf")
      .loop(4);
}

// ---- ScenarioBuilder ----

TEST(ScenarioBuilder, BuildsTheFig5aOperatingPoint) {
  const Scenario s = fig5a_builder().build();
  ASSERT_TRUE(s.config.has_value());
  EXPECT_EQ(s.config->n_pp, 8);
  EXPECT_EQ(s.config->n_tp, 8);
  EXPECT_EQ(s.config->n_dp, 1);  // inferred: 64 GPUs / (8*8)
  EXPECT_EQ(s.config->n_mb, 16);
  EXPECT_EQ(s.config->n_loop, 4);
  EXPECT_EQ(s.config->schedule, parallel::ScheduleKind::kBreadthFirst);
  EXPECT_EQ(s.batch_size, 16);
  EXPECT_DOUBLE_EQ(s.beta(), 0.25);
}

TEST(ScenarioBuilder, RequiresModelAndCluster) {
  EXPECT_THROW(ScenarioBuilder().build(), ConfigError);
  EXPECT_THROW(ScenarioBuilder().model("52b").build(), ConfigError);
  EXPECT_THROW(ScenarioBuilder().cluster("dgx1-v100-ib").build(),
               ConfigError);
}

TEST(ScenarioBuilder, RejectsGridThatDoesNotDivideCluster) {
  EXPECT_THROW(fig5a_builder().pp(5).build(), ConfigError);
}

TEST(ScenarioBuilder, RejectsInvalidScheduleConstraints) {
  // Non-looped schedule with N_loop > 1 violates parallel::validate.
  EXPECT_THROW(fig5a_builder().schedule("gpipe").loop(4).build(),
               ConfigError);
  // Depth-first needs N_mb divisible by N_PP.
  EXPECT_THROW(fig5a_builder().schedule("df").nmb(12).build(), ConfigError);
}

TEST(ScenarioBuilder, RejectsContradictoryBatch) {
  EXPECT_THROW(fig5a_builder().batch(32).build(), ConfigError);
  EXPECT_NO_THROW(fig5a_builder().batch(16).build());
}

TEST(ScenarioBuilder, DerivesNmbFromBatch) {
  const Scenario s = ScenarioBuilder()
                         .model("6.6b")
                         .cluster("dgx1-v100-ib")
                         .pp(4)
                         .tp(2)
                         .schedule("bf")
                         .loop(4)
                         .batch(64)
                         .build();
  ASSERT_TRUE(s.config.has_value());
  EXPECT_EQ(s.config->n_dp, 8);  // 64 / (4*2)
  EXPECT_EQ(s.config->n_mb, 8);  // 64 / (8*1)
}

TEST(ScenarioBuilder, SearchOnlyScenarioHasNoConfig) {
  const Scenario s = ScenarioBuilder()
                         .model("52b")
                         .cluster("dgx1-v100-ib")
                         .batch(64)
                         .build();
  EXPECT_FALSE(s.config.has_value());
  EXPECT_EQ(s.batch_size, 64);
  EXPECT_THROW(s.require_config(), ConfigError);
}

TEST(ScenarioBuilder, SearchOnlyScenarioNeedsBatch) {
  EXPECT_THROW(
      ScenarioBuilder().model("52b").cluster("dgx1-v100-ib").build(),
      ConfigError);
}

TEST(ScenarioBuilder, MegatronFlagsApplied) {
  const Scenario s = fig5a_builder().schedule("df").megatron().build();
  ASSERT_TRUE(s.config.has_value());
  EXPECT_FALSE(s.config->overlap_dp);
  EXPECT_FALSE(s.config->overlap_pp);
}

TEST(ScenarioBuilder, OverlapFlagsApplied) {
  const Scenario s = fig5a_builder().overlap(false, false).build();
  ASSERT_TRUE(s.config.has_value());
  EXPECT_FALSE(s.config->overlap_dp);
  EXPECT_FALSE(s.config->overlap_pp);
}

TEST(ScenarioBuilder, SearchOnlyRejectsCapabilityFlags) {
  auto search_only = [] {
    return ScenarioBuilder().model("52b").cluster("dgx1-v100-ib").batch(64);
  };
  EXPECT_THROW(search_only().megatron().build(), ConfigError);
  EXPECT_THROW(search_only().overlap(false, true).build(), ConfigError);
}

// ---- Registry ----

TEST(Registry, KnownModelNamesResolve) {
  for (const std::string& name : model_names()) {
    EXPECT_GT(lookup_model(name).n_layers, 0) << name;
  }
  EXPECT_EQ(lookup_model("52b").name, "52B");
  EXPECT_EQ(lookup_model("GPT-3").name, "GPT-3");  // alias, any case
}

TEST(Registry, UnknownModelThrowsWithKnownNames) {
  try {
    lookup_model("llama");
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("52b"), std::string::npos);
  }
}

TEST(Registry, KnownClusterNamesResolve) {
  for (const std::string& name : cluster_names()) {
    EXPECT_GT(lookup_cluster(name).total_gpus(), 0) << name;
  }
}

TEST(Registry, ClusterNodeCountSuffix) {
  EXPECT_EQ(lookup_cluster("dgx1-v100-ib").total_gpus(), 64);
  EXPECT_EQ(lookup_cluster("dgx1-v100-ib:64").total_gpus(), 512);
  EXPECT_EQ(lookup_cluster("dgx-a100-ib:4").total_gpus(), 32);
  EXPECT_THROW(lookup_cluster("dgx1-v100-ib:"), ConfigError);
  EXPECT_THROW(lookup_cluster("dgx1-v100-ib:zero"), ConfigError);
  EXPECT_THROW(lookup_cluster("dgx1-v100-ib:0"), ConfigError);
  EXPECT_THROW(lookup_cluster("exacluster"), ConfigError);
}

TEST(Registry, EveryScenarioPresetBuilds) {
  for (const std::string& name : scenario_names()) {
    const Scenario s = lookup_scenario(name);
    EXPECT_EQ(s.name, name);
    EXPECT_TRUE(s.config.has_value()) << name;
  }
  EXPECT_THROW(lookup_scenario("fig0"), ConfigError);
}

TEST(Registry, AcceptancePresetMatchesFigure5a) {
  const Scenario s = lookup_scenario("fig5a-bf-b16");
  EXPECT_EQ(s.config->describe(),
            "Breadth-first pp8 tp8 dp1 smb1 nmb16 loop4 DP0");
}

// ---- Report emitters (golden output on a hand-built Report) ----

Report golden_report() {
  Report r;
  r.scenario = "golden";
  r.model = "52B";
  r.cluster = "DGX-1 V100 (InfiniBand)";
  r.n_gpus = 64;
  r.batch_size = 16;
  r.found = true;
  r.config.n_pp = 8;
  r.config.n_tp = 8;
  r.config.n_dp = 1;
  r.config.s_mb = 1;
  r.config.n_mb = 16;
  r.config.n_loop = 4;
  r.result.batch_time = 2.0;
  r.result.throughput_per_gpu = 5.25e13;
  r.result.utilization = 0.42;
  r.result.compute_idle_fraction = 0.125;
  r.memory.state_bytes = 1.0e10;
  r.memory.buffer_bytes = 2.0e9;
  r.memory_min.state_bytes = 1.0e9;
  return r;
}

TEST(Report, JsonGolden) {
  const std::string json = golden_report().to_json();
  EXPECT_NE(json.find("\"scenario\": \"golden\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"52B\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": null"), std::string::npos);
  EXPECT_NE(json.find("\"beta\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"schedule\": \"Breadth-first\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_time_s\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\": 0.42"), std::string::npos);
  EXPECT_NE(json.find("\"throughput_per_gpu\": 5.25e+13"), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\": 1.2e+10"), std::string::npos);
  EXPECT_NE(json.find("\"state_bytes\": 1000000000"), std::string::npos);
  // No search stats for a plain run.
  EXPECT_EQ(json.find("\"search\""), std::string::npos);
}

TEST(Report, JsonEscapesStrings) {
  Report r = golden_report();
  r.scenario = "quo\"te\\path\n";
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"quo\\\"te\\\\path\\n\""), std::string::npos);
}

TEST(Report, JsonEscapesHostileNamesEverywhere) {
  // A hostile name() must come out escaped in every string field the
  // JSON emitter interpolates: scenario, model, cluster and method.
  const std::string hostile =
      "evil\"name\\with\tctrl\x01"
      "and\rnewline\n";
  const std::string escaped =
      "evil\\\"name\\\\with\\tctrl\\u0001and\\u000dnewline\\n";
  Report r = golden_report();
  r.scenario = hostile;
  r.model = hostile;
  r.cluster = hostile;
  r.method = hostile;
  const std::string json = r.to_json();
  EXPECT_EQ(json.find(hostile), std::string::npos) << "raw interpolation";
  EXPECT_NE(json.find("\"scenario\": \"" + escaped + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"model\": \"" + escaped + "\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\": \"" + escaped + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"method\": \"" + escaped + "\""), std::string::npos);
  // No unescaped quote/control byte may survive inside any JSON string.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n') << +c;
  }
}

TEST(Report, HostileScenarioNameSurvivesTheBuilderRoundTrip) {
  // End to end: a hostile ScenarioBuilder::name() flows through
  // estimate_memory into valid JSON and quoted CSV.
  const Scenario s =
      fig5a_builder().name("bad\"name,\\with\nbreaks\r").build();
  const Report report = estimate_memory(s);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"bad\\\"name,\\\\with\\nbreaks\\u000d\""),
            std::string::npos);
  const std::string csv = report.to_csv_row();
  EXPECT_EQ(csv.rfind("\"bad\"\"name,\\with\nbreaks\r\"", 0), 0u);
}

TEST(Report, CsvGolden) {
  const std::string csv = golden_report().to_csv();
  const std::string expected_header =
      "scenario,model,cluster,method,n_gpus,batch_size,beta,found,"
      "schedule,sharding,n_pp,n_tp,n_dp,s_mb,n_mb,n_loop,overlap_dp,"
      "overlap_pp,batch_time_s,throughput_per_gpu,utilization,"
      "compute_idle_fraction,memory_total_bytes,memory_min_total_bytes,"
      "evaluated,infeasible,error";
  const std::string expected_row =
      "golden,52B,DGX-1 V100 (InfiniBand),,64,16,0.25,1,"
      "Breadth-first,DP0,8,8,1,1,16,4,1,1,2,5.25e+13,0.42,0.125,"
      "1.2e+10,1000000000,0,0,";
  EXPECT_EQ(csv, expected_header + "\n" + expected_row + "\n");
}

TEST(Report, CsvErrorColumnKeepsTheSchemaStableAcrossFailedCells) {
  // A failed sweep cell carries its reason in the last CSV column; a
  // successful row emits an explicit empty string there. Both rows have
  // the same column count, so sweep CSVs stay rectangular.
  Report failed;
  failed.scenario = "bad-cell";
  failed.found = false;
  failed.error = "[config] stages do not divide layers";
  const std::string row = failed.to_csv_row();
  EXPECT_NE(row.find(",[config] stages do not divide layers"),
            std::string::npos);
  const auto columns = [](const std::string& line) {
    size_t n = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  EXPECT_EQ(columns(Report::csv_header()), columns(row));
  EXPECT_EQ(columns(Report::csv_header()), columns(golden_report().to_csv_row()));
  // Errors with commas are quoted so they stay one column.
  failed.error = "[oom] needs 3 GB, has 2 GB";
  EXPECT_EQ(columns(failed.to_csv_row()), columns(Report::csv_header()));
}

TEST(Report, CsvQuotesCommas) {
  Report r = golden_report();
  r.cluster = "a,b";
  EXPECT_NE(r.to_csv_row().find("\"a,b\""), std::string::npos);
}

// A string of `n` bytes drawn from the bytes a label can break a row
// with: quotes, commas, CR/LF, backslashes, control bytes, DEL and
// multi-byte UTF-8, mixed with plain letters.
std::string hostile_text(Rng& rng, size_t n) {
  static const std::vector<std::string> pieces = {
      "\"", ",", "\r", "\n", "\r\n", "\\", "\x01", "\x1f", "\t", "\x7f",
      "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "a", "Z", " ", "/", "{}"};
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += pieces[rng.uniform_index(pieces.size())];
  }
  return out;
}

TEST(Report, SplicedRowsEqualTheRelabelledReportsRows) {
  // Over found, infeasible, errored and searched (frugal) reports, a
  // row spliced from a tail under any label must be byte for byte the
  // row the relabelled report renders, in both formats.
  Rng rng(20261019);
  for (int trial = 0; trial < 400; ++trial) {
    Report r = golden_report();
    r.scenario = hostile_text(rng, rng.uniform_index(4));
    r.model = hostile_text(rng, rng.uniform_index(3));
    r.n_gpus = static_cast<int>(rng.uniform_index(512)) + 1;
    r.result.utilization = rng.uniform();
    r.result.batch_time = rng.uniform(1e-3, 1e3);
    r.memory.activation_bytes = rng.uniform(0, 1e11);
    switch (trial % 4) {
      case 0:  // found
        break;
      case 1:  // infeasible search: found=false, no error
        r.found = false;
        r.method = "Breadth-first";
        r.infeasible = static_cast<int>(rng.uniform_index(100));
        break;
      case 2:  // a failed cell: found=false with a hostile error
        r.found = false;
        r.error = "[config] " + hostile_text(rng, 1 + rng.uniform_index(6));
        break;
      case 3: {  // a search with its frugal pick
        r.method = hostile_text(rng, 1 + rng.uniform_index(2));
        r.evaluated = static_cast<int>(rng.uniform_index(1000));
        Report::Frugal frugal;
        frugal.config = r.config;
        frugal.config.n_loop = 2;
        frugal.result.batch_time = rng.uniform(1e-3, 1e3);
        frugal.memory_min.state_bytes = rng.uniform(0, 1e10);
        r.frugal = frugal;
        break;
      }
    }
    const std::string label = hostile_text(rng, rng.uniform_index(8));
    Report relabelled = r;
    relabelled.scenario = label;
    for (const RowFormat format : {RowFormat::kJson, RowFormat::kCsv}) {
      const std::string want = format == RowFormat::kCsv
                                   ? relabelled.to_csv_row()
                                   : relabelled.to_json(false);
      std::string spliced = "head\n";
      append_row(spliced, label, row_tail(r, format), format);
      EXPECT_EQ(spliced, "head\n" + want) << "trial " << trial;
      std::string rendered = "head\n";
      append_row(rendered, relabelled, format);
      EXPECT_EQ(rendered, "head\n" + want) << "trial " << trial;
    }
  }
}

TEST(Report, NotFoundRowsDegradeGracefully) {
  Report r;
  r.scenario = "empty";
  r.method = "Breadth-first";
  r.n_gpus = 64;
  r.batch_size = 4;
  r.evaluated = 0;
  r.infeasible = 12;
  EXPECT_NE(r.to_json().find("\"found\": false"), std::string::npos);
  EXPECT_NE(r.to_json().find("\"infeasible\": 12"), std::string::npos);
  EXPECT_EQ(r.to_json().find("\"config\""), std::string::npos);
  EXPECT_NE(r.to_csv_row().find(",,,,"), std::string::npos);
  EXPECT_EQ(to_table({r}).row_count(), 1u);
}

TEST(Report, TableRendersOneRowPerReport) {
  const Table t = to_table({golden_report(), golden_report()});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_NE(t.to_string().find("golden"), std::string::npos);
}

// ---- run/search entry points ----

TEST(Run, Figure5aOperatingPoint) {
  const Report report = api::run(fig5a_builder().name("fig5a").build());
  EXPECT_TRUE(report.found);
  EXPECT_EQ(report.scenario, "fig5a");
  EXPECT_EQ(report.n_gpus, 64);
  EXPECT_EQ(report.batch_size, 16);
  // Paper Figure 5a at beta = 0.25: ~42% utilization.
  EXPECT_NEAR(report.result.utilization, 0.42, 0.03);
  EXPECT_GT(report.memory.total(), 0.0);
  EXPECT_GT(report.result.batch_time, 0.0);
}

TEST(Run, OomIsACellErrorRow) {
  // 52B unsharded on a single pipeline stage cannot fit in 32 GB.
  const Scenario s = ScenarioBuilder()
                         .model("52b")
                         .cluster("dgx1-v100-ib")
                         .pp(1)
                         .tp(1)
                         .dp(64)
                         .nmb(1)
                         .schedule("gpipe")
                         .build();
  const Report row = run_cell(s, "", std::nullopt, *make_engine(), {});
  EXPECT_FALSE(row.found);
  EXPECT_EQ(row.error.rfind("[oom] ", 0), 0u);
  EXPECT_THROW(api::run(s), Error);
}

TEST(Run, TimelineRendersGantt) {
  const Timeline timeline =
      run_with_timeline(lookup_scenario("fig9-bf-fs"), {});
  EXPECT_TRUE(timeline.report.found);
  EXPECT_NE(timeline.gantt.find("gpu0.compute"), std::string::npos);
  EXPECT_NE(timeline.gantt.find("gpu0.dp"), std::string::npos);
}

TEST(Search, FindsABreadthFirstConfig) {
  const Scenario s = ScenarioBuilder()
                         .model("6.6b")
                         .cluster("dgx1-v100-ib")
                         .batch(64)
                         .build();
  const Report report = api::search(s, autotune::Method::kBreadthFirst);
  EXPECT_TRUE(report.found);
  EXPECT_EQ(report.method, "Breadth-first");
  EXPECT_GT(report.evaluated, 0);
  EXPECT_EQ(report.config.batch_size(), 64);
  EXPECT_NE(report.to_json().find("\"search\""), std::string::npos);
}

TEST(Search, RequiresBatch) {
  Scenario s = lookup_scenario("fig5a-bf-b16");
  s.batch_size = 0;
  EXPECT_THROW(api::search(s, autotune::Method::kBreadthFirst), ConfigError);
}

TEST(EstimateMemory, MatchesMemmodel) {
  const Report report = estimate_memory(lookup_scenario("fig5a-bf-b16"));
  EXPECT_TRUE(report.found);
  EXPECT_GT(report.memory.total(), 0.0);
  EXPECT_DOUBLE_EQ(report.result.batch_time, 0.0);  // no simulation ran
}

// ---- CLI parsing ----

std::vector<std::string> acceptance_args() {
  return {"run",     "--model", "52b",  "--cluster", "dgx1-v100-ib",
          "--pp",    "8",       "--tp", "8",         "--nmb",
          "16",      "--schedule", "bf", "--loop",   "4",
          "--json"};
}

TEST(Cli, ParsesTheAcceptanceCommand) {
  const CliOptions options = parse_cli(acceptance_args());
  EXPECT_EQ(options.command, "run");
  EXPECT_EQ(options.axes.model, std::vector<std::string>{"52b"});
  EXPECT_EQ(options.axes.cluster, std::vector<std::string>{"dgx1-v100-ib"});
  EXPECT_EQ(options.axes.pp, std::vector<int>{8});
  EXPECT_EQ(options.axes.tp, std::vector<int>{8});
  EXPECT_EQ(options.axes.nmb, std::vector<int>{16});
  EXPECT_EQ(options.axes.schedule, std::vector<std::string>{"bf"});
  EXPECT_EQ(options.axes.loop, std::vector<int>{4});
  EXPECT_TRUE(options.json);
  EXPECT_FALSE(options.csv);

  const Scenario scenario = scenario_from_cli(options);
  EXPECT_EQ(scenario.config->describe(),
            lookup_scenario("fig5a-bf-b16").config->describe());
}

TEST(Cli, RejectsUnknownCommandsAndFlags) {
  EXPECT_THROW(parse_cli({}), ConfigError);
  EXPECT_THROW(parse_cli({"explode"}), ConfigError);
  EXPECT_THROW(parse_cli({"run", "--warp", "9"}), ConfigError);
  EXPECT_THROW(parse_cli({"run", "--pp"}), ConfigError);          // no value
  EXPECT_THROW(parse_cli({"run", "--pp", "eight"}), ConfigError);  // not int
  EXPECT_THROW(parse_cli({"run", "--json", "--csv"}), ConfigError);
}

TEST(Cli, MalformedIntegerFlagValuesAreUsageErrors) {
  // No bare std::stoi anywhere on the flag path: junk and overflow both
  // surface as a UsageError naming the flag and the value...
  for (const char* bad : {"eight", "8x", "-4", "99999999999999999999"}) {
    try {
      parse_cli({"run", "--pp", bad});
      FAIL() << "expected UsageError for --pp " << bad;
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("--pp"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
    }
  }
  // ...and cli_main turns exactly that case into exit code 2, while
  // other usage problems stay at 1.
  auto exit_code = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bfpp");
    return cli_main(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
  };
  EXPECT_EQ(exit_code({"run", "--pp", "eight"}), 2);
  EXPECT_EQ(exit_code({"sweep", "--nmb", "8,foo"}), 2);
  EXPECT_EQ(exit_code({"run", "--gpus", "foo"}), 1);  // unknown flag
  EXPECT_EQ(exit_code({"frobnicate"}), 1);            // unknown command
}

TEST(Cli, ServeFlagsParse) {
  // The serve flags parse straight into the api::ServeOptions the
  // Server is constructed from - CliOptions carries no duplicate
  // fields.
  const CliOptions serve = parse_cli(
      {"serve", "--port", "0", "--cache-size", "16", "--max-connections", "4",
       "--max-inflight-per-client", "2", "--cache-file", "reports.jsonl"});
  EXPECT_EQ(serve.serve.port, 0);
  EXPECT_EQ(serve.serve.cache_capacity, 16u);
  EXPECT_EQ(serve.serve.max_connections, 4);
  EXPECT_EQ(serve.serve.max_inflight_per_client, 2);
  EXPECT_EQ(serve.serve.cache_file, "reports.jsonl");
  EXPECT_THROW(parse_cli({"serve", "--max-connections", "0"}), ConfigError);
  EXPECT_THROW(parse_cli({"serve", "--max-inflight-per-client", "0"}),
               ConfigError);
  EXPECT_THROW(parse_cli({"run", "--max-connections", "4"}), ConfigError);
  EXPECT_THROW(parse_cli({"run", "--max-inflight-per-client", "4"}),
               ConfigError);
  EXPECT_THROW(parse_cli({"run", "--cache-file", "f"}), ConfigError);
}

TEST(Cli, RetiredServeFlagsAreUnknown) {
  // Neither flag exists: each is rejected as unknown, never silently
  // accepted and ignored.
  for (const char* flag : {"--max-clients", "--checkpoint-interval"}) {
    try {
      (void)parse_cli({"serve", "--cache-file", "f", flag, "7"});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, PresetAndListForms) {
  const CliOptions preset =
      parse_cli({"run", "--preset", "fig5a-bf-b16", "--timeline"});
  EXPECT_TRUE(preset.timeline);
  EXPECT_EQ(scenario_from_cli(preset).name, "fig5a-bf-b16");

  const CliOptions list = parse_cli({"list", "models"});
  EXPECT_EQ(list.command, "list");
  EXPECT_EQ(list.list_what, "models");
}

TEST(Cli, PresetRejectsConflictingScenarioFlags) {
  EXPECT_THROW(scenario_from_cli(parse_cli(
                   {"run", "--preset", "fig5a-bf-b16", "--schedule", "df"})),
               ConfigError);
  EXPECT_THROW(scenario_from_cli(
                   parse_cli({"run", "--preset", "fig5a-bf-b16", "--pp", "4"})),
               ConfigError);
  // The preset's model and cluster are pinned too: naming either exits
  // 1 instead of reporting the preset's own model.
  auto exit_code = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bfpp");
    return cli_main(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
  };
  EXPECT_EQ(exit_code({"run", "--preset", "fig5a-bf-b16", "--model", "6.6b"}),
            1);
  EXPECT_EQ(exit_code({"run", "--preset", "fig5a-bf-b16", "--cluster",
                       "dgx1-v100-eth"}),
            1);
  // Without a preset, an unnamed model and cluster default to 52b on
  // dgx1-v100-ib.
  const Scenario defaulted = scenario_from_cli(parse_cli(
      {"run", "--pp", "8", "--tp", "8", "--nmb", "16", "--loop", "4"}));
  EXPECT_EQ(defaulted.model.name, lookup_scenario("fig5a-bf-b16").model.name);
  EXPECT_EQ(defaulted.cluster.name,
            lookup_scenario("fig5a-bf-b16").cluster.name);
}

TEST(Cli, SearchNeedsBatch) {
  const CliOptions options =
      parse_cli({"search", "--model", "6.6b", "--batch", "64"});
  const Scenario scenario = scenario_from_cli(options);
  EXPECT_FALSE(scenario.config.has_value());
  EXPECT_EQ(scenario.batch_size, 64);
  EXPECT_THROW(scenario_from_cli(parse_cli({"search", "--model", "6.6b"})),
               ConfigError);
}

TEST(Cli, SearchRejectsConfigPinningFlags) {
  // The search enumerates grid/schedule/sharding itself; pinning flags
  // must error rather than be silently dropped.
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{{"--smb", "2"},
                                             {"--schedule", "gpipe"},
                                             {"--pp", "4"},
                                             {"--megatron"}}) {
    std::vector<std::string> args = {"search", "--model", "6.6b", "--batch",
                                     "64"};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(scenario_from_cli(parse_cli(args)), ConfigError)
        << extra.front();
  }
}

TEST(Cli, IntFlagOverflowIsAConfigError) {
  EXPECT_THROW(parse_cli({"run", "--pp", "99999999999"}), ConfigError);
  EXPECT_THROW(lookup_cluster("dgx1-v100-ib:99999999999"), ConfigError);
  EXPECT_THROW(parallel::ParallelConfig::parse("bf pp99999999999999"),
               ConfigError);
}

TEST(Cli, UsageMentionsEveryCommand) {
  const std::string usage = cli_usage();
  for (const char* needle : {"run", "search", "list", "--json", "--preset"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace bfpp::api
