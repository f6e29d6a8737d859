#include "api/report.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// One JSON object written straight into `out`, opened by the first
// key(): pretty puts each field on its own line, indented two spaces past
// `indent`, with a space after each colon; compact adds no whitespace.
// Display doubles carry up to 10 significant digits and no trailing
// noise ("0.25", "36280000000000").
struct JsonObject {
  std::string& out;
  const char* indent;
  bool pretty;
  bool open = false;

  // Starts the next field (`key` is quoted, colon included); the caller
  // appends the value to the returned string.
  std::string& key(const char* key) {
    out += open ? ',' : '{';
    open = true;
    if (pretty) out.append("\n").append(indent).append("  ");
    out += key;
    if (pretty) out += ' ';
    return out;
  }

  void close() {
    if (pretty) out.append("\n").append(indent);
    out += '}';
  }
};

void config_json(std::string& out, const parallel::ParallelConfig& cfg,
                 const char* indent, bool pretty) {
  JsonObject o{out, indent, pretty};
  o.key("\"schedule\":") += json_quote(parallel::to_string(cfg.schedule));
  o.key("\"sharding\":") += json_quote(parallel::to_string(cfg.sharding));
  o.key("\"n_pp\":") += std::to_string(cfg.n_pp);
  o.key("\"n_tp\":") += std::to_string(cfg.n_tp);
  o.key("\"n_dp\":") += std::to_string(cfg.n_dp);
  o.key("\"s_mb\":") += std::to_string(cfg.s_mb);
  o.key("\"n_mb\":") += std::to_string(cfg.n_mb);
  o.key("\"n_loop\":") += std::to_string(cfg.n_loop);
  o.key("\"overlap_dp\":") += cfg.overlap_dp ? "true" : "false";
  o.key("\"overlap_pp\":") += cfg.overlap_pp ? "true" : "false";
  o.key("\"describe\":") += json_quote(cfg.describe());
  o.close();
}

void result_json(std::string& out, const runtime::RunResult& r,
                 const char* indent, bool pretty) {
  JsonObject o{out, indent, pretty};
  append_general(o.key("\"batch_time_s\":"), r.batch_time, 10);
  append_general(o.key("\"throughput_per_gpu\":"), r.throughput_per_gpu, 10);
  append_general(o.key("\"utilization\":"), r.utilization, 10);
  append_general(o.key("\"compute_idle_fraction\":"), r.compute_idle_fraction,
                 10);
  o.close();
}

void memory_json(std::string& out, const memmodel::MemoryEstimate& m,
                 const char* indent, bool pretty) {
  JsonObject o{out, indent, pretty};
  append_general(o.key("\"total_bytes\":"), m.total(), 10);
  append_general(o.key("\"state_bytes\":"), m.state_bytes, 10);
  append_general(o.key("\"buffer_bytes\":"), m.buffer_bytes, 10);
  append_general(o.key("\"activation_bytes\":"), m.activation_bytes, 10);
  append_general(o.key("\"checkpoint_bytes\":"), m.checkpoint_bytes, 10);
  append_general(o.key("\"p2p_buffer_bytes\":"), m.p2p_buffer_bytes, 10);
  o.close();
}

// Appends `s` as one CSV field: as is, or in double quotes (inner
// quotes doubled) when it holds a comma, quote or line break.
std::string& append_csv_field(std::string& out, std::string_view s) {
  // One pass over the bytes: find_first_of with a set calls memchr per
  // byte, which was most of the cost of splicing a sweep's labels.
  if (std::none_of(s.begin(), s.end(), [](char c) {
        return c == ',' || c == '"' || c == '\n' || c == '\r';
      })) {
    return out += s;
  }
  out += '"';
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out += '"';
}

// The compact JSON row up to the label's value.
constexpr std::string_view kJsonRowHead = "{\"scenario\":";

}  // namespace

std::string Report::to_json(bool pretty) const {
  std::string out;
  out.reserve(pretty ? 1536 : 1024);
  JsonObject o{out, "", pretty};
  o.key("\"scenario\":") += json_quote(scenario);
  o.key("\"model\":") += json_quote(model);
  o.key("\"cluster\":") += json_quote(cluster);
  o.key("\"method\":") += method.empty() ? "null" : json_quote(method);
  o.key("\"n_gpus\":") += std::to_string(n_gpus);
  o.key("\"batch_size\":") += std::to_string(batch_size);
  append_general(o.key("\"beta\":"), beta(), 10);
  o.key("\"found\":") += found ? "true" : "false";
  if (!found && !error.empty()) o.key("\"error\":") += json_quote(error);
  if (found) {
    config_json(o.key("\"config\":"), config, "  ", pretty);
    result_json(o.key("\"result\":"), result, "  ", pretty);
    memory_json(o.key("\"memory\":"), memory, "  ", pretty);
    memory_json(o.key("\"memory_min\":"), memory_min, "  ", pretty);
  }
  if (!method.empty()) {
    JsonObject search{o.key("\"search\":"), "  ", pretty};
    search.key("\"evaluated\":") += std::to_string(evaluated);
    search.key("\"infeasible\":") += std::to_string(infeasible);
    if (frugal.has_value()) {
      // Indented one level shallower than they nest, as always printed.
      JsonObject fr{search.key("\"frugal\":"), "    ", pretty};
      config_json(fr.key("\"config\":"), frugal->config, "    ", pretty);
      result_json(fr.key("\"result\":"), frugal->result, "    ", pretty);
      memory_json(fr.key("\"memory_min\":"), frugal->memory_min, "    ",
                  pretty);
      fr.close();
    }
    search.close();
  }
  o.close();
  if (pretty) out += '\n';
  return out;
}

std::string Report::csv_header() {
  return "scenario,model,cluster,method,n_gpus,batch_size,beta,found,"
         "schedule,sharding,n_pp,n_tp,n_dp,s_mb,n_mb,n_loop,overlap_dp,"
         "overlap_pp,batch_time_s,throughput_per_gpu,utilization,"
         "compute_idle_fraction,memory_total_bytes,memory_min_total_bytes,"
         "evaluated,infeasible,error";
}

std::string Report::to_csv_row() const {
  std::string out;
  out.reserve(256);
  append_csv_field(out, scenario);
  // Starts the next cell; the caller appends its text.
  auto cell = [&out]() -> std::string& { return out += ','; };
  append_csv_field(cell(), model);
  append_csv_field(cell(), cluster);
  append_csv_field(cell(), method);
  cell() += std::to_string(n_gpus);
  cell() += std::to_string(batch_size);
  append_general(cell(), beta(), 10);
  cell() += found ? "1" : "0";
  if (found) {
    cell() += parallel::to_string(config.schedule);
    cell() += parallel::to_string(config.sharding);
    for (int v : {config.n_pp, config.n_tp, config.n_dp, config.s_mb,
                  config.n_mb, config.n_loop}) {
      cell() += std::to_string(v);
    }
    cell() += config.overlap_dp ? "1" : "0";
    cell() += config.overlap_pp ? "1" : "0";
    for (double v : {result.batch_time, result.throughput_per_gpu,
                     result.utilization, result.compute_idle_fraction,
                     memory.total(), memory_min.total()}) {
      append_general(cell(), v, 10);
    }
  } else {
    out.append(16, ',');  // the 16 empty config/result/memory cells
  }
  cell() += std::to_string(evaluated);
  cell() += std::to_string(infeasible);
  // Explicit (usually empty) error column, quoted like every other text
  // field, so failed sweep cells never change the CSV schema.
  append_csv_field(cell(), error);
  return out;
}

std::string Report::to_csv() const {
  return csv_header() + "\n" + to_csv_row() + "\n";
}

// ---- wire form (cache persistence) ----

namespace {

// 17 significant digits: enough that parsing the decimal back yields
// the exact same double, which keeps reloaded Reports byte-identical
// under the 10-digit display emitters.
void wire_array(std::string& out, std::initializer_list<double> xs) {
  char sep = '[';
  for (double x : xs) {
    out += sep;
    sep = ',';
    append_general(out, x, 17);
  }
  out += ']';
}

// Field order as result_from_wire/memory_from_wire read it back.
void wire_result(std::string& out, const runtime::RunResult& r) {
  wire_array(out, {r.batch_time, r.throughput_per_gpu, r.utilization,
                   r.compute_idle_fraction});
}

void wire_memory(std::string& out, const memmodel::MemoryEstimate& m) {
  wire_array(out, {m.state_bytes, m.buffer_bytes, m.activation_bytes,
                   m.checkpoint_bytes, m.p2p_buffer_bytes});
}

const json::Value& wire_field(const json::Value& v, const char* key) {
  const json::Value* field = v.get(key);
  check_config(field != nullptr, "report: wire form is missing \"%s\"", key);
  return *field;
}

std::vector<double> wire_doubles(const json::Value& v, const char* key,
                                 size_t n) {
  const json::Value& field = wire_field(v, key);
  check_config(field.is_array() && field.size() == n,
               "report: \"%s\" must be an array of %zu numbers", key, n);
  std::vector<double> out;
  out.reserve(n);
  for (const json::Value& item : field.items()) {
    // to_wire() writes only finite doubles; an overflowing literal such
    // as 1e999 is corruption, which to_wire() could not write back.
    out.push_back(item.as_number(key));
    check_config(std::isfinite(out.back()),
                 "report: \"%s\" must hold finite numbers", key);
  }
  return out;
}

runtime::RunResult result_from_wire(const json::Value& v, const char* key) {
  const std::vector<double> d = wire_doubles(v, key, 4);
  runtime::RunResult r;
  r.batch_time = d[0];
  r.throughput_per_gpu = d[1];
  r.utilization = d[2];
  r.compute_idle_fraction = d[3];
  return r;
}

memmodel::MemoryEstimate memory_from_wire(const json::Value& v,
                                          const char* key) {
  const std::vector<double> d = wire_doubles(v, key, 5);
  memmodel::MemoryEstimate m;
  m.state_bytes = d[0];
  m.buffer_bytes = d[1];
  m.activation_bytes = d[2];
  m.checkpoint_bytes = d[3];
  m.p2p_buffer_bytes = d[4];
  return m;
}

}  // namespace

std::string Report::to_wire() const {
  std::string out;
  out.reserve(768);
  JsonObject o{out, "", false};
  o.key("\"scenario\":") += json_quote(scenario);
  o.key("\"model\":") += json_quote(model);
  o.key("\"cluster\":") += json_quote(cluster);
  o.key("\"method\":") += json_quote(method);
  o.key("\"n_gpus\":") += std::to_string(n_gpus);
  o.key("\"batch_size\":") += std::to_string(batch_size);
  o.key("\"found\":") += found ? "true" : "false";
  o.key("\"error\":") += json_quote(error);
  o.key("\"config\":") += json_quote(config.describe());
  wire_result(o.key("\"result\":"), result);
  wire_memory(o.key("\"memory\":"), memory);
  wire_memory(o.key("\"memory_min\":"), memory_min);
  o.key("\"evaluated\":") += std::to_string(evaluated);
  o.key("\"infeasible\":") += std::to_string(infeasible);
  if (frugal.has_value()) {
    JsonObject fr{o.key("\"frugal\":"), "", false};
    fr.key("\"config\":") += json_quote(frugal->config.describe());
    wire_result(fr.key("\"result\":"), frugal->result);
    wire_memory(fr.key("\"memory_min\":"), frugal->memory_min);
    fr.close();
  }
  o.close();
  return out;
}

Report Report::from_wire(const json::Value& value) {
  check_config(value.is_object(), "report: wire form must be a JSON object");
  Report r;
  r.scenario = wire_field(value, "scenario").as_string("scenario");
  r.model = wire_field(value, "model").as_string("model");
  r.cluster = wire_field(value, "cluster").as_string("cluster");
  r.method = wire_field(value, "method").as_string("method");
  r.n_gpus = wire_field(value, "n_gpus").as_int("n_gpus");
  r.batch_size = wire_field(value, "batch_size").as_int("batch_size");
  r.found = wire_field(value, "found").as_bool("found");
  r.error = wire_field(value, "error").as_string("error");
  r.config =
      parallel::ParallelConfig::parse(wire_field(value, "config").as_string());
  r.result = result_from_wire(value, "result");
  r.memory = memory_from_wire(value, "memory");
  r.memory_min = memory_from_wire(value, "memory_min");
  r.evaluated = wire_field(value, "evaluated").as_int("evaluated");
  r.infeasible = wire_field(value, "infeasible").as_int("infeasible");
  if (const json::Value* frugal = value.get("frugal")) {
    check_config(frugal->is_object(),
                 "report: \"frugal\" must be a JSON object");
    Report::Frugal f;
    f.config = parallel::ParallelConfig::parse(
        wire_field(*frugal, "config").as_string());
    f.result = result_from_wire(*frugal, "result");
    f.memory_min = memory_from_wire(*frugal, "memory_min");
    r.frugal = std::move(f);
  }
  return r;
}

Table to_table(const std::vector<Report>& reports) {
  Table t({"Scenario", "Method", "Model", "B", "beta", "Config",
           "Tflop/s/GPU", "Util", "Memory", "Memory min"});
  for (const Report& r : reports) {
    if (!r.found) {
      t.add_row({r.scenario, r.method, r.model, std::to_string(r.batch_size),
                 format_number(r.beta(), 3), "(none feasible)", "-", "-", "-",
                 "-"});
      continue;
    }
    t.add_row({r.scenario, r.method, r.model, std::to_string(r.batch_size),
               format_number(r.beta(), 3), r.config.describe(),
               format_fixed(r.result.throughput_per_gpu / 1e12, 2),
               format_percent(r.result.utilization),
               format_bytes(r.memory.total()),
               format_bytes(r.memory_min.total())});
  }
  return t;
}

std::string row_tail(Report report, RowFormat format) {
  // An empty label renders as `""` in JSON and as nothing in CSV.
  report.scenario.clear();
  std::string tail =
      format == RowFormat::kCsv
          ? report.to_csv_row()
          : report.to_json(false).substr(kJsonRowHead.size() + 2);
  tail.shrink_to_fit();  // the cache keeps it
  return tail;
}

void append_row(std::string& out, const Report& report, RowFormat format) {
  out += format == RowFormat::kCsv ? report.to_csv_row()
                                   : report.to_json(false);
}

void append_row(std::string& out, const std::string& label,
                std::string_view tail, RowFormat format) {
  if (format == RowFormat::kCsv) {
    append_csv_field(out, label);
  } else {
    append_json_quoted(out += kJsonRowHead, label);
  }
  out += tail;
}

std::string to_csv(const std::vector<Report>& reports) {
  std::string out = Report::csv_header() + "\n";
  for (const Report& r : reports) out += r.to_csv_row() + "\n";
  return out;
}

std::string to_json(const std::vector<Report>& reports) {
  std::string out = "[";
  for (const Report& r : reports) {
    out += out.size() == 1 ? "\n" : ",\n";
    out += r.to_json();
    out.pop_back();  // the object's trailing newline
  }
  return out + (reports.empty() ? "]\n" : "\n]\n");
}

}  // namespace bfpp::api
