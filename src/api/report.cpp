#include "api/report.h"

#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace bfpp::api {

namespace {

// Compact, locale-independent double: up to 10 significant digits, no
// trailing noise ("0.25", "36280000000000").
std::string fmt_double(double x) { return str_format("%.10g", x); }

// An object's fields in order: the quoted key with its colon, then the
// rendered value.
using Fields = std::vector<std::pair<const char*, std::string>>;

// One JSON object: pretty puts each field on its own line, indented two
// spaces past `indent`, with a space after each colon; compact adds no
// whitespace at all.
std::string json_object(const Fields& fields, const std::string& indent,
                        bool pretty) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    if (pretty) out += "\n" + indent + "  ";
    out += key;
    if (pretty) out += ' ';
    out += value;
  }
  if (pretty) out += "\n" + indent;
  return out + "}";
}

std::string config_json(const parallel::ParallelConfig& cfg,
                        const std::string& indent, bool pretty) {
  return json_object(
      {{"\"schedule\":", json_quote(parallel::to_string(cfg.schedule))},
       {"\"sharding\":", json_quote(parallel::to_string(cfg.sharding))},
       {"\"n_pp\":", std::to_string(cfg.n_pp)},
       {"\"n_tp\":", std::to_string(cfg.n_tp)},
       {"\"n_dp\":", std::to_string(cfg.n_dp)},
       {"\"s_mb\":", std::to_string(cfg.s_mb)},
       {"\"n_mb\":", std::to_string(cfg.n_mb)},
       {"\"n_loop\":", std::to_string(cfg.n_loop)},
       {"\"overlap_dp\":", cfg.overlap_dp ? "true" : "false"},
       {"\"overlap_pp\":", cfg.overlap_pp ? "true" : "false"},
       {"\"describe\":", json_quote(cfg.describe())}},
      indent, pretty);
}

std::string result_json(const runtime::RunResult& r, const std::string& indent,
                        bool pretty) {
  return json_object(
      {{"\"batch_time_s\":", fmt_double(r.batch_time)},
       {"\"throughput_per_gpu\":", fmt_double(r.throughput_per_gpu)},
       {"\"utilization\":", fmt_double(r.utilization)},
       {"\"compute_idle_fraction\":", fmt_double(r.compute_idle_fraction)}},
      indent, pretty);
}

std::string memory_json(const memmodel::MemoryEstimate& m,
                        const std::string& indent, bool pretty) {
  return json_object(
      {{"\"total_bytes\":", fmt_double(m.total())},
       {"\"state_bytes\":", fmt_double(m.state_bytes)},
       {"\"buffer_bytes\":", fmt_double(m.buffer_bytes)},
       {"\"activation_bytes\":", fmt_double(m.activation_bytes)},
       {"\"checkpoint_bytes\":", fmt_double(m.checkpoint_bytes)},
       {"\"p2p_buffer_bytes\":", fmt_double(m.p2p_buffer_bytes)}},
      indent, pretty);
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Report::to_json(bool pretty) const {
  Fields fields = {
      {"\"scenario\":", json_quote(scenario)},
      {"\"model\":", json_quote(model)},
      {"\"cluster\":", json_quote(cluster)},
      {"\"method\":", method.empty() ? "null" : json_quote(method)},
      {"\"n_gpus\":", std::to_string(n_gpus)},
      {"\"batch_size\":", std::to_string(batch_size)},
      {"\"beta\":", fmt_double(beta())},
      {"\"found\":", found ? "true" : "false"}};
  if (!found && !error.empty()) {
    fields.push_back({"\"error\":", json_quote(error)});
  }
  if (found) {
    fields.push_back({"\"config\":", config_json(config, "  ", pretty)});
    fields.push_back({"\"result\":", result_json(result, "  ", pretty)});
    fields.push_back({"\"memory\":", memory_json(memory, "  ", pretty)});
    fields.push_back(
        {"\"memory_min\":", memory_json(memory_min, "  ", pretty)});
  }
  if (!method.empty()) {
    Fields search = {{"\"evaluated\":", std::to_string(evaluated)},
                     {"\"infeasible\":", std::to_string(infeasible)}};
    if (frugal.has_value()) {
      // Indented one level shallower than they nest, as always printed.
      const Fields fr = {
          {"\"config\":", config_json(frugal->config, "    ", pretty)},
          {"\"result\":", result_json(frugal->result, "    ", pretty)},
          {"\"memory_min\":", memory_json(frugal->memory_min, "    ", pretty)}};
      search.push_back({"\"frugal\":", json_object(fr, "    ", pretty)});
    }
    fields.push_back({"\"search\":", json_object(search, "  ", pretty)});
  }
  return json_object(fields, "", pretty) + (pretty ? "\n" : "");
}

std::string Report::csv_header() {
  return "scenario,model,cluster,method,n_gpus,batch_size,beta,found,"
         "schedule,sharding,n_pp,n_tp,n_dp,s_mb,n_mb,n_loop,overlap_dp,"
         "overlap_pp,batch_time_s,throughput_per_gpu,utilization,"
         "compute_idle_fraction,memory_total_bytes,memory_min_total_bytes,"
         "evaluated,infeasible,error";
}

std::string Report::to_csv_row() const {
  std::vector<std::string> cells = {
      csv_quote(scenario),
      csv_quote(model),
      csv_quote(cluster),
      csv_quote(method),
      std::to_string(n_gpus),
      std::to_string(batch_size),
      fmt_double(beta()),
      found ? "1" : "0"};
  if (found) {
    cells.insert(cells.end(),
                 {parallel::to_string(config.schedule),
                  parallel::to_string(config.sharding),
                  std::to_string(config.n_pp), std::to_string(config.n_tp),
                  std::to_string(config.n_dp), std::to_string(config.s_mb),
                  std::to_string(config.n_mb), std::to_string(config.n_loop),
                  config.overlap_dp ? "1" : "0",
                  config.overlap_pp ? "1" : "0", fmt_double(result.batch_time),
                  fmt_double(result.throughput_per_gpu),
                  fmt_double(result.utilization),
                  fmt_double(result.compute_idle_fraction),
                  fmt_double(memory.total()), fmt_double(memory_min.total())});
  } else {
    cells.insert(cells.end(), 16, "");
  }
  cells.push_back(std::to_string(evaluated));
  cells.push_back(std::to_string(infeasible));
  // Explicit (usually empty) error column, quoted like every other text
  // field, so failed sweep cells never change the CSV schema.
  cells.push_back(csv_quote(error));
  return join(cells, ",");
}

std::string Report::to_csv() const {
  return csv_header() + "\n" + to_csv_row() + "\n";
}

// ---- wire form (cache persistence) ----

namespace {

// %.17g: enough digits that parsing the decimal back yields the exact
// same double, which keeps reloaded Reports byte-identical under the
// %.10g display emitters.
std::string wire_double(double x) { return str_format("%.17g", x); }

// std::string("["): avoids gcc 12's false -Wrestrict (GCC bug 105651).
std::string wire_result(const runtime::RunResult& r) {
  return std::string("[") + wire_double(r.batch_time) + "," +
         wire_double(r.throughput_per_gpu) + "," +
         wire_double(r.utilization) + "," +
         wire_double(r.compute_idle_fraction) + "]";
}

std::string wire_memory(const memmodel::MemoryEstimate& m) {
  return std::string("[") + wire_double(m.state_bytes) + "," +
         wire_double(m.buffer_bytes) + "," +
         wire_double(m.activation_bytes) + "," +
         wire_double(m.checkpoint_bytes) + "," +
         wire_double(m.p2p_buffer_bytes) + "]";
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
    out.push_back(item.as_number(key));
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
  std::vector<std::string> fields = {
      "\"scenario\":" + json_quote(scenario),
      "\"model\":" + json_quote(model),
      "\"cluster\":" + json_quote(cluster),
      "\"method\":" + json_quote(method),
      str_format("\"n_gpus\":%d", n_gpus),
      str_format("\"batch_size\":%d", batch_size),
      std::string("\"found\":") + (found ? "true" : "false"),
      "\"error\":" + json_quote(error),
      "\"config\":" + json_quote(config.describe()),
      "\"result\":" + wire_result(result),
      "\"memory\":" + wire_memory(memory),
      "\"memory_min\":" + wire_memory(memory_min),
      str_format("\"evaluated\":%d", evaluated),
      str_format("\"infeasible\":%d", infeasible)};
  if (frugal.has_value()) {
    fields.push_back("\"frugal\":{\"config\":" +
                     json_quote(frugal->config.describe()) +
                     ",\"result\":" + wire_result(frugal->result) +
                     ",\"memory_min\":" + wire_memory(frugal->memory_min) +
                     "}");
  }
  return std::string("{") + join(fields, ",") + "}";
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
               str_format("%.2f", r.result.throughput_per_gpu / 1e12),
               str_format("%.1f%%", 100.0 * r.result.utilization),
               format_bytes(r.memory.total()),
               format_bytes(r.memory_min.total())});
  }
  return t;
}

std::string to_csv(const std::vector<Report>& reports) {
  std::string out = Report::csv_header() + "\n";
  for (const Report& r : reports) out += r.to_csv_row() + "\n";
  return out;
}

std::string to_json(const std::vector<Report>& reports) {
  if (reports.empty()) return "[]\n";
  std::vector<std::string> items;
  for (const Report& r : reports) {
    items.push_back(r.to_json());
    items.back().pop_back();  // the object's trailing newline
  }
  return std::string("[\n") + join(items, ",\n") + "\n]\n";
}

}  // namespace bfpp::api
