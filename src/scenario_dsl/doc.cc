#include "scenario_dsl/doc.h"

#include <fstream>
#include <set>
#include <sstream>

#include "cca/cca.h"
#include "scenario_dsl/keys.h"
#include "scenario_dsl/sweep.h"

namespace greencc::dsl {

namespace {

/// Tracks which keys of one table the schema consumed; finish() turns any
/// leftover into a line-accurate unknown-key error.
class TableReader {
 public:
  TableReader(const TomlValue& table, std::string section)
      : table_(table), section_(std::move(section)) {}

  const TomlValue* find(const std::string& key) {
    consumed_.insert(key);
    auto it = table_.table.find(key);
    return it == table_.table.end() ? nullptr : &it->second;
  }

  void finish() const {
    for (const auto& [key, value] : table_.table) {
      if (consumed_.count(key) == 0) {
        throw ParseError(value.line,
                         "unknown key '" + key + "' in " + section_);
      }
    }
  }

 private:
  const TomlValue& table_;
  std::string section_;
  std::set<std::string> consumed_;
};

/// Reads the key-table keys of `section` present in `t` into `doc` (flow
/// keys into doc.flows[flow]), in table order.
void read_keys(const TomlValue& t, std::string_view section, ScenarioDoc& doc,
               std::size_t flow = 0) {
  std::string label;
  for (const KeySpec& key : scenario_keys()) {
    if (key.section != section) continue;
    const auto it = t.table.find(key.name);
    if (it == t.table.end()) continue;
    label.assign(section).append(".").append(key.name);
    set_key(key, doc, flow, it->second, label);
  }
}

/// Throws for the first key of `t`, in name order, that is neither a
/// key-table key of `section` nor `structural`.
void reject_unknown(const TomlValue& t, std::string_view section,
                    const std::string& where,
                    const char* structural = nullptr) {
  for (const auto& [name, value] : t.table) {
    const bool known = find_key(section, name) != nullptr ||
                       (structural != nullptr && name == structural);
    if (!known) {
      throw ParseError(value.line, "unknown key '" + name + "' in " + where);
    }
  }
}

void read_section(const TomlValue& t, std::string_view section,
                  const std::string& where, ScenarioDoc& doc,
                  std::size_t flow = 0) {
  read_keys(t, section, doc, flow);
  reject_unknown(t, section, where);
}

fault::FaultEvent parse_fault_event(const TomlValue& v) {
  const std::string text = value_as_string(v, "faults.events");
  const std::size_t at_pos = text.rfind('@');
  if (at_pos == std::string::npos) {
    throw ParseError(v.line, "faults.events entry must be \"<what>@<time>\" "
                             "like \"down@500ms\", got '" +
                                 text + "'");
  }
  TomlValue when;
  when.kind = TomlValue::Kind::kString;
  when.str = text.substr(at_pos + 1);
  when.line = v.line;

  fault::FaultEvent event;
  event.at = value_as_time(when, "faults.events time");
  const std::string what = text.substr(0, at_pos);
  if (what == "down") {
    event.kind = fault::FaultEvent::Kind::kLinkDown;
  } else if (what == "up") {
    event.kind = fault::FaultEvent::Kind::kLinkUp;
  } else if (what.rfind("rate=", 0) == 0) {
    event.kind = fault::FaultEvent::Kind::kRate;
    TomlValue rate;
    rate.kind = TomlValue::Kind::kString;
    rate.str = what.substr(5);
    rate.line = v.line;
    event.rate = value_as_rate(rate, "faults.events rate");
  } else if (what.rfind("delay=", 0) == 0) {
    event.kind = fault::FaultEvent::Kind::kDelay;
    TomlValue delay;
    delay.kind = TomlValue::Kind::kString;
    delay.str = what.substr(6);
    delay.line = v.line;
    event.delay = value_as_time(delay, "faults.events delay");
  } else {
    throw ParseError(v.line,
                     "faults.events entry must start with down, up, "
                     "rate=<rate> or delay=<time>; got '" +
                         text + "'");
  }
  return event;
}

void parse_fault_events(const TomlValue& v, fault::FaultPlan& plan) {
  if (!v.is_array()) {
    throw ParseError(v.line, "faults.events: expected an array of "
                             "\"<what>@<time>\" strings");
  }
  for (const TomlValue& entry : v.array) {
    plan.schedule.add(parse_fault_event(entry));
  }
}

/// A scalar axis value: string/int/float/bool only.
void require_scalar(const TomlValue& v, const std::string& where) {
  if (v.is_array() || v.is_table()) {
    throw ParseError(v.line, where + ": expected a scalar value, got " +
                                 std::string(v.kind_name()));
  }
}

AxisDoc parse_axis_entry(const TomlValue& t, int index) {
  const std::string section = "[[sweep.axis]] #" + std::to_string(index);
  TableReader r(t, section);
  AxisDoc axis;
  axis.line = t.line;

  if (const TomlValue* v = r.find("name")) {
    axis.name = value_as_string(*v, "sweep.axis.name");
  }
  if (axis.name.empty() || !is_identifier(axis.name)) {
    throw ParseError(t.line, section + " needs a name of lowercase "
                             "letters, digits, '_' or '-'");
  }

  const TomlValue* path = r.find("path");
  const TomlValue* paths = r.find("paths");
  if ((path != nullptr) == (paths != nullptr)) {
    throw ParseError(t.line, "sweep axis '" + axis.name +
                                 "' needs exactly one of path or paths");
  }
  if (path != nullptr) {
    axis.paths.push_back(value_as_string(*path, "sweep.axis.path"));
  } else {
    if (!paths->is_array() || paths->array.empty()) {
      throw ParseError(paths->line,
                       "sweep.axis.paths: expected a non-empty array of "
                       "path strings");
    }
    for (const TomlValue& p : paths->array) {
      axis.paths.push_back(value_as_string(p, "sweep.axis.paths"));
    }
  }

  const TomlValue* values = r.find("values");
  const TomlValue* from = r.find("from");
  const TomlValue* to = r.find("to");
  const TomlValue* step = r.find("step");
  const bool has_range = from != nullptr || to != nullptr || step != nullptr;
  if ((values != nullptr) == has_range) {
    throw ParseError(axis.line,
                     "sweep axis '" + axis.name +
                         "' needs either values or from/to/step");
  }

  if (has_range) {
    if (from == nullptr || to == nullptr || step == nullptr) {
      throw ParseError(axis.line, "sweep axis '" + axis.name +
                                      "' range needs from, to and step");
    }
    if (axis.paths.size() != 1) {
      throw ParseError(axis.line, "sweep axis '" + axis.name +
                                      "' ranges only work with one path");
    }
    const std::int64_t lo = value_as_int(*from, "sweep.axis.from");
    const std::int64_t hi = value_as_int(*to, "sweep.axis.to");
    const std::int64_t by = value_as_int(*step, "sweep.axis.step");
    if (by <= 0) {
      throw ParseError(step->line, "sweep.axis.step must be > 0");
    }
    if (hi < lo) {
      throw ParseError(to->line, "sweep.axis.to must be >= from");
    }
    for (std::int64_t x = lo; x <= hi; x += by) {
      TomlValue v;
      v.kind = TomlValue::Kind::kInt;
      v.integer = x;
      v.number = static_cast<double>(x);
      v.line = from->line;
      axis.values.push_back({v});
    }
  } else if (values->is_string()) {
    // Axis macro: the curated CCA lists, in registry order.
    const std::vector<std::string>* names = nullptr;
    if (values->str == "paper_ccas") names = &cca::all_names();
    else if (values->str == "datacenter_ccas") names = &cca::datacenter_names();
    if (names == nullptr) {
      throw ParseError(values->line,
                       "unknown axis macro '" + values->str +
                           "' (known: paper_ccas, datacenter_ccas)");
    }
    if (axis.paths.size() != 1) {
      throw ParseError(values->line, "sweep axis '" + axis.name +
                                         "' macros only work with one path");
    }
    for (const std::string& name : *names) {
      TomlValue v;
      v.kind = TomlValue::Kind::kString;
      v.str = name;
      v.line = values->line;
      axis.values.push_back({v});
    }
  } else if (values->is_array()) {
    if (values->array.empty()) {
      throw ParseError(values->line,
                       "sweep axis '" + axis.name + "' has no values");
    }
    for (const TomlValue& v : values->array) {
      if (axis.paths.size() == 1) {
        require_scalar(v, "sweep axis '" + axis.name + "' value");
        axis.values.push_back({v});
        continue;
      }
      // zip axis: every value is a tuple matching paths
      if (!v.is_array() || v.array.size() != axis.paths.size()) {
        throw ParseError(v.line,
                         "sweep axis '" + axis.name + "' zip value must be "
                         "an array of " +
                             std::to_string(axis.paths.size()) +
                             " entries (one per path)");
      }
      for (const TomlValue& entry : v.array) {
        require_scalar(entry, "sweep axis '" + axis.name + "' value");
      }
      axis.values.push_back(v.array);
    }
  } else {
    throw ParseError(values->line,
                     "sweep.axis.values: expected an array or a macro "
                     "string");
  }

  r.finish();
  return axis;
}

OutputColumn parse_column_entry(const TomlValue& t, int index) {
  const std::string section = "[[output.column]] #" + std::to_string(index);
  TableReader r(t, section);
  OutputColumn col;
  col.line = t.line;
  if (const TomlValue* v = r.find("header")) {
    col.header = value_as_string(*v, "output.column.header");
  }
  if (col.header.empty()) {
    throw ParseError(t.line, section + " needs a header");
  }
  const TomlValue* axis = r.find("axis");
  const TomlValue* metric = r.find("metric");
  if ((axis != nullptr) == (metric != nullptr)) {
    throw ParseError(t.line, "output column '" + col.header +
                                 "' needs exactly one of axis or metric");
  }
  if (axis != nullptr) col.axis = value_as_string(*axis, "output.column.axis");
  if (metric != nullptr) {
    col.metric = value_as_string(*metric, "output.column.metric");
  }
  if (const TomlValue* v = r.find("agg")) {
    col.agg = value_as_string(*v, "output.column.agg");
    if (col.agg != "mean" && col.agg != "stddev") {
      throw ParseError(v->line,
                       "output.column.agg must be mean or stddev, got '" +
                           col.agg + "'");
    }
  }
  if (const TomlValue* v = r.find("format")) {
    col.format = value_as_string(*v, "output.column.format");
    bool ok = col.format == "str" || col.format == "int" ||
              col.format == "yesno";
    if (!ok && col.format.size() >= 2 &&
        (col.format[0] == 'g' || col.format[0] == 'f')) {
      ok = col.format.find_first_not_of("0123456789", 1) ==
               std::string::npos &&
           col.format.size() <= 3;
    }
    if (!ok) {
      throw ParseError(v->line,
                       "output.column.format must be str, int, yesno, g<N> "
                       "or f<N>; got '" +
                           col.format + "'");
    }
  }
  if (const TomlValue* v = r.find("scale")) {
    col.scale = value_as_bool(*v, "output.column.scale");
  }
  r.finish();
  return col;
}

void parse_output_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[output]");
  OutputDoc& out = doc.output;
  if (const TomlValue* v = r.find("csv")) {
    out.csv = value_as_string(*v, "output.csv");
  }
  if (const TomlValue* v = r.find("scale_to")) {
    out.scale_to = value_as_size(*v, "output.scale_to");
  }
  if (const TomlValue* v = r.find("column")) {
    if (!v->is_array()) {
      throw ParseError(v->line, "[[output.column]] must be an array of "
                                "tables");
    }
    int index = 0;
    for (const TomlValue& entry : v->array) {
      out.columns.push_back(parse_column_entry(entry, index++));
    }
  }
  r.finish();
}

/// Fills in the default output spec: one echo column per axis plus the
/// standard aggregate metrics (legacy cca_grid's column set).
void default_output_columns(ScenarioDoc& doc) {
  auto metric_col = [](const char* header, const char* metric,
                       const char* agg, bool scale) {
    OutputColumn col;
    col.header = header;
    col.metric = metric;
    col.agg = agg;
    col.format = std::string(metric) == "completed" ? "yesno" : "g12";
    col.scale = scale;
    return col;
  };
  for (const AxisDoc& axis : doc.axes) {
    OutputColumn col;
    col.header = axis.name;
    col.axis = axis.name;
    doc.output.columns.push_back(col);
  }
  doc.output.columns.push_back(
      metric_col("energy_joules", "energy_joules", "mean", true));
  doc.output.columns.push_back(
      metric_col("energy_stddev", "energy_joules", "stddev", true));
  doc.output.columns.push_back(
      metric_col("power_watts", "power_watts", "mean", false));
  if (doc.topology.kind == TopologyKind::kWorkload) {
    doc.output.columns.push_back(
        metric_col("goodput_gbps", "goodput_gbps", "mean", false));
    doc.output.columns.push_back(
        metric_col("mean_slowdown", "mean_slowdown", "mean", false));
    doc.output.columns.push_back(
        metric_col("p99_slowdown", "p99_slowdown", "mean", false));
  } else {
    doc.output.columns.push_back(
        metric_col("fct_sec", "fct_sec", "mean", true));
    doc.output.columns.push_back(
        metric_col("retransmissions", "retransmissions", "mean", true));
  }
  doc.output.columns.push_back(
      metric_col("completed", "completed", "mean", false));
}

void validate_semantics(ScenarioDoc& doc) {
  if (doc.name.empty()) {
    throw ParseError(1, "[scenario] needs a name");
  }

  const bool is_workload = doc.topology.kind == TopologyKind::kWorkload;
  if (is_workload && !doc.flows.empty()) {
    throw ParseError(doc.axes.empty() ? 1 : doc.axes.front().line,
                     "topology.kind \"workload\" drives flows from "
                     "[workload]; remove the [[flow]] sections");
  }
  if (!is_workload && doc.flows.empty()) {
    doc.flows.push_back(FlowDoc{});  // one default cubic flow
  }
  if (doc.topology.kind == TopologyKind::kIncast && doc.flows.size() > 1) {
    throw ParseError(1, "topology.kind \"incast\" replicates a single "
                        "[[flow]] template fan_in times; give exactly one");
  }
  if (doc.topology.kind == TopologyKind::kParkingLot &&
      doc.flows.size() > 2) {
    throw ParseError(1, "topology.kind \"parking_lot\" takes at most two "
                        "[[flow]] entries (main flow and cross template)");
  }

  // Axis names must be unique; bound paths must not overlap.
  std::set<std::string> axis_names;
  std::vector<std::pair<std::string, std::string>> bound;  // path, axis
  for (const AxisDoc& axis : doc.axes) {
    if (!axis_names.insert(axis.name).second) {
      throw ParseError(axis.line, "duplicate sweep axis '" + axis.name + "'");
    }
    for (const std::string& path : axis.paths) {
      for (const auto& [other_path, other_axis] : bound) {
        if (paths_overlap(path, other_path)) {
          throw ParseError(axis.line, "sweep axis '" + axis.name +
                                          "' binds path '" + path +
                                          "', already bound by axis '" +
                                          other_axis + "'");
        }
      }
      bound.emplace_back(path, axis.name);
    }
  }

  // Type-check every axis value by applying each binding to a probe copy.
  ScenarioDoc probe = doc;
  for (const AxisDoc& axis : doc.axes) {
    for (const std::vector<TomlValue>& tuple : axis.values) {
      for (std::size_t p = 0; p < axis.paths.size(); ++p) {
        apply_binding(probe, axis.paths[p], tuple[p]);
      }
    }
  }

  // Output columns must reference declared axes / known metrics.
  for (const OutputColumn& col : doc.output.columns) {
    if (!col.axis.empty() && axis_names.count(col.axis) == 0) {
      throw ParseError(col.line, "output column '" + col.header +
                                     "' references unknown axis '" +
                                     col.axis + "'");
    }
    if (!col.metric.empty() && !is_known_metric(col.metric)) {
      throw ParseError(col.line, "output column '" + col.header +
                                     "' references unknown metric '" +
                                     col.metric + "'");
    }
  }

  if (doc.output.csv.empty()) doc.output.csv = doc.name + ".csv";
  if (doc.output.columns.empty()) default_output_columns(doc);
}

}  // namespace

ScenarioDoc parse_scenario_text(std::string_view text,
                                const std::string& filename) {
  try {
    const TomlValue root = parse_toml(text);
    ScenarioDoc doc;
    doc.source_file = filename;

    TableReader r(root, "the top level");
    for (const char* section : {"scenario", "topology", "tcp", "aqm"}) {
      if (const TomlValue* v = r.find(section)) {
        read_section(*v, section, "[" + std::string(section) + "]", doc);
      }
    }
    if (const TomlValue* v = r.find("faults")) {
      doc.faults.install = true;  // writing a [faults] section means "use it"
      read_keys(*v, "faults", doc);
      if (const auto it = v->table.find("events"); it != v->table.end()) {
        parse_fault_events(it->second, doc.faults);
      }
      reject_unknown(*v, "faults", "[faults]", "events");
    }
    if (const TomlValue* v = r.find("energy")) {
      read_keys(*v, "energy", doc);
      if (const auto it = v->table.find("work"); it != v->table.end()) {
        if (!it->second.is_table()) {
          throw ParseError(it->second.line, "[energy.work] must be a table");
        }
        read_section(it->second, "energy.work", "[energy.work]", doc);
      }
      reject_unknown(*v, "energy", "[energy]", "work");
    }
    if (const TomlValue* v = r.find("flow")) {
      if (!v->is_array()) {
        throw ParseError(v->line, "[[flow]] must be an array of tables");
      }
      for (const TomlValue& entry : v->array) {
        const std::size_t index = doc.flows.size();
        doc.flows.emplace_back();
        read_section(entry, "flow", "[[flow]] #" + std::to_string(index), doc,
                     index);
      }
    }
    if (const TomlValue* v = r.find("workload")) {
      read_section(*v, "workload", "[workload]", doc);
    }
    if (const TomlValue* v = r.find("sweep")) {
      if (!v->is_table()) {
        throw ParseError(v->line, "[sweep] must be a table");
      }
      TableReader sr(*v, "[sweep]");
      if (const TomlValue* axes = sr.find("axis")) {
        if (!axes->is_array()) {
          throw ParseError(axes->line,
                           "[[sweep.axis]] must be an array of tables");
        }
        int index = 0;
        for (const TomlValue& entry : axes->array) {
          doc.axes.push_back(parse_axis_entry(entry, index++));
        }
      }
      sr.finish();
    }
    if (const TomlValue* v = r.find("output")) parse_output_section(*v, doc);
    r.finish();

    validate_semantics(doc);
    return doc;
  } catch (const ParseError& e) {
    throw DslError(filename, e.line(), e.message());
  }
}

ScenarioDoc load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw DslError(path, 0, "cannot open file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario_text(buffer.str(), path);
}

}  // namespace greencc::dsl
