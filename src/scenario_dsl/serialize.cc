#include "scenario_dsl/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <variant>

#include "scenario_dsl/keys.h"

namespace greencc::dsl {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_time(sim::SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "\"%" PRId64 "ns\"", t.ns());
  return buf;
}

std::string fmt_rate(units::BitRate r) {
  return quoted(fmt_double(r.bps()) + "bps");
}

std::string fmt_size(units::Bytes b) { return std::to_string(b.count()); }

std::string fmt_scalar(const TomlValue& v) {
  switch (v.kind) {
    case TomlValue::Kind::kString: return quoted(v.str);
    case TomlValue::Kind::kInt: return std::to_string(v.integer);
    case TomlValue::Kind::kFloat: return fmt_double(v.number);
    case TomlValue::Kind::kBool: return v.boolean ? "true" : "false";
    case TomlValue::Kind::kArray:
    case TomlValue::Kind::kTable: break;
  }
  return "\"\"";
}

/// One key's value in canonical form.
std::string key_text(const KeySpec& key, const FieldRef& field) {
  switch (key.kind) {
    case ValueKind::kSize: return fmt_size(*std::get<units::Bytes*>(field));
    case ValueKind::kRate: return fmt_rate(*std::get<units::BitRate*>(field));
    case ValueKind::kTime: return fmt_time(*std::get<sim::SimTime*>(field));
    case ValueKind::kInt:
      if (int* const* small = std::get_if<int*>(&field)) {
        return std::to_string(**small);
      }
      if (std::uint64_t* const* seed = std::get_if<std::uint64_t*>(&field)) {
        return std::to_string(**seed);
      }
      return std::to_string(*std::get<std::int64_t*>(field));
    case ValueKind::kDouble:
      if (units::Power* const* watts = std::get_if<units::Power*>(&field)) {
        return fmt_double((*watts)->watts());
      }
      return fmt_double(*std::get<double*>(field));
    case ValueKind::kBool: return *std::get<bool*>(field) ? "true" : "false";
    case ValueKind::kString:
    case ValueKind::kCca: return quoted(*std::get<std::string*>(field));
    case ValueKind::kEnum: {
      const TopologyKind* const* kind = std::get_if<TopologyKind*>(&field);
      const auto index =
          kind != nullptr ? static_cast<std::size_t>(**kind)
                          : static_cast<std::size_t>(
                                *std::get<net::AqmMode*>(field));
      return quoted(std::string(key.choices[index]));
    }
  }
  return "\"\"";
}

/// Writes every key of `section`. A string key is left out when empty
/// (only the optional scenario.description can be).
void emit_keys(std::ostringstream& out, std::string_view section,
               ScenarioDoc& doc, std::size_t flow = 0) {
  for (const KeySpec& key : scenario_keys()) {
    if (key.section != section) continue;
    const FieldRef field = key.field(doc, flow);
    if (key.kind == ValueKind::kString &&
        std::get<std::string*>(field)->empty()) {
      continue;
    }
    out << key.name << " = " << key_text(key, field) << "\n";
  }
}

void emit_fault_events(std::ostringstream& out,
                       const fault::FaultPlan& plan) {
  out << "events = [";
  bool first = true;
  for (const fault::FaultEvent& ev : plan.schedule.events()) {
    if (!first) out << ", ";
    first = false;
    std::string what;
    switch (ev.kind) {
      case fault::FaultEvent::Kind::kLinkDown: what = "down"; break;
      case fault::FaultEvent::Kind::kLinkUp: what = "up"; break;
      case fault::FaultEvent::Kind::kRate:
        what = "rate=" + fmt_double(ev.rate.bps()) + "bps";
        break;
      case fault::FaultEvent::Kind::kDelay:
        what = "delay=" + std::to_string(ev.delay.ns()) + "ns";
        break;
    }
    out << quoted(what + "@" + std::to_string(ev.at.ns()) + "ns");
  }
  out << "]\n";
}

}  // namespace

std::string serialize_scenario(const ScenarioDoc& doc) {
  // The key table's field accessors take a mutable document; this walk
  // only reads through them.
  ScenarioDoc& fields = const_cast<ScenarioDoc&>(doc);
  std::ostringstream out;
  const char* const sections[] = {"scenario", "topology", "tcp",
                                  "aqm",      "faults",   "energy",
                                  "energy.work"};
  for (const char* section : sections) {
    if (section != sections[0]) out << "\n";
    out << "[" << section << "]\n";
    emit_keys(out, section, fields);
    if (std::string_view(section) == "faults") {
      emit_fault_events(out, doc.faults);
    }
  }

  if (doc.topology.kind == TopologyKind::kWorkload) {
    out << "\n[workload]\n";
    emit_keys(out, "workload", fields);
  } else {
    for (std::size_t flow = 0; flow < doc.flows.size(); ++flow) {
      out << "\n[[flow]]\n";
      emit_keys(out, "flow", fields, flow);
    }
  }

  for (const AxisDoc& axis : doc.axes) {
    out << "\n[[sweep.axis]]\n";
    out << "name = " << quoted(axis.name) << "\n";
    if (axis.paths.size() == 1) {
      out << "path = " << quoted(axis.paths[0]) << "\n";
    } else {
      out << "paths = [";
      for (std::size_t i = 0; i < axis.paths.size(); ++i) {
        if (i != 0) out << ", ";
        out << quoted(axis.paths[i]);
      }
      out << "]\n";
    }
    out << "values = [";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i != 0) out << ", ";
      const std::vector<TomlValue>& tuple = axis.values[i];
      if (axis.paths.size() == 1) {
        out << fmt_scalar(tuple[0]);
      } else {
        out << "[";
        for (std::size_t j = 0; j < tuple.size(); ++j) {
          if (j != 0) out << ", ";
          out << fmt_scalar(tuple[j]);
        }
        out << "]";
      }
    }
    out << "]\n";
  }

  out << "\n[output]\n";
  out << "csv = " << quoted(doc.output.csv) << "\n";
  out << "scale_to = " << fmt_size(doc.output.scale_to) << "\n";
  for (const OutputColumn& col : doc.output.columns) {
    out << "\n[[output.column]]\n";
    out << "header = " << quoted(col.header) << "\n";
    if (!col.axis.empty()) {
      out << "axis = " << quoted(col.axis) << "\n";
    } else {
      out << "metric = " << quoted(col.metric) << "\n";
      out << "agg = " << quoted(col.agg) << "\n";
    }
    if (!col.format.empty()) {
      out << "format = " << quoted(col.format) << "\n";
    }
    out << "scale = " << (col.scale ? "true" : "false") << "\n";
  }

  return out.str();
}

}  // namespace greencc::dsl
