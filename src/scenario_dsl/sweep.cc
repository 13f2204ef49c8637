#include "scenario_dsl/sweep.h"

#include <cstdlib>
#include <string_view>

#include "scenario_dsl/keys.h"

namespace greencc::dsl {

namespace {

/// A sweep path split at its dots. Bindable paths have two parts
/// ("tcp.mtu") or three ("flow.0.bytes", "energy.work.pkt_ns"); `size` is
/// 0 for anything longer.
struct PathParts {
  std::string_view part[3];
  std::size_t size = 0;
};

PathParts split_path(std::string_view path) {
  PathParts out;
  for (std::size_t n = 0; n < 3; ++n) {
    const std::size_t dot = path.find('.');
    out.part[n] = path.substr(0, dot);
    if (dot == std::string_view::npos) {
      out.size = n + 1;
      return out;
    }
    path.remove_prefix(dot + 1);
  }
  return out;  // more than three parts
}

[[noreturn]] void unknown_path(const std::string& path, int line) {
  throw ParseError(line, "unknown sweep path '" + path + "'");
}

}  // namespace

bool paths_overlap(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const PathParts pa = split_path(a);
  const PathParts pb = split_path(b);
  if (pa.size == 3 && pb.size == 3 && pa.part[0] == "flow" &&
      pb.part[0] == "flow" && pa.part[2] == pb.part[2]) {
    return pa.part[1] == "*" || pb.part[1] == "*" || pa.part[1] == pb.part[1];
  }
  return false;
}

void apply_binding(ScenarioDoc& doc, const std::string& path,
                   const TomlValue& value) {
  const PathParts parts = split_path(path);
  if (parts.size == 3 && parts.part[0] == "flow") {
    std::size_t first = 0;
    std::size_t last = doc.flows.size();
    if (parts.part[1] == "*") {
      if (doc.flows.empty()) {
        throw ParseError(value.line, "sweep path '" + path +
                                         "': scenario has no flows");
      }
    } else {
      const std::string index_text(parts.part[1]);
      char* end = nullptr;
      const long index = std::strtol(index_text.c_str(), &end, 10);
      if (index_text.empty() || *end != '\0' || index < 0) {
        unknown_path(path, value.line);
      }
      if (static_cast<std::size_t>(index) >= doc.flows.size()) {
        throw ParseError(value.line,
                         "sweep path '" + path + "': flow index out of range "
                         "(scenario has " +
                             std::to_string(doc.flows.size()) + " flows)");
      }
      first = static_cast<std::size_t>(index);
      last = first + 1;
    }
    const KeySpec* key = find_key("flow", parts.part[2]);
    if (key == nullptr || !key->sweepable) unknown_path(path, value.line);
    for (std::size_t flow = first; flow < last; ++flow) {
      set_key(*key, doc, flow, value, path);
    }
    return;
  }
  const KeySpec* key = nullptr;
  if (parts.size == 2) {
    key = find_key(parts.part[0], parts.part[1]);
  } else if (parts.size == 3 && parts.part[0] == "energy" &&
             parts.part[1] == "work") {
    key = find_key("energy.work", parts.part[2]);
  }
  if (key == nullptr || !key->sweepable || key->section == "flow") {
    unknown_path(path, value.line);
  }
  set_key(*key, doc, 0, value, path);
}

void apply_override(ScenarioDoc& doc, const std::string& assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ParseError(0, "--set needs path=value, got '" + assignment + "'");
  }
  const std::string path = assignment.substr(0, eq);
  const std::string text = assignment.substr(eq + 1);

  TomlValue v;
  v.line = 0;
  char* end = nullptr;
  const long long as_int = std::strtoll(text.c_str(), &end, 10);
  if (text == "true" || text == "false") {
    v.kind = TomlValue::Kind::kBool;
    v.boolean = (text == "true");
  } else if (!text.empty() && end != nullptr && *end == '\0') {
    v.kind = TomlValue::Kind::kInt;
    v.integer = as_int;
    v.number = static_cast<double>(as_int);
  } else {
    const double as_double = std::strtod(text.c_str(), &end);
    if (!text.empty() && end != nullptr && *end == '\0') {
      v.kind = TomlValue::Kind::kFloat;
      v.number = as_double;
    } else {
      v.kind = TomlValue::Kind::kString;
      v.str = text;
    }
  }
  apply_binding(doc, path, v);
}

SweepGrid expand_sweep(const ScenarioDoc& doc) {
  SweepGrid grid;
  std::size_t total = 1;
  for (const AxisDoc& axis : doc.axes) total *= axis.values.size();
  grid.cells.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepCell cell;
    cell.index = index;
    cell.choice.resize(doc.axes.size());
    // Row-major: first axis slowest.
    std::size_t rest = index;
    for (std::size_t a = doc.axes.size(); a-- > 0;) {
      const std::size_t size = doc.axes[a].values.size();
      cell.choice[a] = rest % size;
      rest /= size;
    }
    grid.cells.push_back(std::move(cell));
  }
  return grid;
}

ScenarioDoc doc_for_cell(const ScenarioDoc& base, const SweepCell& cell) {
  ScenarioDoc doc = base;
  for (std::size_t a = 0; a < base.axes.size(); ++a) {
    const AxisDoc& axis = base.axes[a];
    const std::vector<TomlValue>& tuple = axis.values[cell.choice[a]];
    for (std::size_t p = 0; p < axis.paths.size(); ++p) {
      apply_binding(doc, axis.paths[p], tuple[p]);
    }
  }
  return doc;
}

const TomlValue& axis_value(const ScenarioDoc& doc, const SweepCell& cell,
                            std::size_t axis_index) {
  return doc.axes[axis_index].values[cell.choice[axis_index]][0];
}

}  // namespace greencc::dsl
