#include "scenario_dsl/sweep.h"

#include <cstdlib>

namespace greencc::dsl {

namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : path) {
    if (c == '.') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

[[noreturn]] void unknown_path(const std::string& path, int line) {
  throw ParseError(line, "unknown sweep path '" + path + "'");
}

void set_flow_field(FlowDoc& flow, const std::string& field,
                    const TomlValue& v, const std::string& path) {
  if (field == "cca") {
    flow.cca = value_as_string(v, path);
    require_known_cca(flow.cca, v.line);
  } else if (field == "bytes") flow.bytes = value_as_size(v, path);
  else if (field == "rate_limit") flow.rate_limit = value_as_rate(v, path);
  else if (field == "start") flow.start = value_as_time(v, path);
  else if (field == "weight") flow.weight = value_as_double(v, path);
  else if (field == "host") {
    flow.host = static_cast<int>(value_as_int(v, path));
  } else if (field == "start_after") {
    flow.start_after = static_cast<int>(value_as_int(v, path));
  } else if (field == "unlimit_after") {
    flow.unlimit_after = static_cast<int>(value_as_int(v, path));
  } else if (field == "count") {
    flow.count = static_cast<int>(value_as_int(v, path));
  } else {
    unknown_path(path, v.line);
  }
}

void set_scenario_field(ScenarioDoc& doc, const std::string& field,
                        const TomlValue& v, const std::string& path) {
  if (field == "stress_cores") {
    doc.stress_cores = static_cast<int>(value_as_int(v, path));
  } else if (field == "work_jitter") {
    doc.work_jitter = value_as_work_jitter(v, path);
  } else if (field == "meter_receiver") {
    doc.meter_receiver = value_as_bool(v, path);
  } else if (field == "deadline") {
    doc.deadline = value_as_time(v, path);
  } else if (field == "audit_interval") {
    doc.audit_interval = value_as_time(v, path);
  } else {
    unknown_path(path, v.line);
  }
}

void set_topology_field(ScenarioDoc& doc, const std::string& field,
                        const TomlValue& v, const std::string& path) {
  TopologyDoc& topo = doc.topology;
  if (field == "bottleneck") topo.bottleneck = value_as_rate(v, path);
  else if (field == "link_delay") topo.link_delay = value_as_time(v, path);
  else if (field == "queue") topo.queue = value_as_size(v, path);
  else if (field == "ecn_threshold") {
    topo.ecn_threshold = value_as_size(v, path);
  } else if (field == "nic_ports") {
    topo.nic_ports = static_cast<int>(value_as_int(v, path));
  } else if (field == "drr") {
    topo.drr = value_as_bool(v, path);
  } else if (field == "fan_in") {
    topo.fan_in = static_cast<int>(value_as_int(v, path));
  } else if (field == "aggregate") {
    topo.aggregate = value_as_size(v, path);
  } else if (field == "hops") {
    topo.hops = static_cast<int>(value_as_int(v, path));
  } else if (field == "cross_bytes") {
    topo.cross_bytes = value_as_size(v, path);
  } else if (field == "stagger") {
    topo.stagger = value_as_time(v, path);
  } else if (field == "racks") {
    topo.racks = static_cast<int>(value_as_int(v, path));
  } else if (field == "hosts_per_rack") {
    topo.hosts_per_rack = static_cast<int>(value_as_int(v, path));
  } else {
    unknown_path(path, v.line);
  }
}

void set_tcp_field(ScenarioDoc& doc, const std::string& field,
                   const TomlValue& v, const std::string& path) {
  tcp::TcpConfig& cfg = doc.tcp;
  if (field == "mtu") cfg.mtu_bytes = value_as_size(v, path);
  else if (field == "header") cfg.header_bytes = value_as_size(v, path);
  else if (field == "ack") cfg.ack_bytes = value_as_size(v, path);
  else if (field == "min_rto") cfg.min_rto = value_as_time(v, path);
  else if (field == "max_rto") cfg.max_rto = value_as_time(v, path);
  else if (field == "dupack_threshold") {
    cfg.dupack_threshold = static_cast<int>(value_as_int(v, path));
  } else if (field == "delack_segments") {
    cfg.delack_segments = static_cast<int>(value_as_int(v, path));
  } else if (field == "delack_timeout") {
    cfg.delack_timeout = value_as_time(v, path);
  } else if (field == "initial_cwnd") {
    cfg.initial_cwnd = value_as_int(v, path);
  } else {
    unknown_path(path, v.line);
  }
}

void set_aqm_field(ScenarioDoc& doc, const std::string& field,
                   const TomlValue& v, const std::string& path) {
  net::AqmConfig& aqm = doc.aqm;
  if (field == "mode") {
    const std::string mode = value_as_string(v, path);
    if (mode == "none") aqm.mode = net::AqmMode::kNone;
    else if (mode == "step") aqm.mode = net::AqmMode::kStepEcn;
    else if (mode == "red") aqm.mode = net::AqmMode::kRed;
    else if (mode == "codel") aqm.mode = net::AqmMode::kCodel;
    else {
      throw ParseError(v.line, path + ": must be one of none, step, red, "
                               "codel; got '" + mode + "'");
    }
  } else if (field == "step_threshold") {
    aqm.step_threshold_bytes = value_as_size(v, path);
  } else if (field == "red_min") {
    aqm.red_min_bytes = value_as_size(v, path);
  } else if (field == "red_max") {
    aqm.red_max_bytes = value_as_size(v, path);
  } else if (field == "red_max_probability") {
    aqm.red_max_probability = value_as_double(v, path);
  } else if (field == "red_weight") {
    aqm.red_weight = value_as_double(v, path);
  } else if (field == "codel_target") {
    aqm.codel_target = value_as_time(v, path);
  } else if (field == "codel_interval") {
    aqm.codel_interval = value_as_time(v, path);
  } else {
    unknown_path(path, v.line);
  }
}

void set_faults_field(ScenarioDoc& doc, const std::string& field,
                      const TomlValue& v, const std::string& path) {
  fault::FaultPlan& plan = doc.faults;
  if (field == "install") plan.install = value_as_bool(v, path);
  else if (field == "loss") plan.impair.loss_rate = value_as_double(v, path);
  else if (field == "ge_p_bad") {
    plan.impair.ge_p_bad = value_as_double(v, path);
  } else if (field == "ge_p_good") {
    plan.impair.ge_p_good = value_as_double(v, path);
  } else if (field == "ge_loss_bad") {
    plan.impair.ge_loss_bad = value_as_double(v, path);
  } else if (field == "corrupt") {
    plan.impair.corrupt_rate = value_as_double(v, path);
  } else if (field == "reorder") {
    plan.impair.reorder_rate = value_as_double(v, path);
  } else if (field == "reorder_delay") {
    plan.impair.reorder_delay = value_as_time(v, path);
  } else if (field == "duplicate") {
    plan.impair.duplicate_rate = value_as_double(v, path);
  } else if (field == "jitter") {
    plan.impair.jitter_max = value_as_time(v, path);
  } else if (field == "seed") {
    plan.impair.seed =
        static_cast<std::uint64_t>(value_as_int(v, path));
  } else {
    unknown_path(path, v.line);
  }
}

void set_energy_field(ScenarioDoc& doc, const std::string& field,
                      const TomlValue& v, const std::string& path) {
  energy::PowerCalibration& p = doc.energy.power;
  if (field == "idle") {
    p.idle_watts = units::Power::watts(value_as_double(v, path));
  } else if (field == "net_amplitude") {
    p.net_amplitude_watts =
        units::Power::watts(value_as_double(v, path));
  } else if (field == "net_util_scale") {
    p.net_util_scale = value_as_double(v, path);
  } else if (field == "omega") {
    p.omega_watts_per_pps = value_as_double(v, path);
  } else if (field == "stress_core") {
    p.stress_core_watts = units::Power::watts(value_as_double(v, path));
  } else if (field == "chi") {
    p.chi_watts_per_gbps = value_as_double(v, path);
  } else if (field == "total_cores") {
    p.total_cores = static_cast<int>(value_as_int(v, path));
  } else {
    unknown_path(path, v.line);
  }
}

void set_energy_work_field(ScenarioDoc& doc, const std::string& field,
                           const TomlValue& v, const std::string& path) {
  energy::WorkCalibration& w = doc.energy.work;
  if (field == "pkt_ns") w.pkt_ns = value_as_double(v, path);
  else if (field == "byte_ns") w.byte_ns = value_as_double(v, path);
  else if (field == "ack_ns") w.ack_ns = value_as_double(v, path);
  else if (field == "retx_ns") w.retx_ns = value_as_double(v, path);
  else if (field == "timeout_ns") w.timeout_ns = value_as_double(v, path);
  else if (field == "rx_pkt_ns") w.rx_pkt_ns = value_as_double(v, path);
  else if (field == "rx_byte_ns") w.rx_byte_ns = value_as_double(v, path);
  else if (field == "rx_drop_ns") w.rx_drop_ns = value_as_double(v, path);
  else if (field == "rx_backlog") {
    w.rx_backlog_packets = static_cast<int>(value_as_int(v, path));
  } else {
    unknown_path(path, v.line);
  }
}

void set_workload_field(ScenarioDoc& doc, const std::string& field,
                        const TomlValue& v, const std::string& path) {
  WorkloadDoc& wl = doc.workload;
  if (field == "cca") {
    wl.cca = value_as_string(v, path);
    require_known_cca(wl.cca, v.line);
  } else if (field == "load") wl.load = value_as_double(v, path);
  else if (field == "sizes") wl.sizes = value_as_string(v, path);
  else if (field == "hosts") {
    wl.hosts = static_cast<int>(value_as_int(v, path));
  } else if (field == "horizon") {
    wl.horizon = value_as_time(v, path);
  } else {
    unknown_path(path, v.line);
  }
}

}  // namespace

bool paths_overlap(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const std::vector<std::string> pa = split_path(a);
  const std::vector<std::string> pb = split_path(b);
  if (pa.size() == 3 && pb.size() == 3 && pa[0] == "flow" &&
      pb[0] == "flow" && pa[2] == pb[2]) {
    return pa[1] == "*" || pb[1] == "*" || pa[1] == pb[1];
  }
  return false;
}

void apply_binding(ScenarioDoc& doc, const std::string& path,
                   const TomlValue& value) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.size() == 3 && parts[0] == "flow") {
    if (parts[1] == "*") {
      if (doc.flows.empty()) {
        throw ParseError(value.line, "sweep path '" + path +
                                         "': scenario has no flows");
      }
      for (FlowDoc& flow : doc.flows) {
        set_flow_field(flow, parts[2], value, path);
      }
      return;
    }
    char* end = nullptr;
    const long index = std::strtol(parts[1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || index < 0) {
      unknown_path(path, value.line);
    }
    if (static_cast<std::size_t>(index) >= doc.flows.size()) {
      throw ParseError(value.line,
                       "sweep path '" + path + "': flow index out of range "
                       "(scenario has " +
                           std::to_string(doc.flows.size()) + " flows)");
    }
    set_flow_field(doc.flows[static_cast<std::size_t>(index)], parts[2],
                   value, path);
    return;
  }
  if (parts.size() == 3 && parts[0] == "energy" && parts[1] == "work") {
    set_energy_work_field(doc, parts[2], value, path);
    return;
  }
  if (parts.size() == 2) {
    const std::string& section = parts[0];
    const std::string& field = parts[1];
    if (section == "scenario") return set_scenario_field(doc, field, value, path);
    if (section == "topology") return set_topology_field(doc, field, value, path);
    if (section == "tcp") return set_tcp_field(doc, field, value, path);
    if (section == "aqm") return set_aqm_field(doc, field, value, path);
    if (section == "faults") return set_faults_field(doc, field, value, path);
    if (section == "energy") return set_energy_field(doc, field, value, path);
    if (section == "workload") return set_workload_field(doc, field, value, path);
  }
  unknown_path(path, value.line);
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
