#include "scenario_dsl/doc.h"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "cca/cca.h"
#include "scenario_dsl/sweep.h"

namespace greencc::dsl {

namespace {

bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

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

/// Numeric prefix + suffix split for unit strings ("2.5Gbps" -> 2.5,
/// "Gbps"). Returns false when there is no leading number.
bool split_unit(const std::string& text, double* value,
                std::string* suffix) {
  const char* start = text.c_str();
  char* end = nullptr;
  *value = std::strtod(start, &end);
  if (end == start) return false;
  *suffix = std::string(end);
  return true;
}

[[noreturn]] void unit_error(const TomlValue& v, const std::string& key,
                             const std::string& expected) {
  std::string got;
  if (v.is_string()) {
    got = "'" + v.str + "'";
  } else {
    got = v.kind_name();
  }
  throw ParseError(v.line, key + ": expected " + expected + ", got " + got);
}

}  // namespace

void require_known_cca(const std::string& name, int line) {
  for (const std::string& known : cca::all_names()) {
    if (name == known) return;
  }
  for (const std::string& known : cca::datacenter_names()) {
    if (name == known) return;
  }
  throw ParseError(line, "unknown congestion control algorithm '" + name +
                             "'");
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDumbbell: return "dumbbell";
    case TopologyKind::kParkingLot: return "parking_lot";
    case TopologyKind::kIncast: return "incast";
    case TopologyKind::kFatTreePod: return "fat_tree_pod";
    case TopologyKind::kWorkload: return "workload";
  }
  return "dumbbell";
}

std::string value_as_string(const TomlValue& v, const std::string& key) {
  if (!v.is_string()) {
    throw ParseError(v.line, key + ": expected a string, got " +
                                 std::string(v.kind_name()));
  }
  return v.str;
}

bool value_as_bool(const TomlValue& v, const std::string& key) {
  if (!v.is_bool()) {
    throw ParseError(v.line, key + ": expected true or false, got " +
                                 std::string(v.kind_name()));
  }
  return v.boolean;
}

std::int64_t value_as_int(const TomlValue& v, const std::string& key) {
  if (!v.is_int()) {
    throw ParseError(v.line, key + ": expected an integer, got " +
                                 std::string(v.kind_name()));
  }
  return v.integer;
}

double value_as_double(const TomlValue& v, const std::string& key) {
  if (!v.is_number()) {
    throw ParseError(v.line, key + ": expected a number, got " +
                                 std::string(v.kind_name()));
  }
  return v.as_number();
}

double value_as_work_jitter(const TomlValue& v, const std::string& key) {
  const double jitter = value_as_double(v, key);
  if (!(jitter >= 0.0 && jitter <= 1.0)) {
    throw ParseError(v.line, key + " must be in [0, 1]");
  }
  return jitter;
}

units::Bytes value_as_size(const TomlValue& v, const std::string& key) {
  if (v.is_int()) return units::Bytes{v.integer};
  if (v.is_string()) {
    double value = 0.0;
    std::string suffix;
    if (split_unit(v.str, &value, &suffix)) {
      double mult = -1.0;
      if (suffix == "B") mult = 1.0;
      else if (suffix == "kB" || suffix == "KB") mult = 1e3;
      else if (suffix == "MB") mult = 1e6;
      else if (suffix == "GB") mult = 1e9;
      else if (suffix == "TB") mult = 1e12;
      else if (suffix == "KiB") mult = 1024.0;
      else if (suffix == "MiB") mult = 1024.0 * 1024.0;
      else if (suffix == "GiB") mult = 1024.0 * 1024.0 * 1024.0;
      if (mult > 0.0) {
        return units::Bytes{std::llround(value * mult)};
      }
    }
  }
  unit_error(v, key,
             "a size like \"2GB\" (suffix B/kB/MB/GB/TB/KiB/MiB/GiB) or an "
             "integer byte count");
}

units::BitRate value_as_rate(const TomlValue& v, const std::string& key) {
  if (v.is_string()) {
    double value = 0.0;
    std::string suffix;
    if (split_unit(v.str, &value, &suffix)) {
      // Each suffix maps onto the same units:: factory hand-written
      // configs use, so "10Gbps" is bit-for-bit units::BitRate::gbps(10).
      if (suffix == "bps") return units::BitRate::bps(value);
      if (suffix == "kbps") return units::BitRate::kbps(value);
      if (suffix == "Mbps") return units::BitRate::mbps(value);
      if (suffix == "Gbps") return units::BitRate::gbps(value);
    }
  }
  unit_error(v, key, "a rate like \"10Gbps\" (suffix bps/kbps/Mbps/Gbps)");
}

sim::SimTime value_as_time(const TomlValue& v, const std::string& key) {
  if (v.is_string()) {
    double value = 0.0;
    std::string suffix;
    if (split_unit(v.str, &value, &suffix)) {
      double mult = -1.0;  // nanoseconds per unit
      if (suffix == "ns") mult = 1.0;
      else if (suffix == "us") mult = 1e3;
      else if (suffix == "ms") mult = 1e6;
      else if (suffix == "s") mult = 1e9;
      if (mult > 0.0) {
        return sim::SimTime::nanoseconds(std::llround(value * mult));
      }
    }
  }
  unit_error(v, key, "a time like \"5us\" (suffix ns/us/ms/s)");
}

namespace {

void parse_scenario_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[scenario]");
  if (const TomlValue* v = r.find("name")) {
    doc.name = value_as_string(*v, "scenario.name");
    if (!is_identifier(doc.name)) {
      throw ParseError(v->line,
                       "scenario.name must be lowercase letters, digits, "
                       "'_' or '-', got '" +
                           doc.name + "'");
    }
  }
  if (const TomlValue* v = r.find("description")) {
    doc.description = value_as_string(*v, "scenario.description");
  }
  if (const TomlValue* v = r.find("seed")) {
    const std::int64_t s = value_as_int(*v, "scenario.seed");
    if (s < 0) throw ParseError(v->line, "scenario.seed must be >= 0");
    doc.seed = static_cast<std::uint64_t>(s);
  }
  if (const TomlValue* v = r.find("repeats")) {
    doc.repeats = static_cast<int>(value_as_int(*v, "scenario.repeats"));
    if (doc.repeats < 1) {
      throw ParseError(v->line, "scenario.repeats must be >= 1");
    }
  }
  if (const TomlValue* v = r.find("deadline")) {
    doc.deadline = value_as_time(*v, "scenario.deadline");
    if (doc.deadline <= sim::SimTime::zero()) {
      throw ParseError(v->line, "scenario.deadline must be > 0");
    }
  }
  if (const TomlValue* v = r.find("work_jitter")) {
    doc.work_jitter = value_as_work_jitter(*v, "scenario.work_jitter");
  }
  if (const TomlValue* v = r.find("meter_receiver")) {
    doc.meter_receiver = value_as_bool(*v, "scenario.meter_receiver");
  }
  if (const TomlValue* v = r.find("stress_cores")) {
    doc.stress_cores =
        static_cast<int>(value_as_int(*v, "scenario.stress_cores"));
  }
  if (const TomlValue* v = r.find("audit_interval")) {
    doc.audit_interval = value_as_time(*v, "scenario.audit_interval");
  }
  r.finish();
}

void parse_topology_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[topology]");
  TopologyDoc& topo = doc.topology;
  if (const TomlValue* v = r.find("kind")) {
    const std::string kind = value_as_string(*v, "topology.kind");
    if (kind == "dumbbell") topo.kind = TopologyKind::kDumbbell;
    else if (kind == "parking_lot") topo.kind = TopologyKind::kParkingLot;
    else if (kind == "incast") topo.kind = TopologyKind::kIncast;
    else if (kind == "fat_tree_pod") topo.kind = TopologyKind::kFatTreePod;
    else if (kind == "workload") topo.kind = TopologyKind::kWorkload;
    else {
      throw ParseError(v->line,
                       "topology.kind must be one of dumbbell, parking_lot, "
                       "incast, fat_tree_pod, workload; got '" +
                           kind + "'");
    }
  }
  if (const TomlValue* v = r.find("bottleneck")) {
    topo.bottleneck = value_as_rate(*v, "topology.bottleneck");
  }
  if (const TomlValue* v = r.find("link_delay")) {
    topo.link_delay = value_as_time(*v, "topology.link_delay");
  }
  if (const TomlValue* v = r.find("queue")) {
    topo.queue = value_as_size(*v, "topology.queue");
  }
  if (const TomlValue* v = r.find("ecn_threshold")) {
    topo.ecn_threshold = value_as_size(*v, "topology.ecn_threshold");
  }
  if (const TomlValue* v = r.find("nic_ports")) {
    topo.nic_ports = static_cast<int>(value_as_int(*v, "topology.nic_ports"));
  }
  if (const TomlValue* v = r.find("drr")) {
    topo.drr = value_as_bool(*v, "topology.drr");
  }
  if (const TomlValue* v = r.find("fan_in")) {
    topo.fan_in = static_cast<int>(value_as_int(*v, "topology.fan_in"));
    if (topo.fan_in < 1) {
      throw ParseError(v->line, "topology.fan_in must be >= 1");
    }
  }
  if (const TomlValue* v = r.find("aggregate")) {
    topo.aggregate = value_as_size(*v, "topology.aggregate");
  }
  if (const TomlValue* v = r.find("hops")) {
    topo.hops = static_cast<int>(value_as_int(*v, "topology.hops"));
    if (topo.hops < 1) throw ParseError(v->line, "topology.hops must be >= 1");
  }
  if (const TomlValue* v = r.find("cross_bytes")) {
    topo.cross_bytes = value_as_size(*v, "topology.cross_bytes");
  }
  if (const TomlValue* v = r.find("stagger")) {
    topo.stagger = value_as_time(*v, "topology.stagger");
  }
  if (const TomlValue* v = r.find("racks")) {
    topo.racks = static_cast<int>(value_as_int(*v, "topology.racks"));
    if (topo.racks < 1) throw ParseError(v->line, "topology.racks must be >= 1");
  }
  if (const TomlValue* v = r.find("hosts_per_rack")) {
    topo.hosts_per_rack =
        static_cast<int>(value_as_int(*v, "topology.hosts_per_rack"));
    if (topo.hosts_per_rack < 1) {
      throw ParseError(v->line, "topology.hosts_per_rack must be >= 1");
    }
  }
  r.finish();
}

void parse_tcp_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[tcp]");
  tcp::TcpConfig& cfg = doc.tcp;
  if (const TomlValue* v = r.find("mtu")) {
    cfg.mtu_bytes = value_as_size(*v, "tcp.mtu");
  }
  if (const TomlValue* v = r.find("header")) {
    cfg.header_bytes = value_as_size(*v, "tcp.header");
  }
  if (const TomlValue* v = r.find("ack")) {
    cfg.ack_bytes = value_as_size(*v, "tcp.ack");
  }
  if (const TomlValue* v = r.find("min_rto")) {
    cfg.min_rto = value_as_time(*v, "tcp.min_rto");
  }
  if (const TomlValue* v = r.find("max_rto")) {
    cfg.max_rto = value_as_time(*v, "tcp.max_rto");
  }
  if (const TomlValue* v = r.find("dupack_threshold")) {
    cfg.dupack_threshold =
        static_cast<int>(value_as_int(*v, "tcp.dupack_threshold"));
  }
  if (const TomlValue* v = r.find("delack_segments")) {
    cfg.delack_segments =
        static_cast<int>(value_as_int(*v, "tcp.delack_segments"));
  }
  if (const TomlValue* v = r.find("delack_timeout")) {
    cfg.delack_timeout = value_as_time(*v, "tcp.delack_timeout");
  }
  if (const TomlValue* v = r.find("initial_cwnd")) {
    cfg.initial_cwnd = value_as_int(*v, "tcp.initial_cwnd");
  }
  r.finish();
}

void parse_aqm_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[aqm]");
  net::AqmConfig& aqm = doc.aqm;
  if (const TomlValue* v = r.find("mode")) {
    const std::string mode = value_as_string(*v, "aqm.mode");
    if (mode == "none") aqm.mode = net::AqmMode::kNone;
    else if (mode == "step") aqm.mode = net::AqmMode::kStepEcn;
    else if (mode == "red") aqm.mode = net::AqmMode::kRed;
    else if (mode == "codel") aqm.mode = net::AqmMode::kCodel;
    else {
      throw ParseError(v->line,
                       "aqm.mode must be one of none, step, red, codel; "
                       "got '" +
                           mode + "'");
    }
  }
  if (const TomlValue* v = r.find("step_threshold")) {
    aqm.step_threshold_bytes = value_as_size(*v, "aqm.step_threshold");
  }
  if (const TomlValue* v = r.find("red_min")) {
    aqm.red_min_bytes = value_as_size(*v, "aqm.red_min");
  }
  if (const TomlValue* v = r.find("red_max")) {
    aqm.red_max_bytes = value_as_size(*v, "aqm.red_max");
  }
  if (const TomlValue* v = r.find("red_max_probability")) {
    aqm.red_max_probability =
        value_as_double(*v, "aqm.red_max_probability");
  }
  if (const TomlValue* v = r.find("red_weight")) {
    aqm.red_weight = value_as_double(*v, "aqm.red_weight");
  }
  if (const TomlValue* v = r.find("codel_target")) {
    aqm.codel_target = value_as_time(*v, "aqm.codel_target");
  }
  if (const TomlValue* v = r.find("codel_interval")) {
    aqm.codel_interval = value_as_time(*v, "aqm.codel_interval");
  }
  r.finish();
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

void parse_faults_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[faults]");
  fault::FaultPlan& plan = doc.faults;
  plan.install = true;  // writing a [faults] section means "use it"
  if (const TomlValue* v = r.find("install")) {
    plan.install = value_as_bool(*v, "faults.install");
  }
  if (const TomlValue* v = r.find("loss")) {
    plan.impair.loss_rate = value_as_double(*v, "faults.loss");
  }
  if (const TomlValue* v = r.find("ge_p_bad")) {
    plan.impair.ge_p_bad = value_as_double(*v, "faults.ge_p_bad");
  }
  if (const TomlValue* v = r.find("ge_p_good")) {
    plan.impair.ge_p_good = value_as_double(*v, "faults.ge_p_good");
  }
  if (const TomlValue* v = r.find("ge_loss_bad")) {
    plan.impair.ge_loss_bad = value_as_double(*v, "faults.ge_loss_bad");
  }
  if (const TomlValue* v = r.find("corrupt")) {
    plan.impair.corrupt_rate = value_as_double(*v, "faults.corrupt");
  }
  if (const TomlValue* v = r.find("reorder")) {
    plan.impair.reorder_rate = value_as_double(*v, "faults.reorder");
  }
  if (const TomlValue* v = r.find("reorder_delay")) {
    plan.impair.reorder_delay = value_as_time(*v, "faults.reorder_delay");
  }
  if (const TomlValue* v = r.find("duplicate")) {
    plan.impair.duplicate_rate = value_as_double(*v, "faults.duplicate");
  }
  if (const TomlValue* v = r.find("jitter")) {
    plan.impair.jitter_max = value_as_time(*v, "faults.jitter");
  }
  if (const TomlValue* v = r.find("seed")) {
    const std::int64_t s = value_as_int(*v, "faults.seed");
    if (s < 0) throw ParseError(v->line, "faults.seed must be >= 0");
    plan.impair.seed = static_cast<std::uint64_t>(s);
  }
  if (const TomlValue* v = r.find("events")) {
    if (!v->is_array()) {
      throw ParseError(v->line, "faults.events: expected an array of "
                                "\"<what>@<time>\" strings");
    }
    for (const TomlValue& entry : v->array) {
      plan.schedule.add(parse_fault_event(entry));
    }
  }
  r.finish();
}

void parse_energy_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[energy]");
  energy::PowerCalibration& p = doc.energy.power;
  if (const TomlValue* v = r.find("idle")) {
    p.idle_watts = units::Power::watts(value_as_double(*v, "energy.idle"));
  }
  if (const TomlValue* v = r.find("net_amplitude")) {
    p.net_amplitude_watts =
        units::Power::watts(value_as_double(*v, "energy.net_amplitude"));
  }
  if (const TomlValue* v = r.find("net_util_scale")) {
    p.net_util_scale = value_as_double(*v, "energy.net_util_scale");
  }
  if (const TomlValue* v = r.find("omega")) {
    p.omega_watts_per_pps = value_as_double(*v, "energy.omega");
  }
  if (const TomlValue* v = r.find("stress_core")) {
    p.stress_core_watts =
        units::Power::watts(value_as_double(*v, "energy.stress_core"));
  }
  if (const TomlValue* v = r.find("chi")) {
    p.chi_watts_per_gbps = value_as_double(*v, "energy.chi");
  }
  if (const TomlValue* v = r.find("total_cores")) {
    p.total_cores = static_cast<int>(value_as_int(*v, "energy.total_cores"));
  }
  if (const TomlValue* work = r.find("work")) {
    if (!work->is_table()) {
      throw ParseError(work->line, "[energy.work] must be a table");
    }
    TableReader wr(*work, "[energy.work]");
    energy::WorkCalibration& w = doc.energy.work;
    if (const TomlValue* v = wr.find("pkt_ns")) {
      w.pkt_ns = value_as_double(*v, "energy.work.pkt_ns");
    }
    if (const TomlValue* v = wr.find("byte_ns")) {
      w.byte_ns = value_as_double(*v, "energy.work.byte_ns");
    }
    if (const TomlValue* v = wr.find("ack_ns")) {
      w.ack_ns = value_as_double(*v, "energy.work.ack_ns");
    }
    if (const TomlValue* v = wr.find("retx_ns")) {
      w.retx_ns = value_as_double(*v, "energy.work.retx_ns");
    }
    if (const TomlValue* v = wr.find("timeout_ns")) {
      w.timeout_ns = value_as_double(*v, "energy.work.timeout_ns");
    }
    if (const TomlValue* v = wr.find("rx_pkt_ns")) {
      w.rx_pkt_ns = value_as_double(*v, "energy.work.rx_pkt_ns");
    }
    if (const TomlValue* v = wr.find("rx_byte_ns")) {
      w.rx_byte_ns = value_as_double(*v, "energy.work.rx_byte_ns");
    }
    if (const TomlValue* v = wr.find("rx_drop_ns")) {
      w.rx_drop_ns = value_as_double(*v, "energy.work.rx_drop_ns");
    }
    if (const TomlValue* v = wr.find("rx_backlog")) {
      w.rx_backlog_packets =
          static_cast<int>(value_as_int(*v, "energy.work.rx_backlog"));
    }
    wr.finish();
  }
  r.finish();
}

FlowDoc parse_flow_entry(const TomlValue& t, int index) {
  const std::string section = "[[flow]] #" + std::to_string(index);
  TableReader r(t, section);
  FlowDoc flow;
  if (const TomlValue* v = r.find("cca")) {
    flow.cca = value_as_string(*v, "flow.cca");
    require_known_cca(flow.cca, v->line);
  }
  if (const TomlValue* v = r.find("bytes")) {
    flow.bytes = value_as_size(*v, "flow.bytes");
    if (flow.bytes.count() <= 0) {
      throw ParseError(v->line, "flow.bytes must be > 0");
    }
  }
  if (const TomlValue* v = r.find("rate_limit")) {
    flow.rate_limit = value_as_rate(*v, "flow.rate_limit");
  }
  if (const TomlValue* v = r.find("start")) {
    flow.start = value_as_time(*v, "flow.start");
  }
  if (const TomlValue* v = r.find("weight")) {
    flow.weight = value_as_double(*v, "flow.weight");
    if (flow.weight <= 0.0) {
      throw ParseError(v->line, "flow.weight must be > 0");
    }
  }
  if (const TomlValue* v = r.find("host")) {
    flow.host = static_cast<int>(value_as_int(*v, "flow.host"));
  }
  if (const TomlValue* v = r.find("start_after")) {
    flow.start_after = static_cast<int>(value_as_int(*v, "flow.start_after"));
  }
  if (const TomlValue* v = r.find("unlimit_after")) {
    flow.unlimit_after =
        static_cast<int>(value_as_int(*v, "flow.unlimit_after"));
  }
  if (const TomlValue* v = r.find("count")) {
    flow.count = static_cast<int>(value_as_int(*v, "flow.count"));
    if (flow.count < 1) throw ParseError(v->line, "flow.count must be >= 1");
  }
  r.finish();
  return flow;
}

void parse_workload_section(const TomlValue& t, ScenarioDoc& doc) {
  TableReader r(t, "[workload]");
  WorkloadDoc& wl = doc.workload;
  if (const TomlValue* v = r.find("cca")) {
    wl.cca = value_as_string(*v, "workload.cca");
    require_known_cca(wl.cca, v->line);
  }
  if (const TomlValue* v = r.find("load")) {
    wl.load = value_as_double(*v, "workload.load");
    if (wl.load <= 0.0) {
      throw ParseError(v->line, "workload.load must be > 0");
    }
  }
  if (const TomlValue* v = r.find("sizes")) {
    wl.sizes = value_as_string(*v, "workload.sizes");
    const bool known = wl.sizes == "websearch" || wl.sizes == "datamining" ||
                       wl.sizes.rfind("fixed:", 0) == 0;
    if (!known) {
      throw ParseError(v->line,
                       "workload.sizes must be websearch, datamining or "
                       "fixed:<bytes>; got '" +
                           wl.sizes + "'");
    }
  }
  if (const TomlValue* v = r.find("hosts")) {
    wl.hosts = static_cast<int>(value_as_int(*v, "workload.hosts"));
    if (wl.hosts < 1) throw ParseError(v->line, "workload.hosts must be >= 1");
  }
  if (const TomlValue* v = r.find("horizon")) {
    wl.horizon = value_as_time(*v, "workload.horizon");
    if (wl.horizon <= sim::SimTime::zero()) {
      throw ParseError(v->line, "workload.horizon must be > 0");
    }
  }
  r.finish();
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
    if (const TomlValue* v = r.find("scenario")) {
      parse_scenario_section(*v, doc);
    }
    if (const TomlValue* v = r.find("topology")) {
      parse_topology_section(*v, doc);
    }
    if (const TomlValue* v = r.find("tcp")) parse_tcp_section(*v, doc);
    if (const TomlValue* v = r.find("aqm")) parse_aqm_section(*v, doc);
    if (const TomlValue* v = r.find("faults")) parse_faults_section(*v, doc);
    if (const TomlValue* v = r.find("energy")) parse_energy_section(*v, doc);
    if (const TomlValue* v = r.find("flow")) {
      if (!v->is_array()) {
        throw ParseError(v->line, "[[flow]] must be an array of tables");
      }
      int index = 0;
      for (const TomlValue& entry : v->array) {
        doc.flows.push_back(parse_flow_entry(entry, index++));
      }
    }
    if (const TomlValue* v = r.find("workload")) {
      parse_workload_section(*v, doc);
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
