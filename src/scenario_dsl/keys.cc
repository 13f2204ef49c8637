#include "scenario_dsl/keys.h"

#include <cmath>
#include <cstdlib>

#include "cca/cca.h"

namespace greencc::dsl {

namespace {

constexpr std::string_view kTopologyKinds[] = {
    "dumbbell", "parking_lot", "incast", "fat_tree_pod", "workload"};
static_assert(static_cast<int>(TopologyKind::kWorkload) == 4,
              "kTopologyKinds lists TopologyKind in enumerator order");
constexpr std::string_view kAqmModes[] = {"none", "step", "red", "codel"};
static_assert(static_cast<int>(net::AqmMode::kCodel) == 3,
              "kAqmModes lists net::AqmMode in enumerator order");

constexpr bool kSweepable = true;
constexpr bool kFixed = false;  // not bindable by axes or --set

// Field accessors: AT for document fields, FLOW for doc.flows[flow].
#define AT(member) \
  [](ScenarioDoc& d, std::size_t) -> FieldRef { return &d.member; }
#define FLOW(member)                                  \
  [](ScenarioDoc& d, std::size_t flow) -> FieldRef { \
    return &d.flows[flow].member;                     \
  }

using K = ValueKind;
using R = Rule;

constexpr KeySpec kKeys[] = {
    {"scenario", "name", K::kString, AT(name), R::kIdentifier, kFixed},
    {"scenario", "description", K::kString, AT(description), R::kNone, kFixed},
    {"scenario", "seed", K::kInt, AT(seed), R::kNonNegative, kFixed},
    {"scenario", "repeats", K::kInt, AT(repeats), R::kAtLeastOne, kFixed},
    {"scenario", "deadline", K::kTime, AT(deadline), R::kPositive},
    {"scenario", "work_jitter", K::kDouble, AT(work_jitter), R::kUnitInterval},
    {"scenario", "meter_receiver", K::kBool, AT(meter_receiver)},
    {"scenario", "stress_cores", K::kInt, AT(stress_cores)},
    {"scenario", "audit_interval", K::kTime, AT(audit_interval)},

    {"topology", "kind", K::kEnum, AT(topology.kind), R::kNone, kFixed,
     kTopologyKinds},
    {"topology", "bottleneck", K::kRate, AT(topology.bottleneck)},
    {"topology", "link_delay", K::kTime, AT(topology.link_delay)},
    {"topology", "queue", K::kSize, AT(topology.queue)},
    {"topology", "ecn_threshold", K::kSize, AT(topology.ecn_threshold)},
    {"topology", "nic_ports", K::kInt, AT(topology.nic_ports)},
    {"topology", "drr", K::kBool, AT(topology.drr)},
    {"topology", "fan_in", K::kInt, AT(topology.fan_in), R::kAtLeastOne},
    {"topology", "aggregate", K::kSize, AT(topology.aggregate)},
    {"topology", "hops", K::kInt, AT(topology.hops), R::kAtLeastOne},
    {"topology", "cross_bytes", K::kSize, AT(topology.cross_bytes)},
    {"topology", "stagger", K::kTime, AT(topology.stagger)},
    {"topology", "racks", K::kInt, AT(topology.racks), R::kAtLeastOne},
    {"topology", "hosts_per_rack", K::kInt, AT(topology.hosts_per_rack),
     R::kAtLeastOne},

    {"tcp", "mtu", K::kSize, AT(tcp.mtu_bytes)},
    {"tcp", "header", K::kSize, AT(tcp.header_bytes)},
    {"tcp", "ack", K::kSize, AT(tcp.ack_bytes)},
    {"tcp", "min_rto", K::kTime, AT(tcp.min_rto)},
    {"tcp", "max_rto", K::kTime, AT(tcp.max_rto)},
    {"tcp", "dupack_threshold", K::kInt, AT(tcp.dupack_threshold)},
    {"tcp", "delack_segments", K::kInt, AT(tcp.delack_segments)},
    {"tcp", "delack_timeout", K::kTime, AT(tcp.delack_timeout)},
    {"tcp", "initial_cwnd", K::kInt, AT(tcp.initial_cwnd)},

    {"aqm", "mode", K::kEnum, AT(aqm.mode), R::kNone, kSweepable, kAqmModes},
    {"aqm", "step_threshold", K::kSize, AT(aqm.step_threshold_bytes)},
    {"aqm", "red_min", K::kSize, AT(aqm.red_min_bytes)},
    {"aqm", "red_max", K::kSize, AT(aqm.red_max_bytes)},
    {"aqm", "red_max_probability", K::kDouble, AT(aqm.red_max_probability)},
    {"aqm", "red_weight", K::kDouble, AT(aqm.red_weight)},
    {"aqm", "codel_target", K::kTime, AT(aqm.codel_target)},
    {"aqm", "codel_interval", K::kTime, AT(aqm.codel_interval)},

    {"faults", "install", K::kBool, AT(faults.install)},
    {"faults", "loss", K::kDouble, AT(faults.impair.loss_rate)},
    {"faults", "ge_p_bad", K::kDouble, AT(faults.impair.ge_p_bad)},
    {"faults", "ge_p_good", K::kDouble, AT(faults.impair.ge_p_good)},
    {"faults", "ge_loss_bad", K::kDouble, AT(faults.impair.ge_loss_bad)},
    {"faults", "corrupt", K::kDouble, AT(faults.impair.corrupt_rate)},
    {"faults", "reorder", K::kDouble, AT(faults.impair.reorder_rate)},
    {"faults", "reorder_delay", K::kTime, AT(faults.impair.reorder_delay)},
    {"faults", "duplicate", K::kDouble, AT(faults.impair.duplicate_rate)},
    {"faults", "jitter", K::kTime, AT(faults.impair.jitter_max)},
    {"faults", "seed", K::kInt, AT(faults.impair.seed), R::kNonNegative},

    {"energy", "idle", K::kDouble, AT(energy.power.idle_watts)},
    {"energy", "net_amplitude", K::kDouble,
     AT(energy.power.net_amplitude_watts)},
    {"energy", "net_util_scale", K::kDouble, AT(energy.power.net_util_scale)},
    {"energy", "omega", K::kDouble, AT(energy.power.omega_watts_per_pps)},
    {"energy", "stress_core", K::kDouble, AT(energy.power.stress_core_watts)},
    {"energy", "chi", K::kDouble, AT(energy.power.chi_watts_per_gbps)},
    {"energy", "total_cores", K::kInt, AT(energy.power.total_cores)},

    {"energy.work", "pkt_ns", K::kDouble, AT(energy.work.pkt_ns)},
    {"energy.work", "byte_ns", K::kDouble, AT(energy.work.byte_ns)},
    {"energy.work", "ack_ns", K::kDouble, AT(energy.work.ack_ns)},
    {"energy.work", "retx_ns", K::kDouble, AT(energy.work.retx_ns)},
    {"energy.work", "timeout_ns", K::kDouble, AT(energy.work.timeout_ns)},
    {"energy.work", "rx_pkt_ns", K::kDouble, AT(energy.work.rx_pkt_ns)},
    {"energy.work", "rx_byte_ns", K::kDouble, AT(energy.work.rx_byte_ns)},
    {"energy.work", "rx_drop_ns", K::kDouble, AT(energy.work.rx_drop_ns)},
    {"energy.work", "rx_backlog", K::kInt, AT(energy.work.rx_backlog_packets)},

    {"flow", "cca", K::kCca, FLOW(cca)},
    {"flow", "bytes", K::kSize, FLOW(bytes), R::kPositive},
    {"flow", "rate_limit", K::kRate, FLOW(rate_limit)},
    {"flow", "start", K::kTime, FLOW(start)},
    {"flow", "weight", K::kDouble, FLOW(weight), R::kPositive},
    {"flow", "host", K::kInt, FLOW(host)},
    {"flow", "start_after", K::kInt, FLOW(start_after)},
    {"flow", "unlimit_after", K::kInt, FLOW(unlimit_after)},
    {"flow", "count", K::kInt, FLOW(count), R::kAtLeastOne},

    {"workload", "cca", K::kCca, AT(workload.cca)},
    {"workload", "load", K::kDouble, AT(workload.load), R::kPositive},
    {"workload", "sizes", K::kString, AT(workload.sizes), R::kSizeMix},
    {"workload", "hosts", K::kInt, AT(workload.hosts), R::kAtLeastOne},
    {"workload", "horizon", K::kTime, AT(workload.horizon), R::kPositive},
};

#undef AT
#undef FLOW

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

/// Throws unless `x` meets a numeric rule.
void check_range(Rule rule, double x, const TomlValue& v,
                 const std::string& label) {
  const char* broken = nullptr;
  switch (rule) {
    case Rule::kNonNegative: if (!(x >= 0.0)) broken = " must be >= 0"; break;
    case Rule::kAtLeastOne: if (!(x >= 1.0)) broken = " must be >= 1"; break;
    case Rule::kPositive: if (!(x > 0.0)) broken = " must be > 0"; break;
    case Rule::kUnitInterval:
      if (!(x >= 0.0 && x <= 1.0)) broken = " must be in [0, 1]";
      break;
    default: break;
  }
  if (broken != nullptr) throw ParseError(v.line, label + broken);
}

/// Throws unless `s` meets a string rule.
void check_text(Rule rule, const std::string& s, const TomlValue& v,
                const std::string& label) {
  if (rule == Rule::kIdentifier && !is_identifier(s)) {
    throw ParseError(v.line, label +
                                 " must be lowercase letters, digits, '_' or "
                                 "'-', got '" +
                                 s + "'");
  }
  if (rule == Rule::kSizeMix && s != "websearch" && s != "datamining" &&
      s.rfind("fixed:", 0) != 0) {
    throw ParseError(v.line, label +
                                 " must be websearch, datamining or "
                                 "fixed:<bytes>; got '" +
                                 s + "'");
  }
}

std::size_t enum_index(const KeySpec& key, const std::string& s,
                       const TomlValue& v, const std::string& label) {
  for (std::size_t i = 0; i < key.choices.size(); ++i) {
    if (key.choices[i] == s) return i;
  }
  std::string list;
  for (const std::string_view choice : key.choices) {
    if (!list.empty()) list += ", ";
    list += choice;
  }
  throw ParseError(v.line,
                   label + " must be one of " + list + "; got '" + s + "'");
}

}  // namespace

std::span<const KeySpec> scenario_keys() { return kKeys; }

const KeySpec* find_key(std::string_view section, std::string_view name) {
  for (const KeySpec& key : kKeys) {
    if (key.name == name && key.section == section) return &key;
  }
  return nullptr;
}

void set_key(const KeySpec& key, ScenarioDoc& doc, std::size_t flow,
             const TomlValue& v, const std::string& label) {
  const FieldRef field = key.field(doc, flow);
  switch (key.kind) {
    case ValueKind::kSize: {
      const units::Bytes size = value_as_size(v, label);
      check_range(key.rule, static_cast<double>(size.count()), v, label);
      *std::get<units::Bytes*>(field) = size;
      return;
    }
    case ValueKind::kRate:
      *std::get<units::BitRate*>(field) = value_as_rate(v, label);
      return;
    case ValueKind::kTime: {
      const sim::SimTime time = value_as_time(v, label);
      check_range(key.rule, static_cast<double>(time.ns()), v, label);
      *std::get<sim::SimTime*>(field) = time;
      return;
    }
    case ValueKind::kInt: {
      // The rule sees the value as the field stores it; a uint64 field is
      // checked before the sign is lost.
      const std::int64_t n = value_as_int(v, label);
      if (int* const* small = std::get_if<int*>(&field)) {
        const int narrowed = static_cast<int>(n);
        check_range(key.rule, narrowed, v, label);
        **small = narrowed;
        return;
      }
      check_range(key.rule, static_cast<double>(n), v, label);
      if (std::uint64_t* const* seed = std::get_if<std::uint64_t*>(&field)) {
        **seed = static_cast<std::uint64_t>(n);
      } else {
        *std::get<std::int64_t*>(field) = n;
      }
      return;
    }
    case ValueKind::kDouble: {
      const double x = value_as_double(v, label);
      check_range(key.rule, x, v, label);
      if (units::Power* const* watts = std::get_if<units::Power*>(&field)) {
        **watts = units::Power::watts(x);
      } else {
        *std::get<double*>(field) = x;
      }
      return;
    }
    case ValueKind::kBool:
      *std::get<bool*>(field) = value_as_bool(v, label);
      return;
    case ValueKind::kString: {
      std::string s = value_as_string(v, label);
      check_text(key.rule, s, v, label);
      *std::get<std::string*>(field) = std::move(s);
      return;
    }
    case ValueKind::kCca: {
      std::string s = value_as_string(v, label);
      require_known_cca(s, v.line);
      *std::get<std::string*>(field) = std::move(s);
      return;
    }
    case ValueKind::kEnum: {
      const std::size_t index = enum_index(key, value_as_string(v, label), v,
                                           label);
      if (TopologyKind* const* kind = std::get_if<TopologyKind*>(&field)) {
        **kind = static_cast<TopologyKind>(index);
      } else {
        *std::get<net::AqmMode*>(field) = static_cast<net::AqmMode>(index);
      }
      return;
    }
  }
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

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

}  // namespace greencc::dsl
