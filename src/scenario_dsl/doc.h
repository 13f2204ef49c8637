#pragma once

// Typed scenario document: the schema layer of the scenario DSL.
//
// A ScenarioDoc is the validated, fully-defaulted in-memory form of one
// .toml scenario file. Parsing is strict — every key must be known, every
// value must have the right type and unit suffix, and violations carry the
// exact source line ("file.toml:12: unknown key 'mtuu' in [tcp]"). Every
// scalar key is declared once, in the key table (keys.h). The document is
// a plain value: sweep expansion copies it per cell and mutates fields
// through apply_binding() (sweep.h), then compile.cc lowers it onto
// app::ScenarioBuilder / app::WorkloadBuilder.
//
// Grammar reference: DESIGN.md §13.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "energy/calibration.h"
#include "fault/plan.h"
#include "net/queue.h"
#include "scenario_dsl/toml.h"
#include "sim/time.h"
#include "tcp/tcp_config.h"
#include "units/units.h"

namespace greencc::dsl {

/// A schema/semantic error bound to a file and line. what() renders as
/// "<file>:<line>: <message>" — the format the golden-error tests pin.
class DslError : public std::runtime_error {
 public:
  DslError(const std::string& file, int line, const std::string& message)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " +
                           message),
        file_(file),
        line_(line) {}
  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_;
};

enum class TopologyKind {
  kDumbbell,    ///< N senders, one bottleneck, one receiver (the default)
  kParkingLot,  ///< main flow plus staggered cross traffic on the shared hop
  kIncast,      ///< fan_in synchronized senders converging on one receiver
  kFatTreePod,  ///< racks x hosts_per_rack senders sharing the pod uplink
  kWorkload,    ///< open-loop Poisson arrivals (app::run_workload)
};

struct TopologyDoc {
  TopologyKind kind = TopologyKind::kDumbbell;
  units::BitRate bottleneck = units::BitRate::gbps(10);
  sim::SimTime link_delay = sim::SimTime::microseconds(5);
  units::Bytes queue{1 << 20};
  units::Bytes ecn_threshold{100'000};
  int nic_ports = 2;
  bool drr = false;
  // incast
  int fan_in = 8;
  units::Bytes aggregate = units::Bytes::zero();  ///< zero: per-flow bytes
  // parking_lot
  int hops = 2;
  units::Bytes cross_bytes{500'000'000};
  sim::SimTime stagger = sim::SimTime::milliseconds(50);
  // fat_tree_pod
  int racks = 4;
  int hosts_per_rack = 4;
};

/// One [[flow]] entry. Defaults mirror app::FlowSpec exactly so an omitted
/// key compiles to the same config a hand-written FlowSpec{} would.
struct FlowDoc {
  std::string cca = "cubic";
  units::Bytes bytes{1'250'000'000};
  units::BitRate rate_limit = units::BitRate::zero();
  sim::SimTime start = sim::SimTime::zero();
  double weight = 1.0;
  int host = -1;
  int start_after = -1;
  int unlimit_after = -1;
  int count = 1;  ///< replicate this spec `count` times
};

struct WorkloadDoc {
  std::string cca = "cubic";
  double load = 0.5;
  std::string sizes = "websearch";  ///< websearch | datamining | fixed:<n>
  int hosts = 8;
  sim::SimTime horizon = sim::SimTime::seconds(2.0);
};

struct EnergyDoc {
  energy::PowerCalibration power;
  energy::WorkCalibration work;
};

/// One CSV output column: either an axis echo or an aggregated metric.
struct OutputColumn {
  std::string header;
  std::string axis;           ///< axis name (exactly one of axis/metric)
  std::string metric;         ///< metric name, see runner.h for the list
  std::string agg = "mean";   ///< mean | stddev (metrics only)
  std::string format;         ///< str | int | yesno | g<N> | f<N>
  bool scale = false;         ///< multiply by the scale_to factor
  int line = 0;
};

struct OutputDoc {
  std::string csv;                          ///< default: "<name>.csv"
  units::Bytes scale_to = units::Bytes::zero();  ///< zero: no scaling
  std::vector<OutputColumn> columns;        ///< defaulted when absent
};

/// One [[sweep.axis]] entry. `values` holds one tuple per step; tuple
/// arity always equals paths.size() (plain axes have arity 1). Values stay
/// as TomlValue scalars so both binding application and canonical
/// re-serialization see the author's exact literal.
struct AxisDoc {
  std::string name;
  std::vector<std::string> paths;
  std::vector<std::vector<TomlValue>> values;
  int line = 0;
};

struct ScenarioDoc {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;
  int repeats = 1;
  sim::SimTime deadline = sim::SimTime::seconds(600.0);
  double work_jitter = 0.02;
  bool meter_receiver = false;
  int stress_cores = 0;
  sim::SimTime audit_interval = sim::SimTime::zero();

  TopologyDoc topology;
  tcp::TcpConfig tcp;
  net::AqmConfig aqm;
  fault::FaultPlan faults;
  EnergyDoc energy;
  std::vector<FlowDoc> flows;
  WorkloadDoc workload;
  OutputDoc output;
  std::vector<AxisDoc> axes;

  std::string source_file;  ///< for error messages; not semantic
};

/// Parses + validates a scenario document from text. Throws DslError.
ScenarioDoc parse_scenario_text(std::string_view text,
                                const std::string& filename);

/// Reads `path` and parses it. Throws DslError (file read errors use
/// line 0).
ScenarioDoc load_scenario_file(const std::string& path);

/// True for metric names the runner aggregates (runner.cc owns the list).
bool is_known_metric(const std::string& name);

}  // namespace greencc::dsl
