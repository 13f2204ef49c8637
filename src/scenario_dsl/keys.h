#pragma once

// The scenario DSL's key table: the one place each scalar key is declared.
//
// An entry names a key (its section and name), the ScenarioDoc field it
// writes, the kind of value it takes, the range rule that value must meet
// and whether sweep axes and --set may bind it. Three walkers read the
// table: the file parser (doc.cc), the binding path of axes and --set
// (sweep.cc) and the canonical serializer (serialize.cc). All of them go
// through set_key(), so a value an axis or --set binds gets exactly the
// conversion and range check the same value gets as a file key. Adding a
// key means adding one entry.
//
// Structure stays hand-written: [[flow]] arrays, the faults.events
// grammar, the rule that a [faults] section implies install = true, sweep
// axes and [output].

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "scenario_dsl/doc.h"

namespace greencc::dsl {

/// How a key's value is written, and what it converts to.
enum class ValueKind {
  kSize,    ///< "2GB", "64KiB" or an integer byte count -> units::Bytes
  kRate,    ///< "10Gbps" -> units::BitRate
  kTime,    ///< "5us" -> sim::SimTime
  kInt,     ///< integer -> int, int64 or uint64
  kDouble,  ///< number -> double, or units::Power in watts
  kBool,    ///< true / false
  kString,  ///< any string
  kEnum,    ///< one of KeySpec::choices -> the enumerator at that index
  kCca,     ///< a congestion control algorithm in the registry
};

/// The range a value must lie in. A violation reads "<key> <rule text>",
/// e.g. "flow.bytes must be > 0".
enum class Rule {
  kNone,
  kNonNegative,   ///< >= 0
  kAtLeastOne,    ///< >= 1
  kPositive,      ///< > 0
  kUnitInterval,  ///< in [0, 1]
  kIdentifier,    ///< lowercase letters, digits, '_' or '-'
  kSizeMix,       ///< websearch, datamining or fixed:<bytes>
};

/// The field a key writes. Flow keys address doc.flows[flow].
using FieldRef =
    std::variant<units::Bytes*, units::BitRate*, sim::SimTime*, int*,
                 std::int64_t*, std::uint64_t*, double*, units::Power*, bool*,
                 std::string*, TopologyKind*, net::AqmMode*>;

struct KeySpec {
  std::string_view section;  ///< "scenario", "energy.work", "flow", ...
  std::string_view name;
  ValueKind kind;
  FieldRef (*field)(ScenarioDoc& doc, std::size_t flow);
  Rule rule = Rule::kNone;
  bool sweepable = true;  ///< axes and --set may bind it
  std::span<const std::string_view> choices = {};  ///< kEnum only
};

/// Every scalar key, grouped by section in file (and serialization) order.
std::span<const KeySpec> scenario_keys();

/// The entry for `section`.`name`, or nullptr.
const KeySpec* find_key(std::string_view section, std::string_view name);

/// Converts `v` to the key's kind, checks its rule and stores it in `doc`
/// (flow keys in doc.flows[flow]). `label` names the key in messages: the
/// file key ("flow.bytes") or the bound path ("flow.0.bytes"). Throws
/// ParseError at v.line.
void set_key(const KeySpec& key, ScenarioDoc& doc, std::size_t flow,
             const TomlValue& v, const std::string& label);

/// True for lowercase letters, digits, '_' and '-' (non-empty).
bool is_identifier(std::string_view s);

// ---------------------------------------------------------------------------
// Typed value conversion, shared by the key table, the structural parts of
// the schema and sweep bindings. All throw ParseError (line-accurate);
// parse_scenario_text converts those into DslError with the file name.

std::string value_as_string(const TomlValue& v, const std::string& key);
bool value_as_bool(const TomlValue& v, const std::string& key);
std::int64_t value_as_int(const TomlValue& v, const std::string& key);
double value_as_double(const TomlValue& v, const std::string& key);

/// Bytes: a bare integer is bytes; strings take a suffix out of
/// B, kB, MB, GB, TB (decimal) or KiB, MiB, GiB (binary): "2GB", "64kB".
units::Bytes value_as_size(const TomlValue& v, const std::string& key);

/// Rates require a suffix out of bps, kbps, Mbps, Gbps: "10Gbps". A bare
/// number is rejected (no silently-ambiguous units).
units::BitRate value_as_rate(const TomlValue& v, const std::string& key);

/// Times require a suffix out of ns, us, ms, s: "5us", "1.5s".
sim::SimTime value_as_time(const TomlValue& v, const std::string& key);

/// Throws ParseError(line) unless `name` is in the CCA registry. Scenario
/// files are validated data — a typo'd algorithm name is a schema error at
/// --validate time, not a quarantined cell at hour three of a pack run.
void require_known_cca(const std::string& name, int line);

}  // namespace greencc::dsl
