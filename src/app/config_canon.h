#pragma once

// Canonical serialization of ScenarioConfig / FlowSpec.
//
// One deterministic, version-tagged text rendering covering *every* field
// that can change a run's numbers. Three consumers:
//
//   equality   operator== on configs is defined as canonical-string
//              equality, so "same config" always means "same bytes in the
//              canonical form" — there is no second, subtly different
//              member-by-member notion to drift out of sync;
//   hashing    config_hash() = FNV-1a over the canonical string. Every
//              sweep journal binds to this hash instead of hand-maintained
//              ad-hoc strings that silently miss fields added later;
//   round-trip the scenario DSL's property test parses a file, compiles
//              it, re-serializes the document, re-parses and re-compiles —
//              and asserts the two canonical strings are identical.
//
// Doubles are rendered with %.17g (exact IEEE-754 round-trip), integers in
// decimal, times as nanosecond counts. Adding a field to ScenarioConfig
// without extending the canonical form is caught by the coverage test in
// tests/test_scenario_dsl.cc (sizeof tripwire).

#include <cstdint>
#include <string>
#include <vector>

#include "app/scenario.h"

namespace greencc::app {

/// Canonical text form of one flow spec.
std::string canonical_string(const FlowSpec& spec);

/// Canonical text form of a full scenario config (all nested structs:
/// tcp, AQM, calibration, faults).
std::string canonical_string(const ScenarioConfig& config);

/// Canonical text form of a whole experiment cell: the config plus its
/// flows in add order.
std::string canonical_string(const ScenarioConfig& config,
                             const std::vector<FlowSpec>& flows);

/// FNV-1a 64-bit hash of the canonical string — the fingerprint sweep
/// journals bind to.
std::uint64_t config_hash(const ScenarioConfig& config);
std::uint64_t config_hash(const ScenarioConfig& config,
                          const std::vector<FlowSpec>& flows);

/// Equality via canonical form. Two configs compare equal exactly when
/// every number a run can observe is identical.
bool operator==(const FlowSpec& a, const FlowSpec& b);
bool operator!=(const FlowSpec& a, const FlowSpec& b);
bool operator==(const ScenarioConfig& a, const ScenarioConfig& b);
bool operator!=(const ScenarioConfig& a, const ScenarioConfig& b);

}  // namespace greencc::app
