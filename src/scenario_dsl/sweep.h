#pragma once

// Sweep expansion: lowers a ScenarioDoc's [[sweep.axis]] declarations onto
// a flat row-major cell grid, and applies axis/--set bindings to document
// copies. The cell flattening contract matters: the FIRST declared axis
// varies slowest, exactly the legacy grid benches' loop nesting (mtu
// outer, cca inner) — so a ported scenario's cell indices, and therefore
// its derive_seed() streams, match the binary it replaces.

#include <cstddef>
#include <string>
#include <vector>

#include "scenario_dsl/doc.h"

namespace greencc::dsl {

/// True when two sweep paths would write the same field: exact match, or a
/// "flow.*" wildcard covering a "flow.N" path of the same field.
bool paths_overlap(const std::string& a, const std::string& b);

/// Applies one binding (sweep axis step or --set override) to the
/// document through the key table (keys.h), so the value gets the same
/// conversion and range check as the file key. Throws ParseError at the
/// value's line for unknown or unbindable paths and for type, unit and
/// range errors; messages name the bound path ("flow.0.bytes must be
/// > 0"). "flow.*.<field>" fans out to every flow.
void apply_binding(ScenarioDoc& doc, const std::string& path,
                   const TomlValue& value);

/// Parses a "path=value" override (the --set flag) into a binding and
/// applies it. The value text is typed by shape: true/false, integer,
/// float, else string ("9Gbps" arrives as a string and hits the same unit
/// parser a file value would).
void apply_override(ScenarioDoc& doc, const std::string& assignment);

/// One expanded cell: flat index plus the per-axis value choice.
struct SweepCell {
  std::size_t index = 0;
  std::vector<std::size_t> choice;  ///< one value index per axis
};

struct SweepGrid {
  std::vector<SweepCell> cells;  ///< row-major, first axis slowest
};

/// Expands the full cross product of doc.axes (one cell for an axis-less
/// document).
SweepGrid expand_sweep(const ScenarioDoc& doc);

/// The base document with one cell's bindings applied.
ScenarioDoc doc_for_cell(const ScenarioDoc& base, const SweepCell& cell);

/// The scalar an axis echo column shows for this cell (tuple entry 0 for
/// zip axes).
const TomlValue& axis_value(const ScenarioDoc& doc, const SweepCell& cell,
                            std::size_t axis_index);

}  // namespace greencc::dsl
