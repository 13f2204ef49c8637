#pragma once

// Typed CSV emission for pack-level sweep outputs.
//
// Table (table.h) is a string-in/string-out renderer; CsvWriter instead
// takes typed cells — units::Energy, units::Power, units::BitRate,
// units::Bytes, sim::SimTime — so the call site states the unit and the
// formatter owns the rendering. Two float renderings cover both legacy
// bench CSV dialects byte-for-byte:
//
//   general(v, p)  ostream default-format at precision p (the legacy
//                  grid CSV's out.precision(12))
//   fixed(v, p)    printf "%.*f" (what Table::num produced)
//
// Quoting matches Table::write_csv: cells are quoted only when they
// contain a comma.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"
#include "units/units.h"

namespace greencc::stats {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  // Cell appenders; cells fill the current row left to right.
  CsvWriter& text(const std::string& v);
  CsvWriter& integer(std::int64_t v);
  CsvWriter& general(double v, int precision);
  CsvWriter& fixed(double v, int precision);
  CsvWriter& yesno(bool v);  ///< "yes" / "NO", the bench convention

  // Typed cells: the unit decides the numeric rendering.
  CsvWriter& energy(units::Energy v, int precision);   ///< joules, general
  CsvWriter& power(units::Power v, int precision);     ///< watts, general
  CsvWriter& rate_gbps(units::BitRate v, int precision);  ///< Gb/s, fixed
  CsvWriter& size(units::Bytes v);                     ///< byte count
  CsvWriter& duration_sec(sim::SimTime v, int precision);  ///< seconds, fixed

  /// Closes the current row; throws std::invalid_argument when the cell
  /// count does not match the header count.
  CsvWriter& end_row();

  void write(std::ostream& os) const;
  void write_file(const std::string& path) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  CsvWriter& cell(std::string v);

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> current_;
};

}  // namespace greencc::stats
