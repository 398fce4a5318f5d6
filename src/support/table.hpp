// Plain-text table rendering for paper-style result tables.
//
// Every bench binary that regenerates a table from the paper prints a
// fixed-width ASCII table with the same rows/columns the paper reports,
// so shapes can be compared side by side with the original.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dhtlb::support {

/// Column-aligned text table.  Cells are strings; numeric formatting is
/// the caller's job (keeps this class format-policy free).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with a header rule and two-space column gutters.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` fractional digits (fixed notation).
std::string format_fixed(double v, int digits);

/// Formats counts with thousands separators for readability (1,000,000).
std::string format_count(std::uint64_t v);

std::ostream& operator<<(std::ostream& os, const TextTable& t);

}  // namespace dhtlb::support
