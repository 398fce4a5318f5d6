#include "support/table.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dhtlb::support {

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable::add_row: arity mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << "  ";
      out << row[c];
      // Pad all but the last column so trailing whitespace never appears.
      if (c + 1 != row.size()) {
        out << std::string(widths[c] - row[c].size(), ' ');
      }
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string format_fixed(double v, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << v;
  return out.str();
}

std::string format_count(std::uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  std::size_t lead = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += raw[i];
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

}  // namespace dhtlb::support
