#include "support/number.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace dhtlb::support {

namespace {

enum class UintError { kNone, kMalformed, kNegative, kOutOfRange };

// The integer grammar; from_chars takes digits only.
UintError read_uint(std::string_view text, std::uint64_t& out) {
  if (text.starts_with('-')) return UintError::kNegative;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range) return UintError::kOutOfRange;
  return ec == std::errc{} && ptr == end ? UintError::kNone
                                         : UintError::kMalformed;
}

}  // namespace

std::uint64_t parse_u64(std::string_view label, std::string_view raw,
                        std::string_view what) {
  std::uint64_t value = 0;
  const UintError error = read_uint(raw, value);
  if (error == UintError::kNone) return value;
  if (error == UintError::kNegative) what = "negative value";
  if (error == UintError::kOutOfRange) what = "out of range";
  throw std::invalid_argument(std::string(label) + ": " + std::string(what) +
                              ": " + std::string(raw));
}

std::uint64_t parse_count(std::string_view what, std::string_view text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  if (read_uint(text, value) != UintError::kNone) {
    throw std::invalid_argument("expected an unsigned integer for " +
                                std::string(what) + ", got '" +
                                std::string(text) + "'");
  }
  if (value > max) {
    throw std::invalid_argument(std::string(what) + " " + std::string(text) +
                                " is out of range (at most " +
                                std::to_string(max) + ")");
  }
  return value;
}

double parse_number(std::string_view what, std::string_view text) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc{} && ptr == end && std::isfinite(value)) return value;
  const bool malformed = ec == std::errc::invalid_argument || ptr != end;
  throw std::invalid_argument(
      std::string(malformed ? "expected a number for "
                            : "expected a finite number for ") +
      std::string(what) + ", got '" + std::string(text) + "'");
}

double parse_probability(std::string_view what, std::string_view text) {
  const double value = parse_number(what, text);
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string(what) +
                                " must be in [0, 1], got '" +
                                std::string(text) + "'");
  }
  return value;
}

std::string format_real(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, ptr);
}

}  // namespace dhtlb::support
