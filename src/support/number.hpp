// The one number grammar for every text input (CLI flags, env knobs,
// example positionals, `.scn` scripts, the sim::Params field table):
//   integer  ASCII decimal digits only, at most 2^64 - 1 (no sign,
//            whitespace or prefix)
//   real     std::from_chars' general format, finite (an optional '-';
//            no '+', whitespace or hex)
// Each caller keeps its own diagnostic prefix: a flag's `--name`, an env
// var, or the `file:line` a scenario ParseError adds.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace dhtlb::support {

/// An integer flag, env var or positional.  Throws std::invalid_argument
/// "<label>: <what>: <raw>", with "negative value" or "out of range" as
/// `what` in those cases.
std::uint64_t parse_u64(std::string_view label, std::string_view raw,
                        std::string_view what = "not an integer");

/// An integer field.  Throws std::invalid_argument "expected an unsigned
/// integer for <what>, got '<text>'" or "<what> <text> is out of range
/// (at most <max>)".
std::uint64_t parse_count(
    std::string_view what, std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A real field.  Throws std::invalid_argument "expected a number for
/// <what>, got '<text>'" or "expected a finite number for ...".
double parse_number(std::string_view what, std::string_view text);

/// parse_number, then "<what> must be in [0, 1], got '<text>'".
double parse_probability(std::string_view what, std::string_view text);

/// The shortest text parse_number reads back to the same bits.
std::string format_real(double value);

}  // namespace dhtlb::support
