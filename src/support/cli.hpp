// Minimal command-line flag parser for the driver binaries.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag` forms,
// with typed accessors, defaults, and a generated --help text.  No
// external dependencies, no global state; deliberately small — the
// drivers need a dozen flags, not a framework.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dhtlb::support {

class CliParser {
 public:
  /// Registers a flag before parsing.  `value_name` empty = boolean flag.
  void add_flag(const std::string& name, const std::string& value_name,
                const std::string& default_value,
                const std::string& description);

  /// Parses argv.  Returns false (with a message in error()) on unknown
  /// flags, missing values, or repeated flags.  Positional arguments are
  /// collected in positionals().
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Decimal u64 under support/number.hpp's grammar.  Throws
  /// std::invalid_argument naming the flag and the raw text.
  std::uint64_t get_u64(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated integers, e.g. "--threads-matrix 1,4"; each item is
  /// checked as get_u64 checks its value.
  std::vector<std::uint64_t> get_u64_list(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::string& error() const { return error_; }

  /// Usage text generated from the registered flags.
  std::string help(const std::string& program,
                   const std::string& summary) const;

 private:
  struct Flag {
    std::string value_name;  // empty = boolean
    std::string default_value;
    std::string description;
    std::optional<std::string> parsed;
  };

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;  // registration order, for help()
  std::vector<std::string> positionals_;
  std::string error_;
};

/// A positional count for the example programs: argv[index] checked as
/// CliParser::get_u64 checks a flag value, or `fallback` when argc <=
/// index.  Throws std::invalid_argument naming `name` and the raw text
/// on malformed input and on zero.
std::uint64_t positional_count(int argc, const char* const* argv, int index,
                               const std::string& name,
                               std::uint64_t fallback);

}  // namespace dhtlb::support
