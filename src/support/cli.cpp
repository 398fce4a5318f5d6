#include "support/cli.hpp"

#include <sstream>
#include <stdexcept>

#include "support/number.hpp"

namespace dhtlb::support {

void CliParser::add_flag(const std::string& name,
                         const std::string& value_name,
                         const std::string& default_value,
                         const std::string& description) {
  if (flags_.contains(name)) {
    throw std::logic_error("CliParser: duplicate flag --" + name);
  }
  flags_[name] = Flag{value_name, default_value, description, std::nullopt};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (!token.starts_with("--")) {
      positionals_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    std::optional<std::string> inline_value;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      inline_value = token.substr(eq + 1);
      token.resize(eq);
    }
    auto it = flags_.find(token);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + token;
      return false;
    }
    Flag& flag = it->second;
    if (flag.parsed) {
      error_ = "flag --" + token + " given more than once";
      return false;
    }
    if (flag.value_name.empty()) {
      // Boolean: accepts --flag or --flag=true/false.
      flag.parsed = inline_value.value_or("true");
    } else if (inline_value) {
      flag.parsed = *inline_value;
    } else if (i + 1 < argc) {
      flag.parsed = argv[++i];
    } else {
      error_ = "flag --" + token + " needs a value";
      return false;
    }
  }
  return true;
}

bool CliParser::has(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.parsed.has_value();
}

std::string CliParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::logic_error("CliParser: unregistered flag --" + name);
  }
  return it->second.parsed.value_or(it->second.default_value);
}

std::uint64_t CliParser::get_u64(const std::string& name) const {
  return parse_u64("--" + name, get(name));
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string raw = get(name);
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no" || raw.empty())
    return false;
  throw std::invalid_argument("--" + name + ": not a boolean: " + raw);
}

std::vector<std::uint64_t> CliParser::get_u64_list(
    const std::string& name) const {
  std::vector<std::uint64_t> out;
  std::istringstream in(get(name));
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_u64("--" + name, item, "bad list item"));
  }
  return out;
}

std::string CliParser::help(const std::string& program,
                            const std::string& summary) const {
  std::ostringstream out;
  out << summary << "\n\nusage: " << program << " [flags]\n\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    std::string left = "  --" + name;
    if (!flag.value_name.empty()) left += " <" + flag.value_name + ">";
    out << left;
    if (left.size() < 28) out << std::string(28 - left.size(), ' ');
    out << flag.description;
    if (!flag.default_value.empty()) {
      out << " (default: " << flag.default_value << ")";
    }
    out << '\n';
  }
  return out.str();
}

std::uint64_t positional_count(int argc, const char* const* argv, int index,
                               const std::string& name,
                               std::uint64_t fallback) {
  if (index >= argc) return fallback;
  const std::uint64_t v = parse_u64(name, argv[index]);
  if (v == 0) throw std::invalid_argument(name + ": must be at least 1: 0");
  return v;
}

}  // namespace dhtlb::support
