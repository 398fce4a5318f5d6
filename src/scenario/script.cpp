#include "scenario/script.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "lb/factory.hpp"
#include "support/number.hpp"

namespace dhtlb::scenario {

namespace {

// Tokenizes one logical line: comment stripped, whitespace-split.
std::vector<std::string> tokenize(std::string_view line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::vector<std::string> tokens;
  std::istringstream stream{std::string(line)};
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

struct Cursor {
  std::string_view file;
  int line = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(file, line, message);
  }

  void expect_tokens(const std::vector<std::string>& tokens,
                     std::size_t count, const std::string& usage) const {
    if (tokens.size() < count) fail("missing argument; usage: " + usage);
    if (tokens.size() > count) {
      fail("trailing garbage '" + tokens[count] + "' after " + usage);
    }
  }

  // The name becomes the output file BENCH_scenario_<name>.json: a path
  // separator or `..` would write outside the output directory, and a
  // quote has no use in a file name.
  void check_name(const std::string& name) const {
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
      if (!ok) {
        fail("name '" + name +
             "' may hold only letters, digits, '_' and '-'");
      }
    }
  }

  void check_strategy(const std::string& name) const {
    if (lb::find_strategy(name) == nullptr) {
      fail("unknown strategy '" + name + "'");
    }
  }
};

using sim::Params;
using support::parse_count;
using support::parse_probability;

Event parse_event(const Cursor& cur, const std::vector<std::string>& tokens) {
  Event event;
  event.line = cur.line;
  const std::string& head = tokens[0];
  if (head == "join" || head == "leave" || head == "crash") {
    cur.expect_tokens(tokens, 2, head + " <count>");
    event.kind = head == "join"    ? Event::Kind::kJoin
                 : head == "leave" ? Event::Kind::kLeave
                                   : Event::Kind::kCrash;
    event.count = parse_count("count", tokens[1], Params::kMaxInputNodes);
    if (event.count == 0) cur.fail(head + " count must be >= 1");
  } else if (head == "inject-uniform") {
    cur.expect_tokens(tokens, 2, "inject-uniform <tasks>");
    event.kind = Event::Kind::kInjectUniform;
    event.count = parse_count("task count", tokens[1], Params::kMaxInputTasks);
    if (event.count == 0) cur.fail("inject-uniform count must be >= 1");
  } else if (head == "inject-hotspot") {
    cur.expect_tokens(tokens, 3, "inject-hotspot <tasks> <ring-fraction>");
    event.kind = Event::Kind::kInjectHotspot;
    event.count = parse_count("task count", tokens[1], Params::kMaxInputTasks);
    if (event.count == 0) cur.fail("inject-hotspot count must be >= 1");
    event.value = support::parse_number("ring fraction", tokens[2]);
    if (!(event.value > 0.0 && event.value <= 1.0)) {
      cur.fail("hotspot ring fraction must be in (0, 1], got '" + tokens[2] +
               "'");
    }
  } else if (head == "set") {
    cur.expect_tokens(tokens, 3, "set churn|threshold <value>");
    if (tokens[1] == "churn") {
      event.kind = Event::Kind::kSetChurn;
      event.value = parse_probability("churn rate", tokens[2]);
    } else if (tokens[1] == "threshold") {
      event.kind = Event::Kind::kSetThreshold;
      event.count = parse_count("sybilThreshold", tokens[2]);
    } else {
      cur.fail("unknown parameter '" + tokens[1] +
               "' (expected churn or threshold)");
    }
  } else if (head == "strategy") {
    cur.expect_tokens(tokens, 2, "strategy <name>");
    event.kind = Event::Kind::kSetStrategy;
    cur.check_strategy(tokens[1]);
    event.text = tokens[1];
  } else if (head == "fault") {
    cur.expect_tokens(tokens, 3, "fault drop|delay|duplicate <probability>");
    if (tokens[1] != "drop" && tokens[1] != "delay" &&
        tokens[1] != "duplicate") {
      cur.fail("unknown fault kind '" + tokens[1] +
               "' (expected drop, delay, or duplicate)");
    }
    event.kind = Event::Kind::kFault;
    event.text = tokens[1];
    event.value = parse_probability("fault probability", tokens[2]);
  } else if (head == "lookup") {
    cur.expect_tokens(tokens, 2, "lookup <count>");
    event.kind = Event::Kind::kLookup;
    event.count = parse_count("lookup count", tokens[1], kMaxScriptLookups);
    if (event.count == 0) cur.fail("lookup count must be >= 1");
  } else {
    cur.fail("unknown event '" + head + "'");
  }
  return event;
}

// Each event kind's words before its operands, which operands it
// carries (written in the order text, count, value) and where it runs.
struct EventShape {
  Event::Kind kind;
  std::string_view name;
  bool text, count, value;
  bool sim, chord;
};
constexpr EventShape kEventShapes[] = {
    {Event::Kind::kJoin, "join", false, true, false, true, true},
    {Event::Kind::kLeave, "leave", false, true, false, true, true},
    {Event::Kind::kCrash, "crash", false, true, false, true, true},
    {Event::Kind::kInjectUniform, "inject-uniform", false, true, false, true,
     false},
    {Event::Kind::kInjectHotspot, "inject-hotspot", false, true, true, true,
     false},
    {Event::Kind::kSetChurn, "set churn", false, false, true, true, false},
    {Event::Kind::kSetThreshold, "set threshold", false, true, false, true,
     false},
    {Event::Kind::kSetStrategy, "strategy", true, false, false, true, false},
    {Event::Kind::kFault, "fault", true, false, true, false, true},
    {Event::Kind::kLookup, "lookup", false, true, false, false, true},
};
static_assert(
    [] {
      std::size_t i = 0;
      for (const EventShape& s : kEventShapes) {
        if (s.kind != static_cast<Event::Kind>(i++)) return false;
      }
      return i == static_cast<std::size_t>(Event::Kind::kLookup) + 1;
    }(),
    "kEventShapes lists every Event::Kind once, in declaration order");

const EventShape& shape(Event::Kind kind) {
  return kEventShapes[static_cast<std::size_t>(kind)];
}

// Script::parse without the final rewrap: the number parsers and
// Params::set throw std::invalid_argument, which Script::parse reports
// at `cur.line`.
Script parse_lines(std::string_view text, Cursor& cur) {
  Script script;
  // Header key -> the line it appeared on, for the duplicate check and
  // the substrate cross-check.
  std::map<std::string, int> header_lines;
  bool in_block = false;
  bool any_block = false;
  Block block;
  std::uint64_t last_at_tick = 0;

  std::istringstream lines{std::string(text)};
  std::string raw;
  while (std::getline(lines, raw)) {
    ++cur.line;
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];

    if (head == "at" || head == "every") {
      if (in_block) cur.fail("'" + head + "' inside an unterminated block");
      block = Block{};
      block.line = cur.line;
      block.recurring = head == "every";
      if (block.recurring) {
        if (tokens.size() != 2 && tokens.size() != 4 && tokens.size() != 6) {
          cur.fail("usage: every <period> [from <tick>] [until <tick>]");
        }
        block.at = parse_count("period", tokens[1], kMaxScriptTicks);
        if (block.at == 0) cur.fail("every period must be >= 1");
        std::size_t i = 2;
        if (i < tokens.size() && tokens[i] == "from") {
          block.from = parse_count("from tick", tokens[i + 1], kMaxScriptTicks);
          if (block.from == 0) cur.fail("from tick must be >= 1");
          i += 2;
        }
        if (i < tokens.size() && tokens[i] == "until") {
          block.until =
              parse_count("until tick", tokens[i + 1], kMaxScriptTicks);
          // 0 is the internal "open-ended" sentinel; accepting it here
          // would silently stretch the block to the horizon instead of
          // meaning "never fires" — reject rather than guess.
          if (block.until == 0) cur.fail("until tick must be >= 1");
          i += 2;
        }
        if (i != tokens.size()) {
          cur.fail("trailing garbage '" + tokens[i] +
                   "' after every <period> [from <tick>] [until <tick>]");
        }
        if (block.until != 0 && block.until < block.from) {
          cur.fail("every block ends (until " + std::to_string(block.until) +
                   ") before it starts (from " + std::to_string(block.from) +
                   ")");
        }
      } else {
        cur.expect_tokens(tokens, 2, "at <tick>");
        block.at = parse_count("tick", tokens[1], kMaxScriptTicks);
        if (block.at == 0) cur.fail("at tick must be >= 1 (tick 0 is the "
                                    "initial state)");
        if (block.at <= last_at_tick) {
          cur.fail("out-of-order 'at' tick " + std::to_string(block.at) +
                   " (previous block was at " + std::to_string(last_at_tick) +
                   ")");
        }
        last_at_tick = block.at;
      }
      in_block = true;
      any_block = true;
      continue;
    }

    if (head == "end") {
      if (!in_block) cur.fail("'end' without an open at/every block");
      cur.expect_tokens(tokens, 1, "end");
      if (block.events.empty()) cur.fail("empty event block");
      script.blocks.push_back(std::move(block));
      in_block = false;
      continue;
    }

    if (in_block) {
      block.events.push_back(parse_event(cur, tokens));
      continue;
    }

    // Header line.
    if (any_block) {
      cur.fail("header key '" + head + "' after the first event block "
               "(headers must come first)");
    }
    if (!header_lines.emplace(head, cur.line).second) {
      cur.fail("duplicate key '" + head + "'");
    }
    if (head == "name") {
      cur.expect_tokens(tokens, 2, "name <identifier>");
      cur.check_name(tokens[1]);
      script.name = tokens[1];
    } else if (head == "substrate") {
      cur.expect_tokens(tokens, 2, "substrate sim|chord");
      if (tokens[1] == "sim") {
        script.substrate = Substrate::kSim;
      } else if (tokens[1] == "chord") {
        script.substrate = Substrate::kChord;
      } else {
        cur.fail("unknown substrate '" + tokens[1] +
                 "' (expected sim or chord)");
      }
    } else if (head == "seed") {
      cur.expect_tokens(tokens, 2, "seed <u64>");
      script.seed = parse_count("seed", tokens[1]);
      script.seed_set = true;
    } else if (head == "ticks") {
      cur.expect_tokens(tokens, 2, "ticks <horizon>");
      script.horizon = parse_count("tick horizon", tokens[1], kMaxScriptTicks);
    } else if (head == "strategy") {
      cur.expect_tokens(tokens, 2, "strategy <name>");
      cur.check_strategy(tokens[1]);
      script.strategy = tokens[1];
    } else if (const sim::ParamField* field = sim::find_param_field(head)) {
      cur.expect_tokens(tokens, 2,
                        head + " <" + std::string(field->value_name) + ">");
      script.params.set(head, tokens[1]);
    } else {
      cur.fail("unknown key '" + head + "'");
    }
  }

  if (in_block) {
    throw ParseError(cur.file, block.line,
                     "unterminated at/every block (missing 'end')");
  }

  // --- whole-script validation -------------------------------------------
  auto fail_at = [&](int line, const std::string& message) -> void {
    throw ParseError(cur.file, line, message);
  };
  if (script.name.empty()) {
    fail_at(cur.line == 0 ? 1 : cur.line, "missing required key 'name'");
  }
  if (script.substrate == Substrate::kChord) {
    // The chord run reads nodes and successors only.
    for (const auto& [key, line] : header_lines) {
      const sim::ParamField* field = sim::find_param_field(key);
      if (field != nullptr ? !field->chord : key == "strategy") {
        fail_at(line, "key '" + key + "' only applies to the sim substrate");
      }
    }
    if (script.horizon == 0) {
      fail_at(cur.line, "chord scenarios need a 'ticks' horizon (the "
                        "protocol run has no natural end)");
    }
  }
  for (const Block& b : script.blocks) {
    if (b.recurring && b.until == 0 && script.horizon == 0) {
      fail_at(b.line, "every block needs 'until' (or a 'ticks' horizon) "
                      "so the scenario can end");
    }
    if (script.horizon != 0) {
      const std::uint64_t first = b.recurring ? b.from : b.at;
      if (first > script.horizon) {
        fail_at(b.line, "block starts at tick " + std::to_string(first) +
                            ", beyond the ticks horizon " +
                            std::to_string(script.horizon));
      }
    }
    for (const Event& e : b.events) {
      const EventShape& ev = shape(e.kind);
      if (!(script.substrate == Substrate::kSim ? ev.sim : ev.chord)) {
        fail_at(e.line,
                "event '" + std::string(ev.name) + "' is not valid on the " +
                    (script.substrate == Substrate::kSim ? "sim" : "chord") +
                    " substrate");
      }
    }
  }
  // Resolve open-ended every blocks against the horizon.
  for (Block& b : script.blocks) {
    if (b.recurring && b.until == 0) b.until = script.horizon;
  }
  script.params.validate();  // a failure is reported at the last line
  return script;
}

}  // namespace

Script Script::parse(std::string_view text, std::string_view filename) {
  Cursor cur{filename, 0};
  try {
    return parse_lines(text, cur);
  } catch (const std::invalid_argument& e) {
    cur.fail(e.what());
  }
}

std::string format_event(const Event& event) {
  const EventShape& ev = shape(event.kind);
  std::string out(ev.name);
  if (ev.text) out += ' ' + event.text;
  if (ev.count) out += ' ' + std::to_string(event.count);
  if (ev.value) out += ' ' + support::format_real(event.value);
  return out;
}

Script Script::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot open scenario file: " + path);
  }
  // A directory opens but reads as empty, which would surface as a
  // misleading "missing required key 'name'".
  if (std::filesystem::is_directory(path)) {
    throw std::runtime_error("cannot read scenario file: " + path +
                             " is a directory");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str(), path);
}

}  // namespace dhtlb::scenario
