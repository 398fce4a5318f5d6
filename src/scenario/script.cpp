#include "scenario/script.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "lb/factory.hpp"

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

  std::uint64_t parse_u64(const std::string& token,
                          const char* what) const {
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      fail(std::string("expected an unsigned integer for ") + what +
           ", got '" + token + "'");
    }
    return value;
  }

  double parse_double(const std::string& token, const char* what) const {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      fail(std::string("expected a number for ") + what + ", got '" + token +
           "'");
    }
    if (!std::isfinite(value)) {
      fail(std::string("expected a finite number for ") + what + ", got '" +
           token + "'");
    }
    return value;
  }

  double parse_probability(const std::string& token,
                           const char* what) const {
    const double value = parse_double(token, what);
    if (!(value >= 0.0 && value <= 1.0)) {
      fail(std::string(what) + " must be in [0, 1], got '" + token + "'");
    }
    return value;
  }

  bool parse_bool(const std::string& token, const char* what) const {
    if (token == "true") return true;
    if (token == "false") return false;
    fail(std::string("expected true/false for ") + what + ", got '" + token +
         "'");
  }

  void expect_tokens(const std::vector<std::string>& tokens,
                     std::size_t count, const char* usage) const {
    if (tokens.size() < count) {
      fail(std::string("missing argument; usage: ") + usage);
    }
    if (tokens.size() > count) {
      fail("trailing garbage '" + tokens[count] + "' after " + usage);
    }
  }

  void check_strategy(const std::string& name) const {
    try {
      (void)lb::make_strategy(name);
    } catch (const std::invalid_argument&) {
      fail("unknown strategy '" + name + "'");
    }
  }
};

Event parse_event(const Cursor& cur, const std::vector<std::string>& tokens) {
  Event event;
  event.line = cur.line;
  const std::string& head = tokens[0];
  if (head == "join" || head == "leave" || head == "crash") {
    cur.expect_tokens(tokens, 2, (head + " <count>").c_str());
    event.kind = head == "join"    ? Event::Kind::kJoin
                 : head == "leave" ? Event::Kind::kLeave
                                   : Event::Kind::kCrash;
    event.count = cur.parse_u64(tokens[1], "count");
    if (event.count == 0) cur.fail(head + " count must be >= 1");
  } else if (head == "inject-uniform") {
    cur.expect_tokens(tokens, 2, "inject-uniform <tasks>");
    event.kind = Event::Kind::kInjectUniform;
    event.count = cur.parse_u64(tokens[1], "task count");
    if (event.count == 0) cur.fail("inject-uniform count must be >= 1");
  } else if (head == "inject-hotspot") {
    cur.expect_tokens(tokens, 3, "inject-hotspot <tasks> <ring-fraction>");
    event.kind = Event::Kind::kInjectHotspot;
    event.count = cur.parse_u64(tokens[1], "task count");
    if (event.count == 0) cur.fail("inject-hotspot count must be >= 1");
    event.value = cur.parse_double(tokens[2], "ring fraction");
    if (!(event.value > 0.0 && event.value <= 1.0)) {
      cur.fail("hotspot ring fraction must be in (0, 1], got '" + tokens[2] +
               "'");
    }
  } else if (head == "set") {
    cur.expect_tokens(tokens, 3, "set churn|threshold <value>");
    if (tokens[1] == "churn") {
      event.kind = Event::Kind::kSetChurn;
      event.value = cur.parse_probability(tokens[2], "churn rate");
    } else if (tokens[1] == "threshold") {
      event.kind = Event::Kind::kSetThreshold;
      event.count = cur.parse_u64(tokens[2], "sybilThreshold");
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
    event.value = cur.parse_probability(tokens[2], "fault probability");
  } else if (head == "lookup") {
    cur.expect_tokens(tokens, 2, "lookup <count>");
    event.kind = Event::Kind::kLookup;
    event.count = cur.parse_u64(tokens[1], "lookup count");
    if (event.count == 0) cur.fail("lookup count must be >= 1");
  } else {
    cur.fail("unknown event '" + head + "'");
  }
  return event;
}

bool event_allowed(Event::Kind kind, Substrate substrate) {
  switch (kind) {
    case Event::Kind::kJoin:
    case Event::Kind::kLeave:
    case Event::Kind::kCrash:
      return true;
    case Event::Kind::kInjectUniform:
    case Event::Kind::kInjectHotspot:
    case Event::Kind::kSetChurn:
    case Event::Kind::kSetThreshold:
    case Event::Kind::kSetStrategy:
      return substrate == Substrate::kSim;
    case Event::Kind::kFault:
    case Event::Kind::kLookup:
      return substrate == Substrate::kChord;
  }
  return false;
}

const char* event_name(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kJoin: return "join";
    case Event::Kind::kLeave: return "leave";
    case Event::Kind::kCrash: return "crash";
    case Event::Kind::kInjectUniform: return "inject-uniform";
    case Event::Kind::kInjectHotspot: return "inject-hotspot";
    case Event::Kind::kSetChurn: return "set churn";
    case Event::Kind::kSetThreshold: return "set threshold";
    case Event::Kind::kSetStrategy: return "strategy";
    case Event::Kind::kFault: return "fault";
    case Event::Kind::kLookup: return "lookup";
  }
  return "?";
}

}  // namespace

Script Script::parse(std::string_view text, std::string_view filename) {
  Script script;
  Cursor cur{filename, 0};
  std::set<std::string> seen_keys;
  // Sim-only header keys, for the substrate cross-check; value = the
  // line the key appeared on.
  std::set<std::pair<std::string, int>> sim_only_keys;
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
        block.at = cur.parse_u64(tokens[1], "period");
        if (block.at == 0) cur.fail("every period must be >= 1");
        std::size_t i = 2;
        if (i < tokens.size() && tokens[i] == "from") {
          block.from = cur.parse_u64(tokens[i + 1], "from tick");
          if (block.from == 0) cur.fail("from tick must be >= 1");
          i += 2;
        }
        if (i < tokens.size() && tokens[i] == "until") {
          block.until = cur.parse_u64(tokens[i + 1], "until tick");
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
        block.at = cur.parse_u64(tokens[1], "tick");
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
    if (!seen_keys.insert(head).second) {
      cur.fail("duplicate key '" + head + "'");
    }
    if (head == "name") {
      cur.expect_tokens(tokens, 2, "name <identifier>");
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
      script.seed = cur.parse_u64(tokens[1], "seed");
      script.seed_set = true;
    } else if (head == "ticks") {
      cur.expect_tokens(tokens, 2, "ticks <horizon>");
      script.horizon = cur.parse_u64(tokens[1], "tick horizon");
    } else if (head == "trace") {
      cur.expect_tokens(tokens, 2, "trace <file>");
      script.trace_path = tokens[1];
    } else if (head == "metrics") {
      cur.expect_tokens(tokens, 2, "metrics <file>");
      script.metrics_path = tokens[1];
    } else if (head == "nodes") {
      cur.expect_tokens(tokens, 2, "nodes <count>");
      script.params.initial_nodes = cur.parse_u64(tokens[1], "node count");
    } else if (head == "successors") {
      cur.expect_tokens(tokens, 2, "successors <k>");
      script.params.num_successors = cur.parse_u64(tokens[1], "successors");
    } else if (head == "strategy") {
      cur.expect_tokens(tokens, 2, "strategy <name>");
      cur.check_strategy(tokens[1]);
      script.strategy = tokens[1];
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "tasks") {
      cur.expect_tokens(tokens, 2, "tasks <count>");
      script.params.total_tasks = cur.parse_u64(tokens[1], "task count");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "churn") {
      cur.expect_tokens(tokens, 2, "churn <rate>");
      script.params.churn_rate = cur.parse_probability(tokens[1],
                                                       "churn rate");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "heterogeneous") {
      cur.expect_tokens(tokens, 2, "heterogeneous true|false");
      script.params.heterogeneous = cur.parse_bool(tokens[1],
                                                   "heterogeneous");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "work-measure") {
      cur.expect_tokens(tokens, 2, "work-measure one|strength");
      if (tokens[1] == "one") {
        script.params.work_measure = sim::WorkMeasure::kOneTaskPerTick;
      } else if (tokens[1] == "strength") {
        script.params.work_measure = sim::WorkMeasure::kStrengthPerTick;
      } else {
        cur.fail("unknown work-measure '" + tokens[1] +
                 "' (expected one or strength)");
      }
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "threshold") {
      cur.expect_tokens(tokens, 2, "threshold <tasks>");
      script.params.sybil_threshold = cur.parse_u64(tokens[1],
                                                    "sybilThreshold");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "max-sybils") {
      cur.expect_tokens(tokens, 2, "max-sybils <k>");
      script.params.max_sybils =
          static_cast<unsigned>(cur.parse_u64(tokens[1], "max-sybils"));
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "decision-period") {
      cur.expect_tokens(tokens, 2, "decision-period <ticks>");
      script.params.decision_period = cur.parse_u64(tokens[1],
                                                    "decision period");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "provisioning") {
      cur.expect_tokens(tokens, 2, "provisioning preallocated|streamed");
      if (tokens[1] == "preallocated") {
        script.params.provisioning = sim::TaskProvisioning::kPreallocated;
      } else if (tokens[1] == "streamed") {
        script.params.provisioning = sim::TaskProvisioning::kStreamed;
      } else {
        cur.fail("unknown provisioning '" + tokens[1] +
                 "' (expected preallocated or streamed)");
      }
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "arrival-ticks") {
      cur.expect_tokens(tokens, 2, "arrival-ticks <ticks>");
      script.params.arrival_ticks = cur.parse_u64(tokens[1],
                                                  "arrival ticks");
      sim_only_keys.emplace(head, cur.line);
    } else if (head == "mark-failed-ranges") {
      cur.expect_tokens(tokens, 2, "mark-failed-ranges true|false");
      script.params.mark_failed_ranges =
          cur.parse_bool(tokens[1], "mark-failed-ranges");
      sim_only_keys.emplace(head, cur.line);
    } else {
      cur.fail("unknown key '" + head + "'");
    }
  }

  if (in_block) {
    throw ParseError(filename, block.line,
                     "unterminated at/every block (missing 'end')");
  }

  // --- whole-script validation -------------------------------------------
  auto fail_at = [&](int line, const std::string& message) -> void {
    throw ParseError(filename, line, message);
  };
  if (script.name.empty()) {
    fail_at(cur.line == 0 ? 1 : cur.line, "missing required key 'name'");
  }
  if (script.substrate == Substrate::kChord) {
    for (const auto& [key, line] : sim_only_keys) {
      fail_at(line, "key '" + key + "' only applies to the sim substrate");
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
      if (!event_allowed(e.kind, script.substrate)) {
        fail_at(e.line,
                std::string("event '") + event_name(e.kind) +
                    "' is not valid on the " +
                    (script.substrate == Substrate::kSim ? "sim" : "chord") +
                    " substrate");
      }
    }
  }
  // Resolve open-ended every blocks against the horizon.
  for (Block& b : script.blocks) {
    if (b.recurring && b.until == 0) b.until = script.horizon;
  }
  try {
    script.params.validate();
  } catch (const std::invalid_argument& e) {
    fail_at(cur.line == 0 ? 1 : cur.line, e.what());
  }
  return script;
}

Script Script::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot open scenario file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str(), path);
}

}  // namespace dhtlb::scenario
