#include "scenario/script.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "chord/network.hpp"
#include "lb/factory.hpp"
#include "support/number.hpp"

namespace dhtlb::scenario {

namespace {

// Tokenizes one logical line: comment stripped, then split on exactly
// the whitespace `>>` skips in the classic locale.
std::vector<std::string> tokenize(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::vector<std::string> tokens;
  std::size_t begin = line.find_first_not_of(kSpace);
  while (begin != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, begin);
    tokens.emplace_back(line.substr(begin, end - begin));
    begin = line.find_first_not_of(kSpace, end);
  }
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
};

using sim::Params;
using support::parse_count;

// Substrate names, indexed by Substrate.
constexpr std::string_view kSubstrates[] = {"sim", "chord"};

// The `fault` kinds and the chord message-fault probability each sets.
constexpr FaultKind kFaultKinds[] = {
    {"drop", &chord::FaultConfig::drop},
    {"delay", &chord::FaultConfig::delay},
    {"duplicate", &chord::FaultConfig::duplicate}};

// An operand's grammar and the Event field it fills: kCount `count`, up
// to `max`; kReal `value`, in [0, 1] with zero_ok, else in (0, 1];
// kStrategy and kFault `text`; kParam `count` or `value`, read by the
// sim::param_fields() row the event's second word names (`set churn`).
enum class Grammar { kNone, kCount, kReal, kStrategy, kFault, kParam };
using enum Grammar;

struct Operand {
  Grammar grammar = kNone;
  std::string_view noun = {};  // names the value in diagnostics
  std::uint64_t max = 0;       // kCount: the input limit
  bool zero_ok = false;        // whether 0 is a valid value
};
constexpr Operand kNodes{kCount, "count", Params::kMaxInputNodes};
constexpr Operand kTasks{kCount, "task count", Params::kMaxInputTasks};

// One row per Event::Kind: its words, the usage text of its operands
// (after the fault kinds, for `fault`), the operands in text order, the
// substrates it runs on and its trace instant name.
struct EventSpec {
  Event::Kind kind;
  std::string_view words, usage;
  Operand operands[2];
  bool sim, chord;
  std::string_view label;
};
using K = Event::Kind;
constexpr EventSpec kEventTable[] = {
    {K::kJoin, "join", "<count>", {kNodes}, true, true, "scripted_join"},
    {K::kLeave, "leave", "<count>", {kNodes}, true, true, "scripted_leave"},
    {K::kCrash, "crash", "<count>", {kNodes}, true, true, "scripted_crash"},
    {K::kInjectUniform, "inject-uniform", "<tasks>", {kTasks}, true, false,
     "inject_uniform"},
    {K::kInjectHotspot, "inject-hotspot", "<tasks> <ring-fraction>",
     {kTasks, {kReal, "hotspot ring fraction"}}, true, false,
     "inject_hotspot"},
    {K::kSetChurn, "set churn", "<value>", {{kParam}}, true, false,
     "set_churn"},
    {K::kSetThreshold, "set threshold", "<value>", {{kParam}}, true, false,
     "set_threshold"},
    {K::kSetStrategy, "strategy", "<name>", {{kStrategy}}, true, false,
     "set_strategy"},
    {K::kFault, "fault", "<probability>",
     {{kFault, "fault kind"}, {kReal, "fault probability", 0, true}}, false,
     true, "set_fault"},
    // Every lookup routes messages through the ring.
    {K::kLookup, "lookup", "<count>",
     {{kCount, "lookup count", 10'000'000}}, false, true,
     "scripted_lookup"},
};
static_assert(std::size(kEventTable) == std::size_t(K::kLookup) + 1);

const EventSpec& spec_of(Event::Kind kind) {
  return *std::ranges::find(kEventTable, kind, &EventSpec::kind);
}

// The word after the first, or "": `churn` in `set churn`.
std::string_view second_word(std::string_view words) {
  const std::size_t space = words.find(' ');
  return space == std::string_view::npos ? "" : words.substr(space + 1);
}

// The names as usage text "a|b|c", or in prose "a or b", "a, b, or c".
template <typename Names, typename Proj = std::identity>
std::string alternatives(const Names& names, bool prose, Proj proj = {}) {
  const std::size_t n = std::size(names);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && !prose) out += '|';
    if (i > 0 && prose) out += n == 2 ? " or " : i + 1 < n ? ", " : ", or ";
    out += std::invoke(proj, names[i]);
  }
  return out;
}

// The index of `token` in `names`, or a failure naming them all.
template <typename Names, typename Proj = std::identity>
std::size_t expect_one_of(const Cursor& cur, std::string_view noun,
                          const std::string& token, const Names& names,
                          Proj proj = {}) {
  const auto it = std::ranges::find(names, token, proj);
  if (it == std::ranges::end(names)) {
    cur.fail("unknown " + std::string(noun) + " '" + token + "' (expected " +
             alternatives(names, true, proj) + ")");
  }
  return static_cast<std::size_t>(it - std::ranges::begin(names));
}

void parse_operand(const Cursor& cur, const EventSpec& spec,
                   const Operand& op, const std::string& token,
                   Event& event) {
  if (op.grammar == kCount) {
    event.count = parse_count(op.noun, token, op.max);
    if (event.count == 0 && !op.zero_ok) {
      cur.fail(std::string(spec.words) + " count must be >= 1");
    }
  } else if (op.grammar == kReal) {
    event.value = support::parse_number(op.noun, token);
    if (!(op.zero_ok ? event.value >= 0.0 : event.value > 0.0) ||
        event.value > 1.0) {
      cur.fail(std::string(op.noun) + " must be in " +
               (op.zero_ok ? "[" : "(") + "0, 1], got '" + token + "'");
    }
  } else if (op.grammar == kParam) {
    // Through the field, so `set churn x` reads x as the header `churn x`.
    const std::string_view key = second_word(spec.words);
    Params params;
    params.set(key, token);
    const auto value = sim::find_param_field(key)->load(params);
    event.count = value.n;
    event.value = value.x;
  } else {
    if (op.grammar == kStrategy && lb::find_strategy(token) == nullptr) {
      cur.fail("unknown strategy '" + token + "'");
    }
    if (op.grammar == kFault) {
      expect_one_of(cur, op.noun, token, kFaultKinds, &FaultKind::name);
    }
    event.text = token;
  }
}

// An event line.  Its first word picks the rows spelled with it; where
// those have a second word, it names the `Params` field to set.
Event parse_event(const Cursor& cur, const std::vector<std::string>& tokens,
                  Substrate substrate) {
  const EventSpec* spec = nullptr;  // the first row, or the one tokens[1] keys
  std::vector<std::string_view> keys;
  for (const EventSpec& row : kEventTable) {
    if (row.words.substr(0, row.words.find(' ')) != tokens[0]) continue;
    const std::string_view key = second_word(row.words);
    if (!spec || (tokens.size() > 1 && key == tokens[1])) spec = &row;
    if (!key.empty()) keys.push_back(key);
  }
  if (spec == nullptr) cur.fail("unknown event '" + tokens[0] + "'");

  const std::size_t words = keys.empty() ? 1 : 2;
  const std::size_t arity = spec->operands[1].grammar == kNone ? 1 : 2;
  if (tokens.size() != words + arity) {  // the usage text is for the message
    std::string usage = tokens[0] + ' ';
    if (words == 2) usage += alternatives(keys, false) + ' ';
    if (spec->operands[0].grammar == kFault) {
      usage += alternatives(kFaultKinds, false, &FaultKind::name) + ' ';
    }
    cur.expect_tokens(tokens, words + arity, usage + std::string(spec->usage));
  }
  if (words == 2) expect_one_of(cur, "parameter", tokens[1], keys);

  Event event{.kind = spec->kind, .text = "", .line = cur.line};
  for (std::size_t i = 0; i < arity; ++i) {
    parse_operand(cur, *spec, spec->operands[i], tokens[words + i], event);
  }
  if (!(substrate == Substrate::kSim ? spec->sim : spec->chord)) {
    cur.fail("event '" + std::string(spec->words) + "' is not valid on the " +
             std::string(kSubstrates[static_cast<int>(substrate)]) +
             " substrate");
  }
  return event;
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
  Block block;
  std::uint64_t last_at_tick = 0;

  // Lines end at '\n' as std::getline reads them: a final newline opens
  // no extra line, and a '\r' before it is whitespace to tokenize.
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = std::min(text.find('\n', pos), text.size());
    const std::string_view raw = text.substr(pos, newline - pos);
    pos = newline + 1;
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
        // An `until` of 0 is the internal "open-ended" sentinel; accepting
        // it would silently stretch the block to the horizon instead of
        // meaning "never fires", so both bounds reject 0.
        for (const auto& [word, bound] : {std::pair{"from", &Block::from},
                                          std::pair{"until", &Block::until}}) {
          if (i == tokens.size() || tokens[i] != word) continue;
          const std::string noun = std::string(word) + " tick";
          block.*bound = parse_count(noun, tokens[i + 1], kMaxScriptTicks);
          if (block.*bound == 0) cur.fail(noun + " must be >= 1");
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
      // The horizon header, if any, came before the first block.
      const std::uint64_t first = block.recurring ? block.from : block.at;
      if (script.horizon != 0 && first > script.horizon) {
        cur.fail("block starts at tick " + std::to_string(first) +
                 ", beyond the ticks horizon " +
                 std::to_string(script.horizon));
      }
      if (block.recurring && block.until == 0 && script.horizon == 0) {
        cur.fail("every block needs 'until' (or a 'ticks' horizon) so the "
                 "scenario can end");
      }
      if (block.recurring && block.until == 0) block.until = script.horizon;
      in_block = true;
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
      block.events.push_back(parse_event(cur, tokens, script.substrate));
      continue;
    }

    // Header line.
    if (!script.blocks.empty()) {
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
      cur.expect_tokens(tokens, 2,
                        "substrate " + alternatives(kSubstrates, false));
      script.substrate = static_cast<Substrate>(
          expect_one_of(cur, "substrate", tokens[1], kSubstrates));
    } else if (head == "seed") {
      cur.expect_tokens(tokens, 2, "seed <u64>");
      script.seed = parse_count("seed", tokens[1]);
      script.seed_set = true;
    } else if (head == "ticks") {
      cur.expect_tokens(tokens, 2, "ticks <horizon>");
      script.horizon = parse_count("tick horizon", tokens[1], kMaxScriptTicks);
    } else if (head == "strategy") {
      // Read as the `strategy` event; chord rejects the key below.
      script.strategy = parse_event(cur, tokens, Substrate::kSim).text;
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
    if (script.params.initial_nodes > chord::kMaxBootstrapNodes) {
      fail_at(header_lines.at("nodes"),
              "nodes " + std::to_string(script.params.initial_nodes) +
                  " exceeds the chord bootstrap limit " +
                  std::to_string(chord::kMaxBootstrapNodes));
    }
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
  const EventSpec& spec = spec_of(event.kind);
  std::string out(spec.words);
  for (const Operand& op : spec.operands) {
    if (op.grammar == kNone) break;
    out += ' ';
    if (op.grammar == kCount) {
      out += std::to_string(event.count);
    } else if (op.grammar == kReal) {
      out += support::format_real(event.value);
    } else if (op.grammar == kParam) {
      Params params;
      const std::string_view key = second_word(spec.words);
      sim::find_param_field(key)->store(params, {event.count, event.value});
      out += params.format(key);
    } else {
      out += event.text;
    }
  }
  return out;
}

std::string_view trace_label(Event::Kind kind) { return spec_of(kind).label; }

std::span<const FaultKind> fault_kinds() { return kFaultKinds; }

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
