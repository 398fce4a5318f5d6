#!/usr/bin/env python3
"""Determinism linter: bans nondeterminism sources in golden-affecting code.

The repo's crown jewel is bit-exact reproduction: scenario goldens, bench
value baselines, and trace/metrics files must byte-compare across runs,
machines, and DHTLB_THREADS settings.  Golden diffs catch violations only
after the fact; this linter rejects the five nondeterminism *sources* at
review time, before they can reach an output path (plus one rule that
keeps hidden environment knobs out of library code):

  unordered-iteration  std::unordered_{map,set,...} — iteration order is
                       hash-seed- and libstdc++-version-dependent, so any
                       iteration that feeds output silently breaks goldens.
                       Membership-only uses are fine: annotate them.
  wall-clock           chrono *_clock::now() / time() / gettimeofday /
                       clock_gettime outside the telemetry wall-ms
                       allowlist (bench wall_ms is zeroed in deterministic
                       mode; simulation code must use the tick clock).
  raw-rand             std::rand / srand / std::random_device — unseeded
                       global entropy.  All randomness flows through
                       support::Rng streams derived from mix_seed.
  pointer-order        ordering or hashing keyed on pointer values
                       (std::map<T*,...>, std::hash<T*>, reinterpret_cast
                       to [u]intptr_t) — addresses vary run to run (ASLR).
  unseeded-rng         a <random> engine constructed without an explicit
                       seed: it silently uses the fixed default seed,
                       correlating streams that must be independent.
                       Seed explicitly from the trial's mix_seed stream.
  env-read             getenv / support::env_*() in library code (src/
                       only): a knob read there is invisible to Params,
                       .scn and the goldens.  Programs under bench/ and
                       examples/ read the environment and pass values in;
                       src/support/env.* is allowlisted as their helper.

Escape hatches, in preference order:
  1. inline, for a single audited line (or the line right after a
     comment-only line):   // dhtlb:lint-allow(<rule>[,<rule>...]) why...
  2. file-wide, for files whose whole job is the banned thing (e.g. the
     bench wall-clock timer): an entry in scripts/determinism_allowlist.txt
     of the form `<repo-relative-path>:<rule>`.

Engine: a comment/string-aware line scrubber plus per-rule regexes — no
clang tooling required, so the lint runs anywhere python3 runs.  When
python libclang bindings are importable, --use-libclang upgrades the
unordered-iteration rule from "any unordered container mention" to "a
range-for over an unordered container" (AST-confirmed iteration); the
regex engine remains the authoritative CI gate.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
`--self-test` proves every rule trips on an injected violation and that
both escape hatches suppress, mirroring compare_bench.py --self-test.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

SCAN_DIRS = ("src", "bench", "examples")
SCAN_EXTENSIONS = (".hpp", ".cpp", ".h")
ALLOW_RE = re.compile(r"dhtlb:lint-allow\(([a-z0-9,\- ]+)\)")

# rule name -> (compiled regex over scrubbed code, one-line message)
RULES = {
    "unordered-iteration": (
        re.compile(r"std::unordered_(map|set|multimap|multiset)\s*<"),
        "unordered container: iteration order can leak into goldens; use "
        "std::map / a sorted vector, or annotate a membership-only use",
    ),
    "wall-clock": (
        re.compile(
            r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now"
            r"\s*\(|\bgettimeofday\s*\(|\bclock_gettime\s*\("
            r"|\bstd::time\s*\(|(?<![\w:])time\s*\(\s*(NULL|nullptr|0)\s*\)"
        ),
        "wall-clock read outside the telemetry wall-ms allowlist; simulation "
        "code must derive time from the tick counter",
    ),
    "raw-rand": (
        re.compile(
            r"\bstd::rand\b|(?<![\w:])srand\s*\(|\brandom_device\b"
            r"|(?<![\w:.])rand\s*\(\s*\)"
        ),
        "raw C/global randomness; draw from a support::Rng stream seeded "
        "via mix_seed instead",
    ),
    "pointer-order": (
        re.compile(
            r"std::(map|set|multimap|multiset)\s*<[^<>,]*\*\s*[,>]"
            r"|std::hash\s*<[^<>]*\*\s*>"
            r"|reinterpret_cast\s*<\s*(std::)?u?intptr_t\s*>"
        ),
        "ordering/hashing keyed on pointer values; addresses vary run to "
        "run (ASLR) — key on stable ids instead",
    ),
    "unseeded-rng": (
        re.compile(
            r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux24(_base)?|ranlux48(_base)?|knuth_b)"
            r"\s+\w+\s*(;|\{\s*\})"
        ),
        "RNG engine constructed without an explicit seed (fixed default "
        "seed silently correlates streams); seed from mix_seed",
    ),
    "env-read": (
        re.compile(r"getenv\s*\(|\benv_\w+\s*\("),
        "environment read in library code; read the knob in the program "
        "(bench/, examples/) and pass it in through Params or a setter",
    ),
}

# Rules that apply only under some top-level directories (default: all
# of SCAN_DIRS).
RULE_DIRS = {"env-read": ("src",)}


def scrub_code(lines):
    """Returns lines with comments, string and char literals blanked.

    A small state machine good enough for this codebase: handles //, block
    comments spanning lines, escaped quotes.  Raw string literals are not
    specially handled (none in tree; contents would be scrubbed as a
    plain string until the closing quote).
    """
    scrubbed = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        state = "code" if not in_block else "block"
        while i < len(line):
            c = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if state == "code":
                if c == "/" and nxt == "/":
                    break  # rest of line is a comment
                if c == "/" and nxt == "*":
                    state = "block"
                    i += 2
                    continue
                if c == '"':
                    state = "string"
                    out.append(c)
                    i += 1
                    continue
                if c == "'":
                    state = "char"
                    out.append(c)
                    i += 1
                    continue
                out.append(c)
                i += 1
            elif state == "block":
                if c == "*" and nxt == "/":
                    state = "code"
                    i += 2
                else:
                    i += 1
            elif state in ("string", "char"):
                quote = '"' if state == "string" else "'"
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    state = "code"
                    out.append(c)
                i += 1
        in_block = state == "block"
        scrubbed.append("".join(out))
    return scrubbed


def inline_allows(lines):
    """Maps 1-based line number -> set of rules allowed on that line.

    An allow comment covers its own line; when the line holds nothing but
    the comment, it covers the next line too (so a long rationale can sit
    above the code it blesses).
    """
    allows = {}
    pending = {}
    code = scrub_code(lines)
    for idx, line in enumerate(lines, start=1):
        here = set(pending.pop(idx, ()))
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            unknown = rules - set(RULES)
            if unknown:
                raise ValueError(
                    f"line {idx}: unknown lint-allow rule(s): "
                    f"{', '.join(sorted(unknown))}"
                )
            here |= rules
            if not code[idx - 1].strip():  # comment-only line
                pending[idx + 1] = set(pending.get(idx + 1, ())) | rules
        if here:
            allows[idx] = here
    return allows


def load_allowlist(path, root):
    """Parses `<path>:<rule>` entries into {relpath: set(rules)}."""
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected <path>:<rule>")
            rel, rule = (part.strip() for part in line.rsplit(":", 1))
            if rule not in RULES:
                raise ValueError(f"{path}:{lineno}: unknown rule '{rule}'")
            if not os.path.exists(os.path.join(root, rel)):
                raise ValueError(
                    f"{path}:{lineno}: allowlisted file '{rel}' does not "
                    "exist (stale entry?)"
                )
            entries.setdefault(rel, set()).add(rule)
    return entries


def libclang_unordered_iteration_lines(path):
    """AST-confirmed iteration: 1-based lines of range-fors over unordered
    containers, or None when libclang is unusable for this file."""
    try:
        from clang import cindex  # noqa: PLC0415 — optional dependency
    except ImportError:
        return None
    try:
        tu = cindex.Index.create().parse(path, args=["-std=c++20"])
        lines = set()
        def walk(cursor):
            if cursor.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(cursor.get_children())
                if children and "unordered_" in children[0].type.spelling:
                    lines.add(cursor.location.line)
            for child in cursor.get_children():
                walk(child)
        walk(tu.cursor)
        return lines
    except Exception:  # noqa: BLE001 — any parse hiccup → regex fallback
        return None


def scan_file(path, rel, file_allows, use_libclang):
    """Returns a list of (rel, line_number, rule, source_line) findings."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    try:
        allows = inline_allows(lines)
    except ValueError as err:
        raise ValueError(f"{rel}: {err}") from err
    code = scrub_code(lines)

    ast_unordered = None
    if use_libclang:
        ast_unordered = libclang_unordered_iteration_lines(path)

    top_dir = rel.split("/", 1)[0]
    findings = []
    for lineno, stripped in enumerate(code, start=1):
        if not stripped.strip():
            continue
        for rule, (pattern, _msg) in RULES.items():
            if rule in file_allows or top_dir not in RULE_DIRS.get(
                    rule, SCAN_DIRS):
                continue
            if rule == "unordered-iteration" and ast_unordered is not None:
                hit = lineno in ast_unordered
            else:
                hit = pattern.search(stripped) is not None
            if hit and rule not in allows.get(lineno, ()):
                findings.append((rel, lineno, rule, lines[lineno - 1].strip()))
    return findings


def scan_tree(root, allowlist, use_libclang):
    findings = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SCAN_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                findings.extend(
                    scan_file(path, rel, allowlist.get(rel, set()),
                              use_libclang)
                )
    return findings


def report(findings):
    for rel, lineno, rule, line in findings:
        print(f"{rel}:{lineno}: [{rule}] {RULES[rule][1]}")
        print(f"    {line}")
    print(
        f"lint_determinism: {len(findings)} finding(s) — annotate audited "
        "lines with // dhtlb:lint-allow(<rule>) or extend "
        "scripts/determinism_allowlist.txt",
        file=sys.stderr,
    )


# ---------------------------------------------------------------- self-test

SELF_TEST_VIOLATIONS = {
    "unordered-iteration": (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> m;\n"
        "int f() { int s = 0; for (auto& [k, v] : m) s += v; return s; }\n"
    ),
    "wall-clock": (
        "#include <chrono>\n"
        "double f() { auto t = std::chrono::steady_clock::now();\n"
        "  return t.time_since_epoch().count(); }\n"
    ),
    "raw-rand": (
        "#include <cstdlib>\n"
        "int f() { return std::rand(); }\n"
    ),
    "pointer-order": (
        "#include <map>\n"
        "struct N {};\n"
        "std::map<N*, int> by_address;\n"
    ),
    "unseeded-rng": (
        "#include <random>\n"
        "int f() { std::mt19937 gen; return (int)gen(); }\n"
    ),
    "env-read": (
        "#include \"support/env.hpp\"\n"
        "std::size_t f() { return dhtlb::support::env_threads(); }\n"
        "const char* g() { return std::getenv(\"DHTLB_KNOB\"); }\n"
    ),
}


def self_test():
    failures = []

    def check(label, ok):
        print(f"self-test: {'ok' if ok else 'FAIL'} — {label}")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        os.makedirs(src)
        # 1. Every rule trips on its injected violation.
        for rule, body in SELF_TEST_VIOLATIONS.items():
            name = f"violation_{rule.replace('-', '_')}.cpp"
            with open(os.path.join(src, name), "w", encoding="utf-8") as fh:
                fh.write(body)
        findings = scan_tree(tmp, {}, use_libclang=False)
        tripped = {rule for (_f, _l, rule, _s) in findings}
        for rule in RULES:
            check(f"rule '{rule}' trips on an injected violation",
                  rule in tripped)
        # Each violation file must be flagged for its own rule.
        for rule in RULES:
            rel = f"src/violation_{rule.replace('-', '_')}.cpp"
            mine = [f for f in findings if f[0] == rel and f[2] == rule]
            check(f"finding for '{rule}' lands in {rel}", bool(mine))

        # 2. Inline allow comments suppress (same-line and comment-line).
        with open(os.path.join(src, "allowed.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(
                "#include <unordered_set>\n"
                "// membership-only probe set, never iterated —\n"
                "// dhtlb:lint-allow(unordered-iteration)\n"
                "std::unordered_set<int> seen;\n"
                "int g() { return std::rand(); }"
                "  // dhtlb:lint-allow(raw-rand) audited\n"
            )
        findings = scan_tree(tmp, {}, use_libclang=False)
        allowed = [f for f in findings if f[0] == "src/allowed.cpp"]
        check("inline dhtlb:lint-allow suppresses both comment styles",
              not allowed)

        # 3. File-wide allowlist entries suppress.
        with open(os.path.join(src, "timer.hpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(
                "#include <chrono>\n"
                "inline auto now() { return "
                "std::chrono::steady_clock::now(); }\n"
            )
        allow_path = os.path.join(tmp, "allow.txt")
        with open(allow_path, "w", encoding="utf-8") as fh:
            fh.write("# telemetry timer owns the wall clock\n"
                     "src/timer.hpp:wall-clock\n")
        allowlist = load_allowlist(allow_path, tmp)
        findings = scan_tree(tmp, allowlist, use_libclang=False)
        check("allowlist file suppresses file-wide",
              not [f for f in findings if f[0] == "src/timer.hpp"])

        # 4. Banned patterns inside comments and strings do NOT trip.
        with open(os.path.join(src, "comments.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(
                "// docs may mention std::random_device freely\n"
                "/* and std::unordered_map<int,int> in block\n"
                "   comments too */\n"
                'const char* kMsg = "std::rand() is banned";\n'
            )
        findings = scan_tree(tmp, {}, use_libclang=False)
        check("comments and string literals are scrubbed",
              not [f for f in findings if f[0] == "src/comments.cpp"])

        # 5. env-read is scoped to src/: programs may read the environment.
        bench = os.path.join(tmp, "bench")
        os.makedirs(bench)
        with open(os.path.join(bench, "main.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(SELF_TEST_VIOLATIONS["env-read"])
        findings = scan_tree(tmp, {}, use_libclang=False)
        check("env-read does not apply outside src/",
              not [f for f in findings if f[0] == "bench/main.cpp"])
        env_lines = {f[1] for f in findings
                     if f[0] == "src/violation_env_read.cpp"}
        check("env-read flags both getenv and support::env_*()",
              env_lines == {2, 3})

        # 6. Unknown rule names in an allow comment are an error.
        with open(os.path.join(src, "bad_allow.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write("int x;  // dhtlb:lint-allow(no-such-rule)\n")
        try:
            scan_tree(tmp, {}, use_libclang=False)
            check("unknown lint-allow rule rejected", False)
        except ValueError:
            check("unknown lint-allow rule rejected", True)
        os.remove(os.path.join(src, "bad_allow.cpp"))

    if failures:
        print(f"self-test: {len(failures)} check(s) FAILED", file=sys.stderr)
        return 1
    print("self-test: OK — every rule trips and every escape hatch holds")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="determinism linter over src/, bench/, and examples/")
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: script's parent)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             "<root>/scripts/determinism_allowlist.txt)")
    parser.add_argument("--use-libclang", action="store_true",
                        help="AST-confirm unordered-iteration findings via "
                             "python libclang when importable (falls back "
                             "to the regex engine per file)")
    parser.add_argument("--self-test", action="store_true",
                        help="prove every rule trips on an injected "
                             "violation, then exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    allow_path = args.allowlist or os.path.join(
        root, "scripts", "determinism_allowlist.txt")
    try:
        allowlist = load_allowlist(allow_path, root)
        findings = scan_tree(root, allowlist, args.use_libclang)
    except ValueError as err:
        print(f"lint_determinism: error: {err}", file=sys.stderr)
        return 2

    if findings:
        report(findings)
        return 1
    print("lint_determinism: OK — src/, bench/, examples/ are clean "
          f"({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
