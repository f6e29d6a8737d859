"""determinism: ban nondeterminism sources from the library.

Reports are byte-for-byte reproducible artifacts (the serve cache
persists them across runs, tests diff them, CI caches key on them), so
the library must not consult wall-clock time, the C PRNG, or hardware
entropy, and must not iterate an unordered container while emitting
output. Everything random flows through common/rng.h (seeded SplitMix64)
and everything emitted flows through deterministically ordered
containers (e.g. json::Value keeps insertion order in a vector).

Checks, over every *.h/*.cpp under src/:
  1. `rand(` / `srand(`            - use bfpp::Rng (common/rng.h)
  2. `time(nullptr)` variants      - timestamps do not belong in reports
  3. `std::random_device`          - hardware entropy defeats --seed
  4. range-for over a variable whose declaration says unordered_map /
     unordered_set - iteration order feeding an emitter would make
     output depend on the hash seed; use a vector or sort first
  5. a float printf conversion (%f, %.17g, %5.1e, ...) inside a string
     literal - printf prints the process locale's radix point, so
     doubles go through the to_chars formatter (common/strings.h)

Intentional exceptions go in tools/determinism_allowlist.txt; stale
entries fail the run.
"""
from __future__ import annotations

import re
from pathlib import Path

from core import Finding, Pass, source_files, strip_comments

NAME = "determinism"

ALLOWLIST = "tools/determinism_allowlist.txt"

# (human label, compiled pattern) for the simple line-level bans.
LINE_BANS = [
    ("rand()/srand() [use bfpp::Rng, common/rng.h]",
     re.compile(r"(?<![\w:])s?rand\s*\(")),
    ("time(nullptr/NULL/0) [no wall-clock in report paths]",
     re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")),
    ("std::random_device [hardware entropy defeats --seed]",
     re.compile(r"std\s*::\s*random_device")),
]

# Declarations like `std::unordered_map<K, V> name` capture `name` so the
# range-for scan below can recognize iteration over that variable.
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
DECL_NAME = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*"
    r"(\w+)\s*(?:[;={(,)]|$)")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*([\w.\->]+)\s*\)")

STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
# Matched after dropping `%%` (a literal percent sign) from the literal.
# No space flag, so prose such as "50% full" is not a conversion.
FLOAT_PRINTF = re.compile(
    r"%[-+#0]*(?:\d+|\*)?(?:\.(?:\d+|\*)?)?(?:hh|h|ll|l|L|j|z|t)?"
    r"[eEfFgGaA]")


def _file_findings(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    code_lines = strip_comments("\n".join(raw_lines) + "\n").splitlines()
    string_lines = strip_comments("\n".join(raw_lines) + "\n",
                                  keep_strings=True).splitlines()
    findings: list[Finding] = []

    unordered_vars: set[str] = set()
    for line in code_lines:
        if UNORDERED_DECL.search(line):
            for match in DECL_NAME.finditer(line):
                unordered_vars.add(match.group(1))

    for lineno, line in enumerate(code_lines, start=1):
        src = raw_lines[lineno - 1].strip() if lineno <= len(raw_lines) \
            else ""
        for label, pattern in LINE_BANS:
            if pattern.search(line):
                findings.append(Finding(rel, lineno, label, source=src))
        for match in STRING_LITERAL.finditer(string_lines[lineno - 1]):
            conversion = FLOAT_PRINTF.search(match.group(1).replace("%%", ""))
            if conversion:
                findings.append(Finding(
                    rel, lineno,
                    f"float printf conversion '{conversion.group(0)}' "
                    "[locale-dependent; use the to_chars formatter]",
                    source=src))
        for match in RANGE_FOR.finditer(line):
            target = match.group(1).split(".")[-1].split(">")[-1]
            if target in unordered_vars:
                findings.append(Finding(
                    rel, lineno,
                    f"range-for over unordered container '{target}' "
                    "[order feeds output; sort or use a vector]",
                    source=src))
    return findings


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in source_files(root):
        findings.extend(_file_findings(root, path))
    return findings


PASS = Pass(
    name=NAME,
    description="no rand()/wall-clock/std::random_device, range-for "
                "over unordered containers or float printf conversions "
                "in src/",
    run=run,
    allowlist=ALLOWLIST,
)
