"""enum-sync: the schedule zoo and backend surface stay plumbed
end-to-end.

Adding a schedule family touches an enum (parallel::ScheduleKind), two
string tables (to_string + the parse_* alias table), the `bfpp help`
text, and the token lists in docs/PROTOCOL.md and docs/SCHEDULES.md.
Any one of those forgotten leaves a family that parses but does not
print, or prints but cannot be requested over the wire. This pass makes
the drift a CI failure:

  1. every enumerator of ScheduleKind / DpSharding / Backend has a
     `case` in its to_string switch and is returned by at least one
     alias in its parse_* function;
  2. for every ScheduleKind and Backend enumerator, at least one of its
     parse aliases appears (token-delimited) in the `bfpp help` text
     and in docs/PROTOCOL.md;
  3. docs/SCHEDULES.md has exactly one `## `-level family section per
     family (heading format: ## `token` - title), each heading token a
     known parse alias, with no orphan sections.
"""
from __future__ import annotations

import re
from pathlib import Path

from core import Finding, LintError, Pass, read_required, strip_comments

NAME = "enum-sync"

CONFIG_H = "src/parallel/config.h"
CONFIG_CPP = "src/parallel/config.cpp"
ENGINE_H = "src/api/engine.h"
ENGINE_CPP = "src/api/engine.cpp"
CLI_CPP = "src/api/cli.cpp"
PROTOCOL_MD = "docs/PROTOCOL.md"
SCHEDULES_MD = "docs/SCHEDULES.md"


def _enumerators(clean: str, enum_name: str, rel: str) -> list[str]:
    m = re.search(rf"\benum\s+class\s+{enum_name}\s*(?::[^{{]*)?{{([^}}]*)}}",
                  clean, re.S)
    if m is None:
        raise LintError(f"{rel}: enum class {enum_name} not found")
    names = []
    for part in m.group(1).split(","):
        part = part.split("=")[0].strip()
        if part:
            names.append(part)
    return names


def _switch_cases(clean: str, enum_name: str) -> set[str]:
    return set(re.findall(rf"\bcase\s+{enum_name}::(\w+)\s*:", clean))


def _parse_aliases(raw: str, fn_name: str, enum_name: str,
                   rel: str) -> dict[str, list[str]]:
    """enumerator -> alias literals from a parse_* function body: each
    `s == "alias"` comparison feeds the next `return E::enumerator`."""
    m = re.search(rf"\b{fn_name}\s*\([^)]*\)\s*{{", raw)
    if m is None:
        raise LintError(f"{rel}: {fn_name}() definition not found")
    depth, i = 0, raw.index("{", m.end() - 1)
    start = i
    while i < len(raw):
        if raw[i] == "{":
            depth += 1
        elif raw[i] == "}":
            depth -= 1
            if depth == 0:
                break
        i += 1
    body = raw[start:i]

    aliases: dict[str, list[str]] = {}
    pending: list[str] = []
    token = re.compile(
        rf'==\s*"([\w-]+)"|return\s+{enum_name}::(\w+)\s*;')
    for tm in token.finditer(body):
        if tm.group(1) is not None:
            pending.append(tm.group(1))
        else:
            aliases.setdefault(tm.group(2), []).extend(pending)
            pending = []
    return aliases


def _string_literal_text(raw: str) -> str:
    """Concatenation of every string literal in a source region (used on
    cli.cpp's usage function, a single giant literal)."""
    return "\n".join(re.findall(r'"((?:[^"\\]|\\.)*)"', raw))


def _has_token(text: str, token: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(token)}(?![\w-])",
                     text) is not None


def _any_alias_present(text: str, aliases: list[str]) -> bool:
    return any(_has_token(text, a) for a in aliases)


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []

    config_h = strip_comments(read_required(root, CONFIG_H))
    engine_h = strip_comments(read_required(root, ENGINE_H))
    config_cpp = read_required(root, CONFIG_CPP)
    engine_cpp = read_required(root, ENGINE_CPP)
    cli_cpp = read_required(root, CLI_CPP)
    protocol = read_required(root, PROTOCOL_MD)
    schedules_md = read_required(root, SCHEDULES_MD)

    kinds = _enumerators(config_h, "ScheduleKind", CONFIG_H)
    shardings = _enumerators(config_h, "DpSharding", CONFIG_H)
    backends = _enumerators(engine_h, "Backend", ENGINE_H)

    # (1) to_string switches and parse alias tables are exhaustive.
    for enum_name, enumerators, raw, rel in [
            ("ScheduleKind", kinds, config_cpp, CONFIG_CPP),
            ("DpSharding", shardings, config_cpp, CONFIG_CPP),
            ("Backend", backends, engine_cpp, ENGINE_CPP)]:
        cases = _switch_cases(strip_comments(raw), enum_name)
        for e in enumerators:
            if e not in cases:
                findings.append(Finding(
                    rel, 0,
                    f"{enum_name}::{e} has no case in to_string() - the "
                    "enumerator would print as the fallback",
                    source=f"{enum_name}::{e}"))
    parse_specs = [
        ("ScheduleKind", kinds, "parse_schedule_kind", config_cpp,
         CONFIG_CPP),
        ("DpSharding", shardings, "parse_sharding", config_cpp, CONFIG_CPP),
        ("Backend", backends, "parse_backend", engine_cpp, ENGINE_CPP),
    ]
    alias_tables: dict[str, dict[str, list[str]]] = {}
    for enum_name, enumerators, fn, raw, rel in parse_specs:
        aliases = _parse_aliases(raw, fn, enum_name, rel)
        alias_tables[enum_name] = aliases
        for e in enumerators:
            if not aliases.get(e):
                findings.append(Finding(
                    rel, 0,
                    f"{enum_name}::{e} is never returned by {fn}() - the "
                    "enumerator cannot be requested by name anywhere "
                    "(CLI, wire protocol, describe() round-trip)",
                    source=f"{enum_name}::{e}"))

    # (2) user-facing token lists: bfpp help + PROTOCOL.md must mention
    # at least one parse alias of every schedule family and backend.
    usage_m = re.search(r"cli_usage\(\)\s*{", cli_cpp)
    if usage_m is None:
        raise LintError(f"{CLI_CPP}: cli_usage() not found")
    help_text = _string_literal_text(cli_cpp[usage_m.start():])
    for enum_name, enumerators, surface_label in [
            ("ScheduleKind", kinds, "schedule family"),
            ("Backend", backends, "backend")]:
        for e in enumerators:
            aliases = alias_tables[enum_name].get(e, [])
            if not aliases:
                continue  # already reported in (1)
            if not _any_alias_present(help_text, aliases):
                findings.append(Finding(
                    CLI_CPP, 0,
                    f"{surface_label} {enum_name}::{e} (aliases: "
                    f"{', '.join(aliases)}) is absent from the bfpp help "
                    "text",
                    source=f"{enum_name}::{e}"))
            if not _any_alias_present(protocol, aliases):
                findings.append(Finding(
                    PROTOCOL_MD, 0,
                    f"{surface_label} {enum_name}::{e} (aliases: "
                    f"{', '.join(aliases)}) is absent from "
                    "docs/PROTOCOL.md",
                    source=f"{enum_name}::{e}"))

    # (3) docs/SCHEDULES.md: one `## \`token\` -` section per family.
    headings = re.findall(r"^##\s+`([^`]+)`", schedules_md, re.M)
    family_of_heading: dict[str, str] = {}
    for tok in headings:
        owners = [e for e, al in alias_tables["ScheduleKind"].items()
                  if tok in al]
        if not owners:
            findings.append(Finding(
                SCHEDULES_MD, 0,
                f"section heading token `{tok}` is not a known schedule "
                "alias (orphan section, or the alias table lost it)",
                source=f"## `{tok}`"))
        else:
            family_of_heading[owners[0]] = tok
    for e in kinds:
        if e not in family_of_heading:
            findings.append(Finding(
                SCHEDULES_MD, 0,
                f"no `## \\`token\\`` section documents "
                f"ScheduleKind::{e} (aliases: "
                f"{', '.join(alias_tables['ScheduleKind'].get(e, []))})",
                source=f"ScheduleKind::{e}"))
    counts: dict[str, int] = {}
    for tok in headings:
        counts[tok] = counts.get(tok, 0) + 1
    for tok, n in counts.items():
        if n > 1:
            findings.append(Finding(
                SCHEDULES_MD, 0,
                f"family section `{tok}` appears {n} times",
                source=f"## `{tok}`"))
    return findings


PASS = Pass(
    name=NAME,
    description="ScheduleKind/DpSharding/Backend enumerators vs "
                "to_string, parse aliases, bfpp help and doc token lists",
    run=run,
)
