"""wire-stability: every serialized field survives every surface.

The serve ReportCache persists Reports across restarts and answers
warm requests byte-identically from the snapshot; tests byte-diff
to_json/to_csv output against golden files. A struct field that is
added (or renamed) in one emitter but silently dropped from another is
exactly the bug class that breaks warm-restart byte-identity - the
field would vanish on the reload path while every in-memory path still
carries it.

For every struct in src/ declaring a `to_wire`/`from_wire` pair this
pass checks, by parsing the header and the implementation:

  1. every non-static data member of the struct is emitted by
     to_wire() as a `"name":` key, in declaration order;
  2. from_wire() reads back every key to_wire() emits (no silent drop
     on the reload path) and reads nothing to_wire() never wrote;
  3. [api::Report only] every member also reaches the two display
     emitters: to_json() as a key and csv_header() as one or more
     columns, via the surface map below. Compound members (config,
     result, ...) flatten into named CSV columns; members deliberately
     absent from a surface must be listed in EXEMPT_WHY with the
     reason.

The surface map is part of the invariant: adding a Report field
without extending the map (and therefore consciously deciding how it
reaches JSON and CSV) fails CI.
"""
from __future__ import annotations

import re
from pathlib import Path

from core import Finding, LintError, Pass, strip_comments, source_files

NAME = "wire-stability"

# ---- api::Report surface map -------------------------------------------
#
# member -> (json key or None-if-exempt, [csv columns] or None-if-exempt)
# A None entry must have a justification in EXEMPT_WHY. Every key/column
# listed here must exist in the corresponding emitter, and every
# csv_header() column must be claimed by exactly one member.
REPORT_SURFACES: dict[str, tuple[str | None, list[str] | None]] = {
    "scenario":   ("scenario",   ["scenario"]),
    "model":      ("model",      ["model"]),
    "cluster":    ("cluster",    ["cluster"]),
    "method":     ("method",     ["method"]),
    "n_gpus":     ("n_gpus",     ["n_gpus"]),
    "batch_size": ("batch_size", ["batch_size"]),
    "found":      ("found",      ["found"]),
    "error":      ("error",      ["error"]),
    "config":     ("config",     ["schedule", "sharding", "n_pp", "n_tp",
                                  "n_dp", "s_mb", "n_mb", "n_loop",
                                  "overlap_dp", "overlap_pp"]),
    "result":     ("result",     ["batch_time_s", "throughput_per_gpu",
                                  "utilization", "compute_idle_fraction"]),
    "memory":     ("memory",     ["memory_total_bytes"]),
    "memory_min": ("memory_min", ["memory_min_total_bytes"]),
    "evaluated":  ("evaluated",  ["evaluated"]),
    "infeasible": ("infeasible", ["infeasible"]),
    "frugal":     ("frugal",     None),
}
# Derived values the emitters add beyond struct members.
REPORT_EXTRA_JSON = {"beta", "search"}   # beta is computed; search wraps
REPORT_EXTRA_CSV = {"beta"}
EXEMPT_WHY = {
    ("frugal", "csv"): "search-only nested block; the CSV schema is flat "
                       "per-row and sweeps never fill frugal",
}


def _matched_braces(text: str, open_index: int) -> int:
    """Index of the brace closing the one at `open_index`, or -1."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _struct_body(clean: str, struct_name: str) -> str | None:
    m = re.search(rf"\bstruct\s+{struct_name}\s*{{", clean)
    if m is None:
        return None
    start = clean.index("{", m.start())
    end = _matched_braces(clean, start)
    if end == -1:
        return None
    return clean[start + 1:end]


def _struct_members(body: str) -> list[str]:
    """Non-static data members of a struct body (comment-stripped), in
    declaration order. Nested struct definitions and inline method
    bodies are skipped via brace tracking."""
    members: list[str] = []
    inner = 0
    for line in body.splitlines():
        stripped = line.strip()
        open_delta = line.count("{") - line.count("}")
        if inner > 0:
            inner += open_delta
            continue
        if open_delta > 0:       # nested struct / inline method body opens
            inner += open_delta
            continue
        # A data member: `Type name = init;` or `Type name;` - name is
        # the last identifier before `;`, `=` or a brace initializer.
        dm = re.match(
            r"(?!using\b|typedef\b|static\b|friend\b|enum\b|public|private)"
            r"[\w:<>,&*\s]+?[&*\s]"
            r"(\w+)\s*(?:=[^;]*|\{[^;]*\})?;\s*$", stripped)
        if dm and "(" not in stripped.split("=")[0]:
            members.append(dm.group(1))
    return members


def _function_body(text: str, signature_re: str) -> str | None:
    """Brace-matched body of the first function definition matching
    `signature_re` (the pattern must reach the opening brace)."""
    m = re.search(signature_re, text)
    if m is None:
        return None
    start = text.index("{", m.end() - 1)
    end = _matched_braces(text, start)
    if end == -1:
        return None
    return text[start + 1:end]


_KEY = re.compile(r'\\"(\w+)\\":')
# from_wire read sites: wire_field(value, "k"), wire_doubles(v, "k", n),
# result_from_wire(value, "k"), memory_from_wire(*frugal, "k"), ...
_WIRE_READ = re.compile(r'\w*wire\w*\(\s*[*&]?\w+\s*,\s*"(\w+)"')
_GET_READ = re.compile(r'\.get\(\s*"(\w+)"\s*\)')


def _emitted_keys(body: str) -> list[str]:
    """JSON keys a hand-rolled emitter writes, in emission order: the
    codebase idiom is `"\\"key\\":" + ...` string concatenation."""
    seen: list[str] = []
    for m in _KEY.finditer(body):
        if m.group(1) not in seen:
            seen.append(m.group(1))
    return seen


def _read_keys(body: str) -> set[str]:
    keys = set(_WIRE_READ.findall(body))
    keys.update(_GET_READ.findall(body))
    return keys


def _csv_columns(raw_cpp: str) -> list[str] | None:
    m = re.search(r"csv_header\(\)\s*{\s*return\s*((?:\"[^\"]*\"\s*)+);",
                  raw_cpp)
    if m is None:
        return None
    text = "".join(re.findall(r'"([^"]*)"', m.group(1)))
    return [c for c in text.split(",") if c]


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    pairs_found = 0
    for header in source_files(root, "src", suffixes=(".h",)):
        text = header.read_text(encoding="utf-8")
        if "to_wire" not in text or "from_wire" not in text:
            continue
        clean_header = strip_comments(text)
        for sm in re.finditer(r"\bstruct\s+(\w+)\s*{", clean_header):
            name = sm.group(1)
            body = _struct_body(clean_header, name)
            if body is None:
                continue
            # The pair must be declared in this struct's own body (a
            # nested helper struct does not inherit the obligation).
            top = re.sub(r"{[^{}]*}", "", body)  # drop one nesting level
            if "to_wire" not in top or "from_wire" not in top:
                continue
            members = _struct_members(body)
            pairs_found += 1
            rel = header.relative_to(root).as_posix()
            cpp = header.with_suffix(".cpp")
            if not cpp.exists():
                findings.append(Finding(rel, 0,
                                        f"struct {name} declares "
                                        "to_wire/from_wire but no "
                                        "implementation file was found"))
                continue
            raw_cpp = cpp.read_text(encoding="utf-8")
            findings.extend(_check_struct(
                name, members, rel,
                cpp.relative_to(root).as_posix(), raw_cpp))
    if pairs_found == 0:
        raise LintError("no struct with a to_wire/from_wire pair found "
                        "under src/ (the pass would be vacuous)")
    return findings


def _check_struct(name: str, members: list[str], header_rel: str,
                  cpp_rel: str, raw_cpp: str) -> list[Finding]:
    findings: list[Finding] = []
    # Key extraction must see string-literal bodies, so the emitter
    # bodies are taken from the *raw* text (strip_comments would blank
    # the very keys this pass checks).
    wire_body = _function_body(
        raw_cpp, rf"std::string\s+{name}::to_wire\(\)\s*const\s*{{")
    from_body = _function_body(
        raw_cpp, rf"{name}\s+{name}::from_wire\([^)]*\)\s*{{")
    if wire_body is None or from_body is None:
        findings.append(Finding(cpp_rel, 0,
                                f"{name}: to_wire()/from_wire() definition "
                                "not found (expected the codebase's "
                                "out-of-line definition idiom)"))
        return findings

    wire_keys = _emitted_keys(wire_body)
    read_keys = _read_keys(from_body)

    # (1) every member is emitted, in declaration order.
    for member in [m for m in members if m not in wire_keys]:
        findings.append(Finding(
            cpp_rel, 0,
            f"{name}::{member} is not emitted by to_wire() - a persisted "
            "cache entry would silently drop it",
            source=f"struct member '{member}' ({header_rel})"))
    emitted_members = [k for k in wire_keys if k in members]
    in_decl_order = [m for m in members if m in wire_keys]
    if emitted_members != in_decl_order:
        findings.append(Finding(
            cpp_rel, 0,
            f"{name}: to_wire() emits members out of declaration order "
            f"({emitted_members} vs {in_decl_order}) - wire bytes must be "
            "stable and predictable from the header"))

    # (2) from_wire reads exactly the emitted keys.
    for key in wire_keys:
        if key not in read_keys:
            findings.append(Finding(
                cpp_rel, 0,
                f"{name}: to_wire() emits \"{key}\" but from_wire() never "
                "reads it - the field dies on the warm-restart path",
                source=f'"{key}"'))
    for key in sorted(read_keys - set(wire_keys)):
        findings.append(Finding(
            cpp_rel, 0,
            f"{name}: from_wire() reads \"{key}\" which to_wire() never "
            "emits - the read can only ever fail or default",
            source=f'"{key}"'))

    # (3) Report only: the display surfaces.
    if name == "Report":
        findings.extend(_check_report_surfaces(members, cpp_rel, raw_cpp))
    return findings


def _check_report_surfaces(members: list[str], cpp_rel: str,
                           raw_cpp: str) -> list[Finding]:
    findings: list[Finding] = []
    for member in members:
        if member not in REPORT_SURFACES:
            findings.append(Finding(
                cpp_rel, 0,
                f"Report::{member} is missing from the wire-stability "
                "surface map (tools/bfpp_lint/passes/wire_stability.py): "
                "decide how it reaches to_json and the CSV and record it",
                source=f"struct member '{member}'"))
    for member in REPORT_SURFACES:
        if member not in members:
            findings.append(Finding(
                cpp_rel, 0,
                f"surface map lists Report::{member} but the struct has no "
                "such member - remove the stale map entry"))

    json_body = _function_body(
        raw_cpp, r"std::string\s+Report::to_json\([^)]*\)\s*const\s*{")
    if json_body is None:
        findings.append(Finding(cpp_rel, 0,
                                "Report::to_json() definition not found"))
        return findings
    json_keys = set(_emitted_keys(json_body))
    csv_cols = _csv_columns(raw_cpp)
    if csv_cols is None:
        findings.append(Finding(cpp_rel, 0,
                                "Report::csv_header() definition not found "
                                "(expected a single returned literal)"))
        return findings

    claimed: dict[str, str] = {}
    for member, (json_key, cols) in REPORT_SURFACES.items():
        if member not in members:
            continue  # already reported above
        if json_key is None:
            if (member, "json") not in EXEMPT_WHY:
                findings.append(Finding(
                    cpp_rel, 0,
                    f"Report::{member} is exempt from to_json but "
                    "EXEMPT_WHY has no justification"))
        elif json_key not in json_keys:
            findings.append(Finding(
                cpp_rel, 0,
                f"Report::{member} never reaches to_json() (expected key "
                f"\"{json_key}\")",
                source=f'"{json_key}"'))
        if cols is None:
            if (member, "csv") not in EXEMPT_WHY:
                findings.append(Finding(
                    cpp_rel, 0,
                    f"Report::{member} is exempt from the CSV but "
                    "EXEMPT_WHY has no justification"))
            continue
        for col in cols:
            if col not in csv_cols:
                findings.append(Finding(
                    cpp_rel, 0,
                    f"Report::{member} never reaches csv_header() "
                    f"(expected column \"{col}\")",
                    source=col))
            claimed[col] = member
    mapped_json = {k for k, _ in REPORT_SURFACES.values() if k}
    for key in sorted(json_keys - mapped_json - REPORT_EXTRA_JSON):
        findings.append(Finding(
            cpp_rel, 0,
            f"to_json() emits \"{key}\" which no surface-map entry claims "
            "- add it to the map (or REPORT_EXTRA_JSON if derived)",
            source=f'"{key}"'))
    for col in csv_cols:
        if col not in claimed and col not in REPORT_EXTRA_CSV:
            findings.append(Finding(
                cpp_rel, 0,
                f"csv_header() column \"{col}\" is claimed by no "
                "surface-map entry - add it (or REPORT_EXTRA_CSV if "
                "derived)",
                source=col))
    return findings


PASS = Pass(
    name=NAME,
    description="to_wire/from_wire/to_json/CSV field completeness and "
                "stable order for wire-format structs",
    run=run,
)
