"""Framework shared by every bfpp-lint pass: findings, allowlists,
comment stripping and the pass registry. See __init__.py for the
package overview. Stdlib only."""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from typing import Callable, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic: a violated invariant at a source location."""
    path: str        # repo-root-relative, posix separators
    line: int        # 1-based; 0 when the finding is file- or repo-level
    message: str
    source: str = ""  # the offending source line, when there is one

    def render(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        out = f"{where}: {self.message}"
        if self.source:
            out += f"\n    {self.source}"
        return out


class LintError(Exception):
    """A pass could not run at all (missing input file, bad allowlist).

    Distinct from findings: a finding means the invariant is violated,
    a LintError means the pass could not check it. Both fail the run.
    """


@dataclasses.dataclass(frozen=True)
class Pass:
    name: str
    description: str
    run: Callable[[Path], list[Finding]]  # repo root -> findings
    # Allowlist file (repo-root-relative) consulted by the framework:
    # `path:substring` lines suppress findings whose path matches and
    # whose source line contains the substring. None = no allowlist.
    allowlist: str | None = None


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Blanks out // and /* */ comments and string/char literal bodies,
    preserving line structure, so regex passes never match inside either.
    keep_strings keeps string literal bodies verbatim, for passes that
    look inside them.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif text[i] in "\"'":
            quote = text[i]
            keep = keep_strings and quote == '"'
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(text[i:i + 2] if keep else "..")
                    i += 2
                else:
                    out.append(text[i] if keep or text[i] == "\n" else ".")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def source_files(root: Path, subdir: str = "src",
                 suffixes: tuple[str, ...] = (".h", ".cpp")) -> list[Path]:
    base = root / subdir
    if not base.is_dir():
        return []
    return [p for p in sorted(base.rglob("*")) if p.suffix in suffixes]


def read_required(root: Path, rel: str) -> str:
    path = root / rel
    if not path.exists():
        raise LintError(f"required input {rel} does not exist under {root}")
    return path.read_text(encoding="utf-8")


def load_allowlist(path: Path) -> list[tuple[str, str]]:
    """Parses `path:substring` lines; '#' starts a comment (a trailing
    justification is encouraged - see the file headers)."""
    entries: list[tuple[str, str]] = []
    if not path.exists():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = "" if raw.lstrip().startswith("#") else \
            raw.split("#", 1)[0].strip()
        if not line:
            continue
        file_part, _, substring = line.partition(":")
        if not substring.strip():
            raise LintError(
                f"{path.name}: malformed allowlist entry {line!r} "
                "(want path:substring  # justification)")
        entries.append((file_part.strip(), substring.strip()))
    return entries


def apply_allowlist(findings: Iterable[Finding],
                    entries: list[tuple[str, str]],
                    allowlist_name: str) -> list[Finding]:
    """Filters allowlisted findings; stale entries become findings
    themselves, so the allowlist can only shrink back to empty."""
    used: set[tuple[str, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for entry in entries:
            if entry[0] == finding.path and entry[1] in finding.source:
                used.add(entry)
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)
    for entry in entries:
        if entry not in used:
            kept.append(Finding(
                path=allowlist_name, line=0,
                message=f"stale allowlist entry (matched nothing): "
                        f"{entry[0]}:{entry[1]}"))
    return kept


def run_pass(p: Pass, root: Path) -> list[Finding]:
    findings = p.run(root)
    if p.allowlist is not None:
        entries = load_allowlist(root / p.allowlist)
        findings = apply_allowlist(findings, entries, p.allowlist)
    return findings


def all_passes() -> list[Pass]:
    from passes import determinism, enum_sync, lock_order, wire_stability
    return [
        wire_stability.PASS,
        enum_sync.PASS,
        lock_order.PASS,
        determinism.PASS,
    ]


def main_run(root: Path, pass_names: list[str] | None = None) -> int:
    passes = all_passes()
    if pass_names:
        by_name = {p.name: p for p in passes}
        unknown = [n for n in pass_names if n not in by_name]
        if unknown:
            print(f"bfpp-lint: unknown pass(es): {', '.join(unknown)} "
                  f"(have: {', '.join(by_name)})", file=sys.stderr)
            return 2
        passes = [by_name[n] for n in pass_names]
    failed = False
    for p in passes:
        try:
            findings = run_pass(p, root)
        except LintError as e:
            print(f"bfpp-lint[{p.name}]: ERROR: {e}", file=sys.stderr)
            failed = True
            continue
        if findings:
            failed = True
            print(f"bfpp-lint[{p.name}]: FAIL "
                  f"({len(findings)} finding(s))", file=sys.stderr)
            for finding in findings:
                print(finding.render(), file=sys.stderr)
        else:
            print(f"bfpp-lint[{p.name}]: OK")
    return 1 if failed else 0
