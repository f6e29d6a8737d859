#!/usr/bin/env python3
"""Fail on library functions that no shipped binary calls.

Usage: tools/check_test_only.py LIBRARY BINARY_OR_DIR...

LIBRARY is libbfpp.a; each BINARY_OR_DIR is a shipped executable (a
bench, an example, the `bfpp` CLI, perfbench) or a directory whose
executables are all taken. Every global function LIBRARY defines must
survive the link of at least one of them, unless the allowlist names it.

The probe only means something on a build where the linker may drop
what nothing calls and inlining hides no caller:

  -O0 (CMAKE_BUILD_TYPE=Debug),
  CXXFLAGS  -ffunction-sections -fdata-sections,
  LDFLAGS   -Wl,--gc-sections.

It refuses a LIBRARY compiled without per-function sections, where the
linker keeps whole objects and the probe would pass vacuously.

std:: and __gnu_cxx:: instantiations are not the project's code and are
ignored. test_only_allowlist.txt, next to this script, holds the
functions kept on purpose in bfpp-lint's allowlist format
(tools/bfpp_lint/core.py): `libbfpp.a:<substring of the demangled
name>`, then `# reason`. An entry the probe no longer reports is an
error too, so the list cannot go stale. Exits 1 listing every problem,
with demangled names. Needs binutils (nm, c++filt, objdump); stdlib
only.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).with_name("bfpp_lint")))
from core import Finding, apply_allowlist, load_allowlist  # noqa: E402

ALLOWLIST = Path(__file__).with_name("test_only_allowlist.txt")

# Function symbols: text, global or weak (nm letters).
FUNCTION_TYPES = set("TtWw")
# Mangled names under std:: (St, and the Sa/Sb/Ss/Si/So/Sd abbreviations)
# or __gnu_cxx::, with or without a nested-name and cv/ref qualifiers.
STD_RE = re.compile(r"^_Z(N[KVrRO]*)?(S[tabsiod]|9__gnu_cxx)")


def defined_functions(path: Path, extern_only: bool) -> set[str]:
    args = ["nm", "--defined-only"]
    if extern_only:
        args.append("--extern-only")
    out = subprocess.run(
        args + [str(path)], check=True, capture_output=True, text=True
    ).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        # "<address> <type> <name>"; archive member headers have no type.
        if len(parts) == 3 and parts[1] in FUNCTION_TYPES:
            names.add(parts[2])
    return names


def demangle(names: list[str]) -> list[str]:
    out = subprocess.run(
        ["c++filt"], input="\n".join(names) + "\n", check=True,
        capture_output=True, text=True,
    ).stdout
    return out.splitlines()[: len(names)]


def has_function_sections(library: Path) -> bool:
    out = subprocess.run(
        ["objdump", "-h", str(library)], check=True, capture_output=True,
        text=True,
    ).stdout
    return re.search(r"\s\.text\._Z", out) is not None


def executables(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        candidates = sorted(path.iterdir()) if path.is_dir() else [path]
        found.extend(
            p for p in candidates if p.is_file() and os.access(p, os.X_OK)
        )
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    library = Path(argv[1])
    if not has_function_sections(library):
        print(
            f"{library}: no per-function sections; rebuild with "
            "-ffunction-sections -fdata-sections at -O0 and link with "
            "-Wl,--gc-sections",
            file=sys.stderr,
        )
        return 2
    binaries = executables(argv[2:])
    if not binaries:
        print("no executables among " + " ".join(argv[2:]), file=sys.stderr)
        return 2

    kept = set()
    for binary in binaries:
        kept |= defined_functions(binary, extern_only=False)
    unused = sorted(
        name
        for name in defined_functions(library, extern_only=True) - kept
        if not STD_RE.match(name)
    )
    findings = [
        Finding(path=library.name, line=0,
                message="only tests call this (or nothing does)",
                source=name)
        for name in (demangle(unused) if unused else [])
    ]
    entries = load_allowlist(ALLOWLIST)
    problems = apply_allowlist(findings, entries, ALLOWLIST.name)
    for problem in problems:
        print(problem.render(), file=sys.stderr)
    if problems:
        return 1
    print(
        f"{len(binaries)} binaries keep every function of {library} "
        f"but the {len(entries)} allowlisted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
