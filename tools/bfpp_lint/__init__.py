"""bfpp-lint: project-invariant static analysis for the bfpp tree.

The repo's value proposition is byte-identical, deterministic
reproduction across backends, cache restarts and the schedule zoo. The
invariants that guarantee it used to live in comments and reviewer
memory; this package encodes them as independent, individually-testable
passes that fail CI:

  wire-stability   every field of a struct with a to_wire/from_wire
                   pair round-trips through both, and api::Report's
                   fields additionally appear in to_json and the CSV
                   header in a stable order (the silent-drop bug class
                   that would break warm-restart byte-identity)
  enum-sync        ScheduleKind / DpSharding / Backend
                   enumerators vs their to_string switches, parse_*
                   alias tables, the `bfpp help` text and the token
                   lists in docs/PROTOCOL.md + docs/SCHEDULES.md
  lock-order       nested lock acquisitions in src/ respect the order
                   documented in docs/CONCURRENCY.md, and every
                   documented pair is actually exercised
  determinism      no rand()/time(nullptr)/std::random_device,
                   range-for over unordered containers or float printf
                   conversions in src/

Everything is stdlib-only and driven off the source tree (plus
build/compile_commands.json for the analyzer driver in analyzers.py).
Run `python3 tools/bfpp_lint --help` for the CLI; `selftest` proves
each pass still distinguishes its good/bad fixture twins under
tests/lint_fixtures/.

Intentional exceptions go in per-pass allowlists (see allowlist.txt /
determinism_allowlist.txt): every entry names a path and a line
substring, and entries that no longer match anything fail the run, so
allowlists only ever shrink back to empty.
"""
