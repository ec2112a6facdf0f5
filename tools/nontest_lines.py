#!/usr/bin/env python3
"""Counts non-test Rust lines, per crate.

A line counts when it is non-blank, sits in a `.rs` file under `crates/`
or `src/`, is outside any `tests/` or `benches/` directory, and is not
part of an item marked `#[cfg(test)]` (the attribute line, any further
attributes, and the item through its closing brace or semicolon).
Comments count: doc comments are part of the code a reader maintains.

Usage: python3 tools/nontest_lines.py [repo_root]   (default: the
parent of this script's directory). Prints one line per crate and a
total. Standard library only; it measures and never fails a build.
"""

import os
import sys

SKIP_DIRS = {"tests", "benches", "target"}
CFG_TEST = "#[cfg(test)]"


def brace_delta(line, state):
    """Net `{` minus `}` on `line`, ignoring braces inside comments,
    string literals and char literals. `state` carries an open block
    comment across lines; returns (delta, saw_semicolon, state)."""
    delta, semi, i, n = 0, False, 0, len(line)
    while i < n:
        if state == "block":
            end = line.find("*/", i)
            if end < 0:
                return delta, semi, state
            i, state = end + 2, None
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state, i = "block", i + 2
            continue
        if c == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            # A char literal ('x', '\n', '\u{..}'); otherwise a lifetime.
            if i + 2 < n and line[i + 1] == "\\":
                end = line.find("'", i + 2)
                i = end + 1 if end > 0 else i + 1
                continue
            if i + 2 < n and line[i + 2] == "'":
                i += 3
                continue
        if c == "{":
            delta += 1
        elif c == "}":
            delta -= 1
        elif c == ";":
            semi = True
        i += 1
    return delta, semi, state


def count_file(path):
    count = 0
    state = None
    # Test-item skipping: `pending` after #[cfg(test)] until the item
    # opens a brace or ends with `;`; then `depth` tracks its body.
    pending, depth = False, 0
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            delta, semi, state = brace_delta(line, state)
            if depth > 0:
                depth += delta
                continue
            if pending:
                if delta > 0:
                    pending, depth = False, delta
                elif semi:
                    pending = False
                continue
            if line.startswith(CFG_TEST):
                rest = line[len(CFG_TEST):].strip()
                if rest:
                    # Attribute and item on one line.
                    d, s, _ = brace_delta(rest, None)
                    if d > 0:
                        depth = d
                    elif not s:
                        pending = True
                else:
                    pending = True
                continue
            if line:
                count += 1
    return count


def crate_of(rel):
    parts = rel.split(os.sep)
    return "crates/" + parts[1] if parts[0] == "crates" else parts[0]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    totals = {}
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root)
                    key = crate_of(rel)
                    totals[key] = totals.get(key, 0) + count_file(path)
    width = max((len(k) for k in totals), default=5)
    for key in sorted(totals):
        print(f"{key:<{width}}  {totals[key]:>7}")
    print(f"{'total':<{width}}  {sum(totals.values()):>7}")


if __name__ == "__main__":
    main()
