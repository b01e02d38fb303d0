#!/usr/bin/env python3
"""Checks the committed list of removed tests against the test suite.

Usage: python3 scripts/check_removed_tests.py [removed_tests.json]

The list is a JSON array of {"id", "reason", "renamed_to"} entries.
Test names follow `cargo test -- --list`, prefixed with the source of
the test target: `<target source>::<test path>` for unit and
integration tests (`src/lib.rs::dem::tests::...`), and
`doc::<file> - <item>` for doc tests; a ` - should panic` suffix, as
a test run prints it, is ignored. The script runs
`cargo test -- --list` from the repository root and fails if the list
does not parse, if a listed test still exists, or if a rename target
does not.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNING = re.compile(r"^\s*Running (?:unittests )?(\S+) \(")
DOC_TESTS = re.compile(r"^\s*Doc-tests ")
LINE_SUFFIX = re.compile(r" \(line \d+\)$")
SHOULD_PANIC = " - should panic"


def listed_tests():
    """Every test name the suite lists, in the removal list's format."""
    out = subprocess.run(
        ["cargo", "test", "--", "--list"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=True,
    ).stdout
    names, prefix = set(), None
    for line in out.splitlines():
        if m := RUNNING.match(line):
            prefix = m.group(1) + "::"
        elif DOC_TESTS.match(line):
            prefix = "doc::"
        elif line.endswith(": test") and prefix is not None:
            name = line[: -len(": test")]
            if prefix == "doc::":
                name = LINE_SUFFIX.sub("", name)
            names.add(prefix + name)
    return names


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "removed_tests.json"
    try:
        entries = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        sys.exit(f"{path}: {e}")
    if not isinstance(entries, list):
        sys.exit(f"{path}: expected a JSON array")
    for i, e in enumerate(entries):
        ok = (
            isinstance(e, dict)
            and isinstance(e.get("id"), str)
            and isinstance(e.get("reason"), str)
            and e["reason"].strip()
            and (e.get("renamed_to") is None or isinstance(e["renamed_to"], str))
        )
        if not ok:
            sys.exit(f"{path}: entry {i} needs a string id, a reason and renamed_to (string or null)")

    names = listed_tests()
    errors = []
    for e in entries:
        if e["id"].removesuffix(SHOULD_PANIC) in names:
            errors.append(f"still in the suite: {e['id']}")
        target = e.get("renamed_to")
        if target is not None and target.removesuffix(SHOULD_PANIC) not in names:
            errors.append(f"rename target missing: {target} (for {e['id']})")
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"{len(entries)} removed tests checked against {len(names)} listed tests")


if __name__ == "__main__":
    main()
