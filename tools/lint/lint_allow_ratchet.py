#!/usr/bin/env python3
"""lint-allow ratchet: the escape-hatch budget only goes down.

Every `// lint-allow: <rule> (reason)` comment is a deliberate hole in a
lint rule. Individually each is justified; collectively they rot — new code
copies the comment instead of fixing the finding. This checker counts the
allows per rule across the linted roots and compares against the committed
budget in lint_allow_budget.txt:

  * count > budget   -> FAIL. Fix the finding instead of suppressing it, or
                        (for a genuine new interop boundary) raise the budget
                        explicitly in the same commit and defend it in review.
  * count < budget   -> FAIL with a reminder to re-run with --write-budget:
                        the ratchet only ratchets if shrinkage is locked in.
  * count == budget  -> clean.

Usage:
  lint_allow_ratchet.py                 # check against the committed budget
  lint_allow_ratchet.py --write-budget  # rewrite budget from current counts

Stdlib only; no third-party dependencies.
"""

import pathlib
import re
import sys

ROOTS = ("src", "tests", "bench", "examples")
SUFFIXES = (".cc", ".h", ".cpp")
BUDGET_FILE = "lint_allow_budget.txt"

# Matches the rule name after "lint-allow:". Reasons in parentheses are
# free-form and not parsed.
ALLOW = re.compile(r"//\s*lint-allow:\s*([a-z][a-z0-9-]*)")


def count_allows(repo: pathlib.Path) -> dict:
    counts = {}
    for root in ROOTS:
        base = repo / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            for line in path.read_text().splitlines():
                m = ALLOW.search(line)
                if m:
                    counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    return counts


def read_budget(path: pathlib.Path) -> dict:
    budget = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rule, _, count = line.partition(" ")
        budget[rule] = int(count)
    return budget


HEADER = [
    "# lint-allow budget: max escape-hatch comments per lint rule.",
    "# Maintained by tools/lint/lint_allow_ratchet.py --write-budget.",
    "# Counts may only go DOWN; raising one requires an explicit edit",
    "# here, defended in review.",
]


def write_budget(path: pathlib.Path, counts: dict) -> None:
    """Rewrite the counts, keeping every comment line of an existing budget
    (the header and the defences of past raises) in its original order."""
    if path.is_file():
        lines = [raw for raw in path.read_text().splitlines()
                 if raw.lstrip().startswith("#")]
    else:
        lines = list(HEADER)
    for rule in sorted(counts):
        lines.append(f"{rule} {counts[rule]}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    repo = here.parent.parent
    budget_path = here / BUDGET_FILE
    counts = count_allows(repo)

    if "--write-budget" in sys.argv[1:]:
        write_budget(budget_path, counts)
        print(f"lint-allow budget written: {dict(sorted(counts.items()))}")
        return 0

    if not budget_path.is_file():
        print(
            f"lint-allow ratchet: {budget_path} missing - run with "
            f"--write-budget to create it",
            file=sys.stderr,
        )
        return 1

    budget = read_budget(budget_path)
    failed = 0
    for rule in sorted(set(counts) | set(budget)):
        have = counts.get(rule, 0)
        allowed = budget.get(rule, 0)
        if have > allowed:
            print(
                f"lint-allow ratchet: rule '{rule}' has {have} allows, "
                f"budget is {allowed}. Fix the finding instead of "
                f"suppressing it (or raise the budget explicitly in "
                f"tools/lint/{BUDGET_FILE} and defend it in review)."
            )
            failed = 1
        elif have < allowed:
            print(
                f"lint-allow ratchet: rule '{rule}' shrank to {have} "
                f"(budget {allowed}). Lock it in: re-run with "
                f"--write-budget and commit the new budget."
            )
            failed = 1
    if not failed:
        print(f"lint-allow ratchet: clean ({sum(counts.values())} allows)")
    return failed


if __name__ == "__main__":
    sys.exit(main())
