#!/usr/bin/env python3
"""Fixture tests for the project lint rules.

Each rule must (a) fire on a known-bad snippet and (b) stay silent when the
snippet carries a `// lint-allow: <rule> (reason)` escape. Without this, a
regex edit can silently stop a rule from matching anything and the lint
keeps reporting "clean" forever. Fixtures live in testdata/ with .bad/.ok
extensions so `git ls-files '*.cc'` (the format check) never picks them up.

Runs the lint modules in-process (they are plain stdlib python). Exit 0 on
success, 1 with per-case diagnostics on failure. Registered as the
`lint_rules` ctest under the `lint` label.
"""

import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import lint_allow_ratchet  # noqa: E402
import nondeterminism_lint  # noqa: E402
import unit_suffix_lint  # noqa: E402

TESTDATA = HERE / "testdata"
failures = []


def check(label, cond, detail=""):
    if cond:
        print(f"ok   {label}")
    else:
        print(f"FAIL {label} {detail}")
        failures.append(label)


def nd_rules(findings):
    return sorted({rule for _, rule, _ in findings})


# --- unit-suffix: fires once per bad declaration, silent on the ok file ---

bad = unit_suffix_lint.lint_file(TESTDATA / "unit_suffix.cc.bad")
check("unit-suffix fires on every bad decl", len(bad) == 8,
      f"(got {len(bad)}: {bad})")

ok = unit_suffix_lint.lint_file(TESTDATA / "unit_suffix.cc.ok")
check("unit-suffix silent on allows/ratios/members", not ok, f"(got {ok})")

# --- nondeterminism rules: each fires on its line, all silenced by allows ---

bad = nondeterminism_lint.lint_file(
    TESTDATA / "nondeterminism.cc.bad", pathlib.Path("src/fixture.cc"))
for rule in ("wall-clock", "libc-rand", "float-eq", "seed-arith"):
    check(f"{rule} fires on bad fixture", rule in nd_rules(bad),
          f"(fired: {nd_rules(bad)})")

ok = nondeterminism_lint.lint_file(
    TESTDATA / "nondeterminism.cc.ok", pathlib.Path("src/fixture.cc"))
check("nondeterminism rules silent under lint-allow", not ok, f"(got {ok})")

# --- const-cast: scoped to src/sim/ -- fires there, nowhere else ---

in_sim = nondeterminism_lint.lint_file(
    TESTDATA / "const_cast.cc.bad", pathlib.Path("src/sim/fixture.cc"))
check("const-cast fires under src/sim/", "const-cast" in nd_rules(in_sim),
      f"(fired: {nd_rules(in_sim)})")

outside = nondeterminism_lint.lint_file(
    TESTDATA / "const_cast.cc.bad", pathlib.Path("src/tcp/fixture.cc"))
check("const-cast silent outside src/sim/",
      "const-cast" not in nd_rules(outside), f"(fired: {nd_rules(outside)})")

# --- lint-allow ratchet: --write-budget keeps the budget's comment lines ---

with tempfile.TemporaryDirectory() as tmp:
    budget = pathlib.Path(tmp) / "lint_allow_budget.txt"
    budget.write_text(
        "# header line\n"
        "# wall-clock 1 -> 3: defended raise\n"
        "float-eq 4\n"
        "wall-clock 3\n")
    lint_allow_ratchet.write_budget(budget, {"float-eq": 2, "wall-clock": 3})
    written = budget.read_text().splitlines()
    check("ratchet --write-budget keeps comment lines",
          written[:2] == ["# header line",
                          "# wall-clock 1 -> 3: defended raise"],
          f"(got {written})")
    check("ratchet --write-budget rewrites the counts",
          lint_allow_ratchet.read_budget(budget) ==
          {"float-eq": 2, "wall-clock": 3},
          f"(got {written})")
    fresh = pathlib.Path(tmp) / "fresh.txt"
    lint_allow_ratchet.write_budget(fresh, {"float-eq": 1})
    check("ratchet --write-budget starts a new budget with the header",
          fresh.read_text().splitlines() ==
          lint_allow_ratchet.HEADER + ["float-eq 1"],
          f"(got {fresh.read_text()!r})")

# --- the real tree must be clean right now (guards against regex rot that
# *widens* a rule and floods the build with false positives) ---

check("unit-suffix lint clean on tree", unit_suffix_lint.main() == 0)
check("nondeterminism lint clean on tree", nondeterminism_lint.main() == 0)

if failures:
    print(f"\n{len(failures)} lint fixture case(s) failed", file=sys.stderr)
    sys.exit(1)
print("\nall lint fixture cases passed")
