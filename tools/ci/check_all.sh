#!/bin/sh
# One-stop pre-merge gate: every static and dynamic check the repo defines,
# in dependency order, with a single summary at the end. Keeps running after
# a failure so one run reports *all* problems:
#
#   1. format        — clang-format via tools/lint/check_format.sh
#   2. lints         — nondeterminism + unit-suffix + lint-allow ratchet
#   3. lint fixtures — tools/lint/test_lint_rules.py (rules actually fire)
#   4. scenario pack — greencc_sweep --validate over every scenarios/ file
#   5. default build — cmake --preset default, build, full ctest
#   6. audit build   — cmake --preset audit, build, full ctest
#   7. asan smoke    — cmake --preset asan, build, then four labels under
#                      AddressSanitizer: ctest -L isolate, the crash-matrix
#                      smoke (forked workers dying by SIGSEGV/abort/OOM/
#                      SIGSTOP), where signals and rlimits take different
#                      paths; ctest -L sim, the event core, where
#                      callback-slab slot reuse and moved-from callbacks
#                      are what ASan catches; ctest -L packet, the
#                      per-packet path, whose rings free their storage
#                      on drain and reallocate as they grow; and
#                      ctest -L dsl, the scenario DSL's hand-rolled TOML
#                      parser and key-table walkers, which are string and
#                      pointer code
#
# The remaining sanitizer presets (full asan/ubsan/tsan suites) are heavier
# and stay separate; see ROADMAP.md for the full release checklist. Usage:
#
#   tools/ci/check_all.sh [repo_root]
#
# Also registered as the `check_all` ctest under the `ci` CONFIGURATION, so
# a plain `ctest` run never nests a full build inside itself; CI drivers
# invoke it explicitly: ctest --test-dir build -C ci -R check_all.
set -u

repo_root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)}
cd "$repo_root"

results=""
overall=0

step() {
  name=$1
  shift
  echo ""
  echo "=== $name ==="
  if "$@"; then
    results="$results
  PASS  $name"
  else
    results="$results
  FAIL  $name"
    overall=1
  fi
}

build_and_test() {
  preset=$1
  cmake --preset "$preset" >/dev/null &&
    cmake --build --preset "$preset" -j "$(nproc)" &&
    ctest --test-dir "build$(
      [ "$preset" = default ] || echo "-$preset"
    )" --output-on-failure -E '^check_all$'
}

validate_scenarios() {
  # Every committed scenario file must parse, type-check and compile.
  # Prefers the freshly built default-preset binary; falls back to any
  # existing build so the step works standalone too.
  sweep=""
  for candidate in build/src/tools/greencc_sweep build-audit/src/tools/greencc_sweep; do
    [ -x "$candidate" ] && sweep=$candidate && break
  done
  if [ -z "$sweep" ]; then
    echo "greencc_sweep not built yet; building default preset first"
    cmake --preset default >/dev/null &&
      cmake --build --preset default -j "$(nproc)" --target greencc_sweep ||
      return 1
    sweep=build/src/tools/greencc_sweep
  fi
  "$sweep" --validate scenarios/
}

step "format"        tools/lint/check_format.sh "$repo_root"
step "lints"         sh -c "
  python3 tools/lint/nondeterminism_lint.py &&
  python3 tools/lint/unit_suffix_lint.py &&
  python3 tools/lint/lint_allow_ratchet.py"
step "lint-fixtures" python3 tools/lint/test_lint_rules.py
step "scenario-pack-validate" validate_scenarios
asan_smoke() {
  # Only the `isolate`, `sim`, `packet` and `dsl` labels: full sanitizer suites
  # are a separate gate, but the crash matrix must hold where ASan rewires
  # SIGSEGV into an exit-1 report and RLIMIT_AS is unusable (shadow
  # memory), so the parent-side RSS budget enforcement carries alone; the
  # event core recycles callback-slab slots, where a use of a freed or
  # moved-from callback is exactly what ASan reports; and the packet path
  # keeps packets in rings that free their storage on drain and reallocate
  # as they grow, so a reference held across either is a use-after-free;
  # and the DSL parses untrusted text by hand and stores through the key
  # table's field pointers, where an out-of-bounds read or a stale pointer
  # is what ASan reports.
  cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$(nproc)" &&
    ctest --test-dir build-asan -L isolate --output-on-failure &&
    ctest --test-dir build-asan -L sim --output-on-failure &&
    ctest --test-dir build-asan -L packet --output-on-failure &&
    ctest --test-dir build-asan -L dsl --output-on-failure
}

step "build+test default" build_and_test default
step "build+test audit"   build_and_test audit
step "asan isolate+sim+packet+dsl smoke" asan_smoke

echo ""
echo "=== check_all summary ==="
echo "$results"
if [ "$overall" -eq 0 ]; then
  echo "check_all: ALL CLEAN"
else
  echo "check_all: FAILURES (see above)"
fi
exit "$overall"
