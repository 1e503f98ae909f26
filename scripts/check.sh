#!/usr/bin/env bash
# Run the Tier-1 test suite, then the benchmark's own tests (a tiny-size
# smoke run of every workload), then print the total code lines of
# src/expsumlab (scripts/code_lines.py), which is reported, never gated
# on.  Exits 0 when both test runs pass, except for the one failure that
# is red by design and must stay red: acceptance criterion 6, the false
# published formula of zh_cubic_6th_over_a (see README), which must fail
# at p = 5 with the exact mean 2500 against the formula's 2100, and for
# no other reason.
#
#   scripts/check.sh
set -u
cd "$(dirname "$0")/.."

expected="tests/test_acceptance.py::test_acceptance_06_cubic_sixth_mean_over_linear_slot"
reason="p=5: lhs 2500 != rhs 2100"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q -rfE --durations=10 --continue-on-collection-errors \
    | tee "$log"
tier1=${PIPESTATUS[0]}
# pytest exits 1 when tests failed; any other nonzero code is an
# interrupted run, an internal error or a usage error
failures=$(grep -E '^(FAILED|ERROR) ' "$log" | cut -d' ' -f2)
unexpected=$(printf '%s\n' "$failures" | grep -vxF -e "$expected" -e '')
if [ "$tier1" -ne 0 ] && { [ "$tier1" -ne 1 ] || [ -n "$unexpected" ] || [ -z "$failures" ]; }; then
    echo "check.sh: Tier-1 tests failed (pytest exit $tier1)${unexpected:+: $unexpected}" >&2
    status=1
fi
# the failure report of the expected test: from its "____ name ____"
# header to the next header or "====" line
report=$(awk -v name="${expected##*::}" '
    /^___+ [^ ]+ ___+$/ { inside = ($2 == name); next }
    /^=+ / { inside = 0 }
    inside' "$log")
if ! printf '%s\n' "$failures" | grep -qxF -e "$expected"; then
    echo "check.sh: $expected did not fail, yet the formula it checks is false" >&2
    status=1
elif ! printf '%s\n' "$report" | grep -qF "AssertionError: $reason"; then
    echo "check.sh: $expected failed, but not with \"$reason\"" >&2
    status=1
fi

if ! python3 -m pytest -q bench/test_bench.py; then
    echo "check.sh: benchmark smoke tests failed" >&2
    status=1
fi
python3 scripts/code_lines.py | tail -1
exit $status
