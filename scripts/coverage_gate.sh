#!/usr/bin/env bash
# Coverage gate: fail if total statement coverage drops below the
# baseline recorded in .github/coverage-baseline.txt.
#
# The baseline is the value measured when the gate was introduced (or
# last ratcheted). A 0.2-point tolerance absorbs scheduling jitter in
# goroutine-heavy paths; anything below that is a real regression —
# either add tests or consciously lower the baseline in the same PR
# and say why.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=$(tr -d '[:space:]' < .github/coverage-baseline.txt)
# The benchmark driver and the example programs are main packages run
# end to end, not unit-tested libraries; counting their statements would
# make the total track how much driver code exists, not how well the
# system is tested.
pkgs=$(go list ./... | grep -v -e '/benchmark$' -e '/examples/')
# shellcheck disable=SC2086 # one argument per package
go test -coverprofile=coverage.out $pkgs > /dev/null
total=$(go tool cover -func=coverage.out | tail -1 | awk '{sub(/%/, "", $3); print $3}')
echo "total statement coverage: ${total}% (baseline ${baseline}%)"
if ! awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t + 0.2 >= b) }'; then
  echo "FAIL: coverage ${total}% fell below the baseline ${baseline}%" >&2
  echo "add tests for the new code, or lower .github/coverage-baseline.txt in this PR with justification" >&2
  exit 1
fi
if awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t >= b + 1.0) }'; then
  echo "note: coverage is ≥1 point above baseline; consider ratcheting .github/coverage-baseline.txt up to ${total}"
fi
