#!/usr/bin/env bash
# Print what `ric file rcdp` and `ric file audit` (plain and --json) and
# `ric explain` answer for every query of a scenario whose database
# breaks its constraints: each must reject the input.  `ric file rcqp` never reads the database,
# so it answers as usual.  The test suite diffs this against
# not_closed.expected.
#
# Usage: not_closed.sh RIC SCENARIO
set -euo pipefail
ric=$1
file=$2
for q in Q2 QB; do
  for cmd in "file rcdp" "file rcdp --json" "file rcqp --json" "file audit" \
    "file audit --json" "explain --json"; do
    echo "## $q $cmd"
    # shellcheck disable=SC2086
    "$ric" $cmd -q "$q" "$file"
  done
done
