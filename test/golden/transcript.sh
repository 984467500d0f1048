#!/usr/bin/env bash
# Print the golden transcript: the JSON replies of `ric file rcdp`,
# `ric file rcqp`, `ric file audit` and `ric explain` (rcdp, rcqp and
# audit modes) for every scenario query (less hard.ric's QH, which
# never finishes without a deadline) and for ladder rungs 1-5 at seeds
# 1-3, then `ric mine` on every scenario.  The test suite diffs this against
# transcript.expected, so any change to a verdict, counterexample,
# witness or explain profile shows up as a failing diff.
#
# Usage: transcript.sh RIC SCENARIO_DIR
set -euo pipefail
ric=$1
scenarios=$2

run() {
  local file=$1 label=$2 q=$3
  for cmd in "file rcdp" "file rcqp" "file audit" "explain" "explain -m rcqp" \
    "explain -m audit"; do
    echo "## $label $q $cmd"
    # shellcheck disable=SC2086
    "$ric" $cmd --json -q "$q" "$file"
    echo
  done
}

queries() {
  sed -n 's/^query \([A-Za-z0-9_]*\).*/\1/p' "$1"
}

for f in crm dirty_support supply_chain; do
  for q in $(queries "$scenarios/$f.ric"); do
    run "$scenarios/$f.ric" "$f" "$q"
  done
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for rung in 1 2 3 4 5; do
  for seed in 1 2 3; do
    file="$tmp/ladder-r$rung-s$seed.ric"
    "$ric" gen ladder --rung "$rung" --seed "$seed" > "$file"
    for q in $(queries "$file"); do
      run "$file" "ladder-r$rung-s$seed" "$q"
    done
  done
done

for f in crm dirty_support hard supply_chain; do
  echo "## $f mine"
  "$ric" mine "$scenarios/$f.ric"
done
