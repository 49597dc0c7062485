#!/bin/sh
# Print every finding the linter reports on each fixture in
# test/lint_fixtures/, each linted by `ufork_sim lint` (per-file rules,
# D10 and D13) as the only file of a tree, at lib/workload/fixture.ml.
#
#   sh fixtures.sh PATH/TO/ufork_sim.exe PATH/TO/lint_fixtures
#
# test/lint/dune diffs the output against fixtures.expected, so a change
# in any finding's rule, location or message fails `dune runtest`;
# `dune promote` accepts an intended change.
export LC_ALL=C
sim=$1
fixtures=$2
root=$(mktemp -d)
trap 'rm -rf "$root"' EXIT
mkdir -p "$root/lib/workload"
for f in "$fixtures"/*.ml; do
  echo "== $(basename "$f")"
  cp "$f" "$root/lib/workload/fixture.ml"
  "$sim" lint "$root"
  echo "[exit $?]"
done
