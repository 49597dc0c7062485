#!/bin/sh
# Print every finding the linter reports on each fixture in
# test/lint_fixtures/, each linted by `ufork_sim lint` (per-file rules,
# D10, D13 and D14). A fixture .ml file is linted as the only file of a
# tree, at lib/workload/fixture.ml; a fixture directory is linted as a
# whole tree (lib/, bin/, test/, ...), for the rules that read several
# files.
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
for f in "$fixtures"/*; do
  rm -rf "$root/tree"
  if [ -d "$f" ]; then
    echo "== $(basename "$f")/"
    cp -R "$f" "$root/tree"
  else
    case "$f" in *.ml) ;; *) continue ;; esac
    echo "== $(basename "$f")"
    mkdir -p "$root/tree/lib/workload"
    cp "$f" "$root/tree/lib/workload/fixture.ml"
  fi
  "$sim" lint "$root/tree"
  echo "[exit $?]"
done
