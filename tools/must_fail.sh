#!/usr/bin/env sh
# Must-fail control: run one `ufork_sim` subcommand that arms a chaos
# injection and require that it fails for the right reason.
#
#   tools/must_fail.sh INV ARGS...
#
# runs `ufork_sim ARGS...` and passes only if it exits non-zero AND its
# report names exactly one violation ("1 invariant violation(s):") of
# invariant INV (e.g. R1). An uncaught exception, a clean run, or a
# failure for another reason (a different invariant, a safety check of
# the workload itself, a second violation) all fail the control.
set -u
cd "$(dirname "$0")/.."

inv=$1
shift
dune build bin/ufork_sim.exe || exit 1
out=$(dune exec --no-build bin/ufork_sim.exe -- "$@" 2>&1) && {
  echo "must-fail control unexpectedly passed: $*" >&2
  echo "$out" >&2
  exit 1
}
if echo "$out" | grep -qx '1 invariant violation(s):' \
  && echo "$out" | grep -q "^\[$inv:"; then
  echo "$inv as expected: $*"
else
  echo "must-fail control failed without exactly one $inv: $*" >&2
  echo "$out" >&2
  exit 1
fi
