#!/bin/sh
# Print the full report of every must-fail chaos control: the nine
# invocations CI runs through tools/must_fail.sh, each under its command
# line and followed by its exit status.
#
#   sh reports.sh PATH/TO/ufork_sim.exe
#
# test/must_fail/dune diffs the output against reports.expected, so a
# change in which lock, access or capability a control trips fails
# `dune runtest`; `dune promote` accepts an intended change.
sim=$1
run() {
  echo "\$ ufork_sim $*"
  "$sim" "$@" 2>&1
  echo "[exit $?]"
  echo
}
run check --system ufork-copa --race --chaos-no-bkl hello
run check --system ufork-copa --race --chaos-no-bkl redis
run check --system ufork-copa --race --cores 64 --chaos-unshard storm
run check --system ufork-copa --lockdep --cores 64 --chaos-invert-shard-order storm
run explain --system ufork-copa --cores 8 --chaos-stall-shard storm
run check --capflow --system ufork-copa --chaos-skip-rebase storm
run check --capflow --system ufork-copa --chaos-heap-smuggle storm
run check --capflow --system ufork-copa --chaos-leak-root storm
run check --capflow --system cheribsd --chaos-leak-root storm
