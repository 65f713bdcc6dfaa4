#!/usr/bin/env bash
# Runs a command, requires exit 0, and compares its stdout with a golden
# file byte for byte; on a difference it prints the first differing lines.
#
#   golden_test.sh <golden> <output file> <command> [args...]
set -uo pipefail
golden=$1 out=$2
shift 2

"$@" > "$out"
status=$?
if [ $status -ne 0 ]; then
  echo "$(basename "$1") ${*:2} exited $status"
  exit 1
fi
if ! cmp -s "$golden" "$out"; then
  echo "stdout differs from $golden (< golden, > output):"
  diff "$golden" "$out" | head -n 20
  exit 1
fi
