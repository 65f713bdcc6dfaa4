#!/usr/bin/env bash
# Checks README.md against the tools' --help output: every long flag that
# dgc-run or dgc-serve prints in its help is named in that tool's README
# section, and every long flag the section names is in the tool's help.
#
#   readme_flags_test.sh <dgc-run> <dgc-serve> <README.md>
set -uo pipefail
readme=$3

# Long flags in the text on stdin, one per line, sorted and unique.
flags() { grep -o -- '--[a-z][a-z0-9-]*' | sort -u; }

status=0
check() {  # <tool> <README heading>
  if ! diff <("$1" --help | flags) \
      <(awk -v h="## $2" '/^## /{ on = index($0, h) == 1 } on' "$readme" |
        flags); then
    echo "$(basename "$1") --help (<) and README.md '## $2' (>) disagree"
    status=1
  fi
}
check "$1" "Command-line tool"
check "$2" "Job-stream service"
exit $status
