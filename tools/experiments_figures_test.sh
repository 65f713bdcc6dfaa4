#!/usr/bin/env bash
# Checks that EXPERIMENTS.md quotes every figure golden verbatim: each
# golden <dir>/NAME.txt must be quoted exactly once, as the fenced block
# right after a "<!-- golden: NAME -->" line, and every such marker must
# name a golden.
#
#   experiments_figures_test.sh <EXPERIMENTS.md> <golden dir>
set -uo pipefail
doc=$1 dir=$2

# The body of the fenced block that follows the marker for golden $1.
quoted() {
  awk -v marker="<!-- golden: $1 -->" '
    $0 == marker { after = 1; next }
    after && /^```/ { if (inside) exit; inside = 1; next }
    inside { print }' "$doc"
}

status=0
for golden in "$dir"/*.txt; do
  name=$(basename "$golden" .txt)
  count=$(grep -cxF "<!-- golden: $name -->" "$doc")
  if [ "$count" -ne 1 ]; then
    echo "EXPERIMENTS.md quotes golden '$name' $count times (want 1)"
    status=1
  elif ! diff <(quoted "$name") "$golden" > /dev/null; then
    echo "EXPERIMENTS.md block '$name' (<) differs from $golden (>):"
    diff <(quoted "$name") "$golden" | head -n 20
    status=1
  fi
done
for name in $(sed -n 's/^<!-- golden: \(.*\) -->$/\1/p' "$doc"); do
  if [ ! -f "$dir/$name.txt" ]; then
    echo "EXPERIMENTS.md quotes '$name', which has no golden in $dir"
    status=1
  fi
done
exit $status
