#!/usr/bin/env bash
# serve-soak: a seeded chaos replay of faulty and well-behaved jobs through
# dgc-serve, with the queue deliberately over capacity. The outcome log must
# be byte-identical across --jobs values and must match the committed golden
# transcript; the exit code must reflect the chaos-failed jobs. The golden
# run has one device slot, so it never simulates two launches at once; a
# second replay on two slots starts launches in the same pass, and its log
# must not change with --jobs either.
set -u
BIN=$1
STREAM=$2
GOLDEN=$3
OUT=$4
mkdir -p "$OUT"

FLAGS=(--stream "$STREAM" --device test -t 32 --queue-cap 4
       --job-attempts 2 --backoff 4096 --quarantine-after 3
       --chaos 'seed@7;trap@2;malformed@5;slow@4.x4')

"$BIN" "${FLAGS[@]}" --jobs 1 --log "$OUT/jobs1.log" >/dev/null
rc1=$?
"$BIN" "${FLAGS[@]}" --jobs 4 --log "$OUT/jobs4.log" >/dev/null
rc4=$?
"$BIN" "${FLAGS[@]}" --devices 2 --jobs 1 --log "$OUT/dev2-jobs1.log" >/dev/null
rc21=$?
"$BIN" "${FLAGS[@]}" --devices 2 --jobs 4 --log "$OUT/dev2-jobs4.log" >/dev/null
rc24=$?

# The chaos-trapped job exhausts its attempts, so the service must report
# failure — an exit-0 soak run means faults stopped being detected.
if [ "$rc1" != 1 ] || [ "$rc4" != 1 ] || [ "$rc21" != 1 ] || [ "$rc24" != 1 ]; then
  echo "serve-soak: expected exit 1 from every run, got $rc1 $rc4 $rc21 $rc24"
  exit 1
fi
if ! cmp -s "$OUT/jobs1.log" "$OUT/jobs4.log"; then
  echo "serve-soak: --jobs changed the outcome log"
  diff -u "$OUT/jobs1.log" "$OUT/jobs4.log" | head -40
  exit 1
fi
# At least one pass must start two launches, or --jobs 4 ran nothing at once.
if ! grep ' launch ' "$OUT/dev2-jobs1.log" | cut -d' ' -f1 | uniq -d | grep -q .; then
  echo "serve-soak: no two launches started at one cycle on two devices"
  exit 1
fi
if ! cmp -s "$OUT/dev2-jobs1.log" "$OUT/dev2-jobs4.log"; then
  echo "serve-soak: --jobs changed the two-device outcome log"
  diff -u "$OUT/dev2-jobs1.log" "$OUT/dev2-jobs4.log" | head -40
  exit 1
fi
if ! cmp -s "$OUT/jobs1.log" "$GOLDEN"; then
  echo "serve-soak: outcome log diverged from the golden transcript"
  diff -u "$GOLDEN" "$OUT/jobs1.log" | head -60
  exit 1
fi
echo "serve-soak: ok"
