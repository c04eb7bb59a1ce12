#!/usr/bin/env bash
# bench_golden.sh — pins bench_all's figure stdout across commits.
#
# Runs the whole suite once, cold, on two threads, splits stdout into one
# piece per figure, and compares each piece's md5 with a committed golden
# table. bench_gate.sh compares two runs of one build, so an output change
# that both runs share passes it; this gate names every figure that moved.
#
# Usage: bench_golden.sh <path-to-bench_all> <workdir> <golden-file>
#
# Golden format: one "<figure> <md5> <lines>" row per figure, in suite
# order; lines starting with '#' are comments. A change meant to move
# outputs updates the table in the same commit (the failure output prints
# the full actual table).
#
# Exit codes: 0 ok; 1 a figure moved, or stdout did not split into the
# suite's figures.
set -euo pipefail

usage="usage: bench_golden.sh <path-to-bench_all> <workdir> <golden-file>"
BENCH_ALL=${1:?$usage}
WORK=${2:?$usage}
GOLDEN=${3:?$usage}

rm -rf "$WORK"
mkdir -p "$WORK/figures"
if ! "$BENCH_ALL" --cold --threads 2 --json off --cache-dir "$WORK/cache" \
    >"$WORK/stdout.txt" 2>"$WORK/stderr.txt"; then
  cat "$WORK/stderr.txt" >&2
  echo "bench_golden: bench_all failed" >&2
  exit 1
fi
"$BENCH_ALL" --list | awk '{ print $1 }' >"$WORK/names.txt"

# Every figure opens with a blank line and a two-rule banner (PrintHeader in
# bench/harness.cc), so each odd rule line, with the blank line before it,
# starts the next figure.
awk -v dir="$WORK/figures" '
  { line[NR] = $0 }
  END {
    rule = "================================================================"
    fig = 0
    for (i = 1; i <= NR; ++i) {
      if (line[i] == rule && ++rules % 2 == 1) {
        start[++fig] = (i > 1 && line[i - 1] == "") ? i - 1 : i
      }
    }
    start[fig + 1] = NR + 1
    for (f = 1; f <= fig; ++f) {
      out = sprintf("%s/%03d", dir, f)
      printf "" >out
      for (i = start[f]; i < start[f + 1]; ++i) {
        print line[i] >out
      }
      close(out)
    }
  }' "$WORK/stdout.txt"

figures=$(find "$WORK/figures" -type f | wc -l)
names=$(wc -l <"$WORK/names.txt")
if [[ "$figures" -ne "$names" ]]; then
  echo "bench_golden: stdout split into $figures figures, the suite lists $names" >&2
  exit 1
fi

: >"$WORK/actual.txt"
f=0
while read -r name; do
  f=$((f + 1))
  piece=$(printf '%s/%03d' "$WORK/figures" "$f")
  echo "$name $(md5sum <"$piece" | cut -d' ' -f1) $(wc -l <"$piece")" >>"$WORK/actual.txt"
done <"$WORK/names.txt"

grep -v '^#' "$GOLDEN" >"$WORK/golden.txt" || true
if cmp -s "$WORK/actual.txt" "$WORK/golden.txt"; then
  echo "bench_golden: ok ($names figures, stdout md5 $(md5sum <"$WORK/stdout.txt" | cut -d' ' -f1))"
  exit 0
fi

echo "bench_golden: figure stdout differs from $GOLDEN" >&2
while read -r name digest lines; do
  if ! grep -qx "$name $digest $lines" "$WORK/golden.txt"; then
    echo "  moved: $name" >&2
  fi
done <"$WORK/actual.txt"
echo "full actual table (stdout md5 $(md5sum <"$WORK/stdout.txt" | cut -d' ' -f1)):" >&2
cat "$WORK/actual.txt" >&2
exit 1
