#!/bin/sh
# tables_check.sh — the paper-reproduction tables are a fixed point.
#
# Regenerates T1–T11 and A1–A2 with `cmd/nlidb-bench -seed 1`, drops the
# wall-clock lines ("(T5 in 142.7s)", "ran 13 experiment(s) in …"), and
# diffs the rest against internal/experiments/testdata/tables_seed1.golden.
# Any difference means an optimisation or refactor changed an answer.
# Expect a few minutes.
set -eu

cd "$(dirname "$0")/.."
GOLDEN=internal/experiments/testdata/tables_seed1.golden
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go run ./cmd/nlidb-bench -seed 1 >"$TMP/raw.txt"
grep -v -E '^\([A-Z]+[0-9]+ in [0-9.]+s\)$|^ran [0-9]+ experiment\(s\) in ' "$TMP/raw.txt" >"$TMP/tables.txt"

if ! diff -u "$GOLDEN" "$TMP/tables.txt"; then
    echo "tables-check: FAIL — tables differ from $GOLDEN" >&2
    exit 1
fi
echo "tables-check: T1–T11 and A1–A2 byte-identical to the golden file"
