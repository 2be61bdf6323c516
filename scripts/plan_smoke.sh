#!/bin/sh
# plan_smoke.sh — end-to-end check of the bind/plan/execute pipeline.
#
# Serves a filtered two-table equi-join question twice in one cmd/nlidb
# one-shot invocation with -explain traces on and the answer cache
# disabled (so the repeat re-enters the pipeline), then asserts on the
# printed traces that:
#   1. the interpreter produced a two-table equi-join statement;
#   2. the plan span shows a HashJoin node — the planner detected the
#      equi-join and did not fall back to a nested loop;
#   3. the threshold was pushed into the scan and runs there as a
#      compiled kernel, not through the generic evaluator;
#   4. the plan span carries the compact plan shape attribute;
#   5. the repeated question hit the physical-plan cache.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$TMP/nlidb" ./cmd/nlidb

QUESTION="count of orders per customer with total over 100"
"$TMP/nlidb" -explain -cache 0 "$QUESTION; $QUESTION" >"$TMP/out.log" 2>&1 || {
    echo "plan-smoke: nlidb failed" >&2
    cat "$TMP/out.log" >&2
    exit 1
}

status=0
if ! grep -q 'JOIN' "$TMP/out.log"; then
    echo "plan-smoke: question did not produce a join statement" >&2
    status=1
fi
if ! grep -q 'HashJoin' "$TMP/out.log"; then
    echo "plan-smoke: plan shows no HashJoin node for an equi-join" >&2
    status=1
fi
if ! grep -q 'HashJoin .*keys=int' "$TMP/out.log"; then
    echo "plan-smoke: HashJoin line does not name its typed key representation" >&2
    status=1
fi
if ! grep -q 'Scan orders .*\[filter: orders.total > 100\] kernel=1/1' "$TMP/out.log"; then
    echo "plan-smoke: the pushed-down scan filter is not a compiled kernel" >&2
    status=1
fi
if grep -q 'NestedLoopJoin' "$TMP/out.log"; then
    echo "plan-smoke: equi-join fell back to a nested loop" >&2
    status=1
fi
if ! grep -q 'shape=.*hashjoin(scan,scan+filter)' "$TMP/out.log"; then
    echo "plan-smoke: plan span lacks the hashjoin plan-shape attribute" >&2
    status=1
fi
if ! grep -q 'plan_cache=hit' "$TMP/out.log"; then
    echo "plan-smoke: repeated question did not hit the plan cache" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "--- one-shot output ---" >&2
    cat "$TMP/out.log" >&2
    exit "$status"
fi
echo "plan-smoke: ok (equi-join planned as HashJoin, scan filter compiled to a kernel, shape traced, repeat hit the plan cache)"
