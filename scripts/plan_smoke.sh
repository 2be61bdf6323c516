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
# Then it writes a small dataset of the benchmark's ops shape (a 40-row
# host dimension, a metric fact table with a foreign key to it, declared
# in schema sidecars), serves a per-host question over it, and asserts
# that the statement puts the dimension first, `host JOIN metric … GROUP
# BY host.name`, and that its join aggregated as it probed: the join span
# says agg=fused.
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

cat >"$TMP/host.schema.json" <<'JSON'
{"Name": "host", "Synonyms": ["server", "machine"], "Columns": [
  {"Name": "id", "Type": "INT", "PrimaryKey": true},
  {"Name": "name", "Type": "TEXT"},
  {"Name": "zone", "Type": "TEXT", "Synonyms": ["region"]},
  {"Name": "cores", "Type": "INT"}]}
JSON
cat >"$TMP/metric.schema.json" <<'JSON'
{"Name": "metric", "Synonyms": ["sample", "measurement"], "Columns": [
  {"Name": "id", "Type": "INT", "PrimaryKey": true},
  {"Name": "status", "Type": "TEXT", "Synonyms": ["state"]},
  {"Name": "kind", "Type": "TEXT"},
  {"Name": "host_id", "Type": "INT"},
  {"Name": "cpu", "Type": "FLOAT", "Synonyms": ["load"]},
  {"Name": "rss", "Type": "INT", "Synonyms": ["memory"]}],
 "ForeignKeys": [{"Column": "host_id", "RefTable": "host", "RefColumn": "id"}]}
JSON
awk 'BEGIN { split("bar cor dal fen gil hal jor kel", on, " "); split("ina oro ulf esa ian", en, " ");
  split("north south east west central", z, " "); print "id,name,zone,cores";
  for (i = 0; i < 40; i++) printf "%d,%s%s,%s,%d\n", i+1, on[i%8+1], en[int(i/8)+1], z[i%5+1], 2^(1+i%5) }' >"$TMP/host.csv"
awk 'BEGIN { split("ok warn crit idle", s, " "); split("probe gauge counter timer event alarm", k, " ");
  print "id,status,kind,host_id,cpu,rss";
  for (i = 0; i < 2000; i++) printf "%d,%s,%s,%d,%.2f,%d\n", i+1, s[i%4+1], k[(i*7)%6+1], (i*13)%40+1, (i*37%10000)/100, (i*7919)%1048576 }' >"$TMP/metric.csv"

"$TMP/nlidb" -csv "$TMP/host.csv,$TMP/metric.csv" -explain -cache 0 \
    "count of metrics per host with rss under 915516" >"$TMP/ops.log" 2>&1 || {
    echo "plan-smoke: nlidb failed on the ops dataset" >&2
    cat "$TMP/ops.log" >&2
    exit 1
}
if ! grep -q 'FROM host JOIN metric ON host.id = metric.host_id .*GROUP BY host.name' "$TMP/ops.log"; then
    echo "plan-smoke: the per-host question did not put the host dimension first" >&2
    status=1
fi
if ! grep -q 'join metric .*agg=fused' "$TMP/ops.log"; then
    echo "plan-smoke: the per-host join did not aggregate as it probed (no agg=fused)" >&2
    status=1
fi
if [ "$status" -ne 0 ]; then
    echo "--- per-host output ---" >&2
    cat "$TMP/ops.log" >&2
    exit "$status"
fi
echo "plan-smoke: ok (equi-join planned as HashJoin, scan filter compiled to a kernel, shape traced, repeat hit the plan cache, per-host join ran fused)"
