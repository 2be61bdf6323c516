#!/bin/sh
# trace_smoke.sh — end-to-end check of the fleet observability layer.
#
# Starts cmd/nlidb -serve sharded (3 shards × 2 replicas) with the answer
# cache off and trace sampling at 1, serves one scatter question over
# HTTP, and asserts the distributed-tracing contract end to end:
#   - the /query response carries a trace_id,
#   - GET /trace?id=<trace_id> renders ONE span tree that crosses the
#     coordinator/replica boundary: the engine attempt with its interpret
#     span at the coordinator — the question is interpreted once, there —
#     then classify + scatter routing, per-replica attempt spans, each
#     replica executor's own span tree nested beneath them holding
#     parse/plan/execute and nothing else, and the merge span,
#   - /fleet reports per-shard/per-replica rollups with closed breakers,
#   - /slo reports multi-window burn rates that saw the request,
#   - the nlidb_shard_* and nlidb_slo_* families ride the /metrics scrape,
#   - SIGTERM drains: the process exits promptly and cleanly.
set -eu

PORT="${SERVE_PORT:-19292}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "$NLIDB_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$TMP/nlidb" ./cmd/nlidb

# -cache 0 so the question pays the full pipeline (cached answers skip
# tracing); -trace-sample 1 so the healthy trace is retained for /trace.
"$TMP/nlidb" -serve "$ADDR" -shards 3 -replicas 2 -cache 0 -trace-sample 1 \
    -drain-timeout 5s >"$TMP/out.log" 2>&1 &
NLIDB_PID=$!

# Wait for the listener.
i=0
until curl -sf "http://$ADDR/metrics" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "trace-smoke: $ADDR never came up" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done

if ! grep -q 'sharded: 3 shards × 2 replicas' "$TMP/out.log"; then
    echo "trace-smoke: server did not report the sharded topology" >&2
    cat "$TMP/out.log" >&2
    exit 1
fi

status=0

# A cross-shard aggregate must scatter and come back whole, with a trace.
curl -sf -X POST "http://$ADDR/query" \
    -d '{"question": "how many customers are there"}' >"$TMP/ans.json"
if ! grep -q '"sql"' "$TMP/ans.json"; then
    echo "trace-smoke: scatter question returned no SQL: $(cat "$TMP/ans.json")" >&2
    exit 1
fi
if grep -q '"partial": *true' "$TMP/ans.json"; then
    echo "trace-smoke: healthy cluster answered partial: $(cat "$TMP/ans.json")" >&2
    status=1
fi
TID="$(sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$TMP/ans.json")"
if [ -z "$TID" ]; then
    echo "trace-smoke: response carries no trace_id: $(cat "$TMP/ans.json")" >&2
    exit 1
fi

# The exemplar store must render the whole distributed tree under that ID:
# coordinator spans (interpret/classify/scatter/merge), the per-replica
# attempt legs, and the replica executors' own spans (parse/plan/execute)
# nested beneath — proof that one trace crosses the coordinator/replica
# boundary.
curl -sf "http://$ADDR/trace?id=$TID" >"$TMP/trace.txt"
for span in interpret classify route=scatter scatter attempt replica= parse plan execute merge; do
    if ! grep -q "$span" "$TMP/trace.txt"; then
        echo "trace-smoke: /trace?id=$TID missing \"$span\"" >&2
        status=1
    fi
done
# Who did what: exactly one interpret span, above every shard leg (so at
# the coordinator), and under each replica's "query" root only the
# executor stages. Tree glyphs become ASCII of the same width so a span's
# depth is the column of its name; lines without a branch glyph are
# attribute continuations (the plan rendering), not spans.
if ! sed 's/│/|/g; s/├─/+-/g; s/└─/+-/g' "$TMP/trace.txt" | awk '
    /\+- [a-z]/ {
        col = match($0, /\+- [a-z]/) + 3
        name = substr($0, col); sub(/ .*/, "", name)
        if (inq && col <= inq) inq = 0
        if (name == "interpret") { interprets++; if (shards) bad = bad " interpret-below-a-shard-leg" }
        if (name == "shard") shards++
        if (inq && col == inq + 3 && name != "parse" && name != "plan" && name != "execute")
            bad = bad " replica-span:" name
        if (name == "query") { inq = col; replicas++ }
    }
    END {
        if (interprets != 1) bad = bad " interpret-spans:" interprets
        if (replicas < 3) bad = bad " replica-trees:" replicas
        if (bad != "") { print "trace-smoke: span placement wrong:" bad; exit 1 }
    }' >&2; then
    status=1
fi

# /fleet: per-shard rollups, every replica breaker closed after a healthy
# scatter that touched all three shards.
curl -sf "http://$ADDR/fleet" >"$TMP/fleet.json"
for want in '"shards"' '"replicas"' '"state": "closed"' '"requests"'; do
    if ! grep -q "$want" "$TMP/fleet.json"; then
        echo "trace-smoke: /fleet missing $want" >&2
        status=1
    fi
done

# /slo: the burn-rate windows exist and the 5m window saw the request.
curl -sf "http://$ADDR/slo" >"$TMP/slo.json"
for want in '"window": "5m"' '"window": "3d"' '"availability_burn_rate"' '"latency_burn_rate"'; do
    if ! grep -q "$want" "$TMP/slo.json"; then
        echo "trace-smoke: /slo missing $want" >&2
        status=1
    fi
done
if ! grep -q '"total": [1-9]' "$TMP/slo.json"; then
    echo "trace-smoke: /slo windows never saw the request" >&2
    status=1
fi

# The fleet and SLO families must ride the same /metrics scrape.
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for family in \
    nlidb_shard_replica_ewma_micros \
    nlidb_shard_replica_inflight \
    nlidb_shard_latency_ms \
    nlidb_shard_hedge_wins_total \
    nlidb_shard_partial_rate \
    nlidb_slo_burn_rate \
    nlidb_slo_fast_burn_alert; do
    if ! grep -q "^$family" "$TMP/metrics.txt"; then
        echo "trace-smoke: /metrics missing family $family" >&2
        status=1
    fi
done

# SIGTERM must drain and exit cleanly.
kill -TERM "$NLIDB_PID"
i=0
while kill -0 "$NLIDB_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "trace-smoke: server did not exit within 10s of SIGTERM" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done
if ! grep -q 'drained' "$TMP/out.log"; then
    echo "trace-smoke: no drain log line" >&2
    cat "$TMP/out.log" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "--- answer ---" >&2
    cat "$TMP/ans.json" >&2
    echo "--- trace ---" >&2
    cat "$TMP/trace.txt" >&2
    echo "--- fleet ---" >&2
    cat "$TMP/fleet.json" >&2
    exit "$status"
fi
echo "trace-smoke: ok (trace $TID crosses the node boundary; /fleet, /slo, /metrics agree on $ADDR)"
