#!/bin/sh
# overload_smoke.sh — end-to-end check of the overload-safe serving layer.
#
# Starts cmd/nlidb -serve with a deliberately tiny admission ceiling and
# no answer cache (every request pays the pipeline), fires bursts of
# concurrent requests from one curl process, and asserts the serving
# contract end to end:
#   - successful answers come back 200 with SQL in the body,
#   - excess load is shed with 503 + Retry-After (or 429 from the
#     per-client rate limiter) instead of queueing forever,
#   - the sheds are visible on /metrics (nlidb_admission_shed_total),
#   - admission gauges/counters are exported alongside the query families,
#   - SIGTERM drains: the process exits promptly and cleanly.
set -eu

PORT="${SERVE_PORT:-19191}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "$NLIDB_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$TMP/nlidb" ./cmd/nlidb

"$TMP/nlidb" -serve "$ADDR" -cache 0 -max-inflight 1 -drain-timeout 5s \
    >"$TMP/out.log" 2>&1 &
NLIDB_PID=$!

# Wait for the listener.
i=0
until curl -sf "http://$ADDR/metrics" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "overload-smoke: $ADDR never came up" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done

# One healthy request must answer with SQL.
curl -sf -X POST "http://$ADDR/query" \
    -d '{"question": "customers in Berlin"}' >"$TMP/ok.json"
if ! grep -q '"sql"' "$TMP/ok.json"; then
    echo "overload-smoke: healthy request returned no SQL: $(cat "$TMP/ok.json")" >&2
    exit 1
fi

# The surge: one curl process opens SURGE connections at once (--parallel
# --parallel-immediate), 24 times what the server can hold (1 in flight
# plus the 4-deep admission queue that -max-inflight 1 implies), with a
# tight client budget. Forking one curl per request, as this script used
# to, spreads the arrivals over tens of milliseconds, and now that a query
# takes 0.3 ms the server kept up with that and sometimes shed nothing. A
# burst can still, rarely, be served as fast as it arrives, so it is
# repeated up to BURSTS times until something is shed. Each request
# records its status code and dumps its response headers for the
# Retry-After assertion.
SURGE=120
BURSTS=5
burst=0
shed=0
while [ "$shed" -lt 1 ] && [ "$burst" -lt "$BURSTS" ]; do
    burst=$((burst + 1))
    n=0
    while [ "$n" -lt "$SURGE" ]; do
        [ "$n" -eq 0 ] || echo next
        printf '%s\n' \
            "url = \"http://$ADDR/query\"" \
            'data = "{\"question\": \"customers with credit over 20000\"}"' \
            'header = "X-Deadline-Ms: 200"' \
            "dump-header = \"$TMP/h$burst-$n.txt\"" \
            'output = "/dev/null"' \
            'write-out = "%{http_code}\n"'
        n=$((n + 1))
    done >"$TMP/surge.cfg"
    curl -s --parallel --parallel-immediate --parallel-max "$SURGE" \
        -K "$TMP/surge.cfg" >>"$TMP/codes.txt" 2>/dev/null || true
    shed="$(grep -c '^503$' "$TMP/codes.txt" || true)"
done

total="$(wc -l <"$TMP/codes.txt" | tr -d ' ')"
ok="$(grep -c '^200$' "$TMP/codes.txt" || true)"
timeout="$(grep -c '^504$' "$TMP/codes.txt" || true)"
echo "overload-smoke: $burst burst(s) of $SURGE, $total answers → $ok ok, $shed shed (503), $timeout timeout (504)"

status=0
if [ "$ok" -lt 1 ]; then
    echo "overload-smoke: surge produced no successful answers" >&2
    status=1
fi
if [ "$shed" -lt 1 ]; then
    echo "overload-smoke: $BURSTS bursts of $SURGE against 1 slot + 4 queued shed nothing" >&2
    status=1
fi

# Every shed response must carry honest retry advice.
for h in "$TMP"/h*.txt; do
    if grep -q ' 503 ' "$h" && ! grep -qi '^Retry-After:' "$h"; then
        echo "overload-smoke: 503 without Retry-After:" >&2
        cat "$h" >&2
        status=1
        break
    fi
done

# The sheds must be visible on /metrics, next to the admission gauges.
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for family in \
    nlidb_admission_shed_total \
    nlidb_admission_inflight \
    nlidb_admission_limit \
    nlidb_admission_queue_depth \
    nlidb_http_requests_total \
    nlidb_http_inflight; do
    if ! grep -q "^$family" "$TMP/metrics.txt"; then
        echo "overload-smoke: missing family $family" >&2
        status=1
    fi
done
if ! grep -q 'nlidb_admission_shed_total{.*} [1-9]' "$TMP/metrics.txt"; then
    echo "overload-smoke: shed counter never moved" >&2
    status=1
fi

# SIGTERM must drain and exit cleanly, within the drain budget plus slack.
kill -TERM "$NLIDB_PID"
i=0
while kill -0 "$NLIDB_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "overload-smoke: server did not exit within 10s of SIGTERM" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done
if ! grep -q 'drained' "$TMP/out.log"; then
    echo "overload-smoke: no drain log line" >&2
    cat "$TMP/out.log" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "--- codes ---" >&2
    sort "$TMP/codes.txt" | uniq -c >&2
    echo "--- metrics ---" >&2
    cat "$TMP/metrics.txt" >&2
    exit "$status"
fi
echo "overload-smoke: ok (shed with Retry-After, counters moved, drain clean on $ADDR)"
