#!/bin/sh
# session_smoke.sh — end-to-end check of conversational serving.
#
# Starts cmd/nlidb -serve with a short session TTL and walks the whole
# session protocol over HTTP:
#   - POST /session opens a conversation (session_id + ttl_ms, echoed in
#     the X-Session-ID header),
#   - a full question answers with rows, read by the same engine and
#     into the same SQL as POST /query reads it,
#   - a follow-up ("how many are there") resolves against the tracked
#     context: context_resolved=true and the count matches turn 1's rows,
#   - the nlidb_session_* families are visible on /metrics,
#   - DELETE /session ends the conversation; asking it again is 410 Gone,
#   - an unknown session ID is 404,
#   - a session idle past its TTL answers 410 Gone.
set -eu

PORT="${SERVE_PORT:-19194}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "$NLIDB_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$TMP/nlidb" ./cmd/nlidb

"$TMP/nlidb" -serve "$ADDR" -session-ttl 2s -drain-timeout 5s \
    >"$TMP/out.log" 2>&1 &
NLIDB_PID=$!

i=0
until curl -sf "http://$ADDR/metrics" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "session-smoke: $ADDR never came up" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done

status=0

# Open a session.
curl -sf -X POST "http://$ADDR/session" -D "$TMP/create_hdr.txt" >"$TMP/create.json"
SID="$(sed -n 's/.*"session_id": *"\([0-9a-f]*\)".*/\1/p' "$TMP/create.json")"
if [ -z "$SID" ]; then
    echo "session-smoke: create returned no session_id: $(cat "$TMP/create.json")" >&2
    exit 1
fi
if ! grep -qi "^X-Session-ID: *$SID" "$TMP/create_hdr.txt"; then
    echo "session-smoke: create did not echo X-Session-ID" >&2
    status=1
fi

# Turn 1: a full question.
curl -sf -X POST "http://$ADDR/session/ask" \
    -H "X-Session-ID: $SID" \
    -d '{"utterance": "show customers with city Berlin"}' >"$TMP/t1.json"
if ! grep -q '"sql"' "$TMP/t1.json"; then
    echo "session-smoke: turn 1 returned no SQL: $(cat "$TMP/t1.json")" >&2
    exit 1
fi
rows1="$(grep -o '\["[^]]*"\]' "$TMP/t1.json" | wc -l | tr -d ' ')"

# Turn 1 is a request like /query: the same engine and the same SQL.
curl -sf -X POST "http://$ADDR/query" \
    -d '{"question": "show customers with city Berlin"}' >"$TMP/q1.json"
field() { sed -n "s/.*\"$1\": *\"\([^\"]*\)\".*/\1/p" "$2"; }
for f in engine sql; do
    got="$(field "$f" "$TMP/t1.json")"
    want="$(field "$f" "$TMP/q1.json")"
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
        echo "session-smoke: turn 1 $f \"$got\" != /query $f \"$want\"" >&2
        status=1
    fi
done

# Turn 2: the follow-up resolves against tracked context.
curl -sf -X POST "http://$ADDR/session/ask" \
    -H "X-Session-ID: $SID" \
    -d '{"utterance": "how many are there"}' >"$TMP/t2.json"
if ! grep -q '"context_resolved": *true' "$TMP/t2.json"; then
    echo "session-smoke: follow-up did not resolve context: $(cat "$TMP/t2.json")" >&2
    status=1
fi
count="$(sed -n 's/.*"rows": *\[\[ *"\([0-9]*\)".*/\1/p' "$TMP/t2.json")"
# rows1 counts turn 1's row arrays, minus one for the columns array.
want=$((rows1 - 1))
if [ "$count" != "$want" ]; then
    echo "session-smoke: follow-up count $count != turn-1 rows $want" >&2
    cat "$TMP/t1.json" "$TMP/t2.json" >&2
    status=1
fi

# Session families on /metrics.
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for family in \
    nlidb_session_live \
    nlidb_session_created_total \
    nlidb_session_turns_total \
    nlidb_session_turn_seconds \
    nlidb_session_memory_bytes; do
    if ! grep -q "^$family" "$TMP/metrics.txt"; then
        echo "session-smoke: missing family $family" >&2
        status=1
    fi
done
if ! grep -q '^nlidb_session_live [1-9]' "$TMP/metrics.txt"; then
    echo "session-smoke: live-session gauge never moved" >&2
    status=1
fi

# End the session; asking it again is 410 Gone, not 404.
code="$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/session" -H "X-Session-ID: $SID")"
if [ "$code" != "204" ]; then
    echo "session-smoke: end returned $code, want 204" >&2
    status=1
fi
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/session/ask" \
    -H "X-Session-ID: $SID" -d '{"utterance": "how many are there"}')"
if [ "$code" != "410" ]; then
    echo "session-smoke: ask after end returned $code, want 410" >&2
    status=1
fi

# An ID never issued is 404.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/session/ask" \
    -H "X-Session-ID: deadbeefdeadbeefdeadbeefdeadbeef" -d '{"utterance": "x"}')"
if [ "$code" != "404" ]; then
    echo "session-smoke: unknown session returned $code, want 404" >&2
    status=1
fi

# TTL expiry: a fresh session left idle past -session-ttl answers 410.
curl -sf -X POST "http://$ADDR/session" >"$TMP/create2.json"
SID2="$(sed -n 's/.*"session_id": *"\([0-9a-f]*\)".*/\1/p' "$TMP/create2.json")"
sleep 3
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/session/ask" \
    -H "X-Session-ID: $SID2" -d '{"utterance": "how many are there"}')"
if [ "$code" != "410" ]; then
    echo "session-smoke: expired session returned $code, want 410" >&2
    status=1
fi

kill -TERM "$NLIDB_PID"
i=0
while kill -0 "$NLIDB_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "session-smoke: server did not exit within 10s of SIGTERM" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done

if [ "$status" -ne 0 ]; then
    echo "--- turn 1 ---" >&2
    cat "$TMP/t1.json" >&2
    echo "--- /query ---" >&2
    cat "$TMP/q1.json" >&2
    echo "--- turn 2 ---" >&2
    cat "$TMP/t2.json" >&2
    exit "$status"
fi
echo "session-smoke: ok (create → ask as /query → follow-up resolved → metrics → 410 after end/expiry, 404 unknown on $ADDR)"
