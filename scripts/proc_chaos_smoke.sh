#!/bin/sh
# proc_chaos_smoke.sh — real-process chaos over out-of-process shards.
#
# Starts cmd/nlidb -serve as a coordinator with -remote-shards spawn:2
# -replicas 2: the supervisor forks four REAL child processes (the same
# binary with -join S@E), ships each its CSV partition, and the
# coordinator routes over HTTP. Under a steady query load the smoke then
# SIGKILLs one replica of EVERY shard mid-flight and asserts the
# honesty-under-chaos contract:
#   - zero wrong answers: every 200 response either carries the correct
#     fleet-wide COUNT, or says so when it could not ("partial": true
#     with a smaller count); errors/sheds are honest refusals,
#   - the fleet reads values like the unsharded database does: one
#     "how many customers are in <city>" per distinct customer city is
#     asked through the fleet, before and during the kill window, and
#     must match the one-shot unsharded nlidb answer on the same seed
#     (the coordinator interprets over the full vocabulary; no child
#     sees a question),
#   - bounded recovery: the supervisor relaunches the killed children
#     (with backoff) and a correct non-partial answer returns within
#     the recovery deadline,
#   - the supervisor log shows the SIGKILL exits and the restarts,
#   - SIGTERM drains the coordinator, and no child process outlives it.
set -eu

PORT="${SERVE_PORT:-19377}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
NLIDB_PID=""
LOAD_PID=""
cleanup() {
    kill "$LOAD_PID" 2>/dev/null || true
    kill "$NLIDB_PID" 2>/dev/null || true
    # Belt and braces: no shard child may outlive the smoke. The children
    # run the tmp-dir binary, so the path is unique to this run.
    pkill -9 -f "$TMP/nlidb" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$TMP/nlidb" ./cmd/nlidb

# -cache 0: every query must pay the full scatter so the kill window is
# actually observed, not papered over by the answer cache.
"$TMP/nlidb" -serve "$ADDR" -remote-shards spawn:2 -replicas 2 -cache 0 \
    -drain-timeout 5s >"$TMP/out.log" 2>&1 &
NLIDB_PID=$!

# Readiness: the coordinator only listens after all four children have
# imported their partitions and passed /healthz, so give it a while.
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 300 ]; then
        echo "proc-chaos: $ADDR never came up" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done

if ! grep -q 'remote shards: 2 shards × 2 replicas' "$TMP/out.log"; then
    echo "proc-chaos: coordinator did not report the out-of-process topology" >&2
    cat "$TMP/out.log" >&2
    exit 1
fi
if [ "$(pgrep -cf "$TMP/nlidb .*-join")" -ne 4 ]; then
    echo "proc-chaos: expected 4 shard child processes, found:" >&2
    pgrep -af "$TMP/nlidb" >&2 || true
    exit 1
fi

QUESTION='{"question": "how many customers are there"}'

# count_of prints the single COUNT cell of a /query response, or nothing.
count_of() {
    printf '%s' "$1" | sed -n 's/.*"rows":\[\["\([0-9][0-9]*\)"\]\].*/\1/p'
}

# The unsharded truth, from one-shot runs of the same binary on the same
# seed: the distinct customer cities, then "city count" for each.
CITIES="$("$TMP/nlidb" "number of customers per city" | sed -n 's/^  \([A-Za-z][A-Za-z]*\) *| [0-9].*/\1/p')"
: >"$TMP/cities.txt"
for city in $CITIES; do
    want="$("$TMP/nlidb" "how many customers are in $city" | awk 'prev ~ /^  -+ *$/ { print $1; exit } { prev = $0 }')"
    echo "$city $want" >>"$TMP/cities.txt"
done
NCITIES="$(grep -c '^[A-Za-z][A-Za-z]* [0-9][0-9]*$' "$TMP/cities.txt" || true)"
if [ "$NCITIES" -lt 2 ]; then
    echo "proc-chaos: could not read per-city counts from the unsharded binary:" >&2
    cat "$TMP/cities.txt" >&2
    exit 1
fi

# check_cities PHASE asks the per-city question through the fleet and
# compares with the unsharded answer. A 200 must carry the same count, or
# be flagged partial with a count no larger; anything else is a wrong
# answer. Non-200s are honest refusals. Sets COMPARED and PARTIALS.
WRONG=0
check_cities() {
    COMPARED=0
    PARTIALS=0
    while read -r city want; do
        q="how many customers are in $city"
        got_json="$(curl -s -m 5 -X POST "http://$ADDR/query" -d "{\"question\": \"$q\"}" || true)"
        got="$(count_of "$got_json")"
        [ -z "$got" ] && continue
        COMPARED=$((COMPARED + 1))
        if printf '%s' "$got_json" | grep -q '"partial": *true'; then
            PARTIALS=$((PARTIALS + 1))
            if [ "$got" -gt "$want" ]; then
                echo "proc-chaos: $1: \"$q\": partial answer $got exceeds the unsharded $want" >&2
                WRONG=$((WRONG + 1))
            fi
        elif [ "$got" != "$want" ]; then
            echo "proc-chaos: $1: WRONG answer for \"$q\": fleet $got, unsharded $want: $got_json" >&2
            WRONG=$((WRONG + 1))
        fi
    done <"$TMP/cities.txt"
}

# Ground truth from the healthy fleet.
curl -sf -X POST "http://$ADDR/query" -d "$QUESTION" >"$TMP/base.json"
TOTAL="$(count_of "$(cat "$TMP/base.json")")"
if [ -z "$TOTAL" ]; then
    echo "proc-chaos: baseline COUNT unreadable: $(cat "$TMP/base.json")" >&2
    exit 1
fi
if grep -q '"partial": *true' "$TMP/base.json"; then
    echo "proc-chaos: healthy fleet answered partial: $(cat "$TMP/base.json")" >&2
    exit 1
fi

# Healthy fleet: every city answers, whole, with the unsharded count.
check_cities healthy
if [ "$COMPARED" -ne "$NCITIES" ] || [ "$PARTIALS" -ne 0 ] || [ "$WRONG" -ne 0 ]; then
    echo "proc-chaos: healthy fleet answered $COMPARED of $NCITIES city questions ($PARTIALS partial, $WRONG wrong)" >&2
    cat "$TMP/out.log" >&2
    exit 1
fi

# Steady load, one response per line.
(
    while :; do
        curl -s -m 5 -X POST "http://$ADDR/query" -d "$QUESTION" >>"$TMP/load.jsonl" 2>/dev/null || true
        printf '\n' >>"$TMP/load.jsonl"
        sleep 0.02
    done
) &
LOAD_PID=$!
sleep 0.5

# Mid-load: SIGKILL one replica of EVERY shard. Children carry their
# shard assignment as -join S@E on the command line.
for s in 0 1; do
    CHILD="$(pgrep -f "$TMP/nlidb .*-join ${s}@" | head -1)"
    if [ -z "$CHILD" ]; then
        echo "proc-chaos: no child found for shard $s" >&2
        exit 1
    fi
    kill -9 "$CHILD"
done

# Inside the kill window the same questions must stay right: the
# surviving replicas answer, or the answer says it is partial.
check_cities kill-window
CITY_ANSWERS=$((NCITIES + COMPARED))

# Let the load run through the kill window.
sleep 1

# Bounded recovery: the supervisor must relaunch the killed children and
# a correct, non-partial answer must return within the deadline.
RECOVERED=""
i=0
while [ "$i" -lt 300 ]; do
    ANS="$(curl -s -m 5 -X POST "http://$ADDR/query" -d "$QUESTION" || true)"
    case "$ANS" in
    *'"rows":[["'"$TOTAL"'"]]'*)
        if ! printf '%s' "$ANS" | grep -q '"partial": *true'; then
            RECOVERED=1
            break
        fi
        ;;
    esac
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$RECOVERED" ]; then
    echo "proc-chaos: no correct non-partial answer within 30s of the kills" >&2
    cat "$TMP/out.log" >&2
    exit 1
fi

kill "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
LOAD_PID=""

status=0

# Zero wrong answers: every 200 under chaos is either the correct total
# or an honest partial (smaller count, flagged). Non-200s (sheds, shard
# down) are honest refusals and don't count against correctness.
ANSWERS=0
while IFS= read -r line; do
    [ -z "$line" ] && continue
    count="$(count_of "$line")"
    [ -z "$count" ] && continue
    ANSWERS=$((ANSWERS + 1))
    if printf '%s' "$line" | grep -q '"partial": *true'; then
        if [ "$count" -ge "$TOTAL" ]; then
            echo "proc-chaos: partial answer claims count $count >= total $TOTAL" >&2
            WRONG=$((WRONG + 1))
        fi
    elif [ "$count" -ne "$TOTAL" ]; then
        echo "proc-chaos: WRONG answer: count $count != $TOTAL and not flagged partial: $line" >&2
        WRONG=$((WRONG + 1))
    fi
done <"$TMP/load.jsonl"
if [ "$ANSWERS" -lt 5 ]; then
    echo "proc-chaos: load loop produced only $ANSWERS answers" >&2
    status=1
fi
if [ "$WRONG" -ne 0 ]; then
    echo "proc-chaos: $WRONG wrong answers out of $ANSWERS" >&2
    status=1
fi

# The supervisor must have seen the SIGKILLs and scheduled restarts.
if ! grep -q 'signal: killed' "$TMP/out.log"; then
    echo "proc-chaos: supervisor log shows no SIGKILL exit" >&2
    status=1
fi
if ! grep -q 'restarting in' "$TMP/out.log"; then
    echo "proc-chaos: supervisor log shows no restart event" >&2
    status=1
fi

# SIGTERM must drain the coordinator AND reap every child.
kill -TERM "$NLIDB_PID"
i=0
while kill -0 "$NLIDB_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "proc-chaos: coordinator did not exit within 10s of SIGTERM" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.1
done
NLIDB_PID=""
if ! grep -q 'drained' "$TMP/out.log"; then
    echo "proc-chaos: no drain log line" >&2
    status=1
fi
sleep 0.3
if pgrep -f "$TMP/nlidb" >/dev/null 2>&1; then
    echo "proc-chaos: shard children outlived the coordinator:" >&2
    pgrep -af "$TMP/nlidb" >&2 || true
    pkill -9 -f "$TMP/nlidb" 2>/dev/null || true
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "--- coordinator log ---" >&2
    cat "$TMP/out.log" >&2
    exit "$status"
fi
echo "proc-chaos: ok ($ANSWERS load answers and $CITY_ANSWERS per-city answers under real-process SIGKILL chaos, 0 wrong; children restarted and reaped on $ADDR)"
