#!/bin/sh
# End-to-end smoke test of every CLI tool. Exercises the full pipeline:
# generate → profile → simulate → sweep → offline-solve → synthesise →
# experiments. Exits non-zero on the first failure.
set -eu

dir="$(mktemp -d)"
servd_pid=""
fleet_pids=""
cleanup() {
    [ -n "$servd_pid" ] && kill "$servd_pid" 2> /dev/null || true
    for p in $fleet_pids; do kill -9 "$p" 2> /dev/null || true; done
    rm -rf "$dir"
}
trap cleanup EXIT
cd "$(dirname "$0")/.."

echo "== mcvet (analyzer self-check, JSON output) =="
go run ./cmd/mcvet -json "$dir/mcvet.json" ./...
grep -q '^\[\]$' "$dir/mcvet.json"   # zero findings serialize as an empty array

echo "== mcgen (text + binary) =="
go run ./cmd/mcgen -kind phased -cores 4 -length 2000 -pages 32 -seed 7 -o "$dir/t.txt"
go run ./cmd/mcgen -kind markov -cores 2 -length 1000 -pages 16 -seed 7 -binary -o "$dir/t.bin"
go run ./cmd/mcgen -kind lemma4 -cores 2 -k 4 -length 500 -o "$dir/adv.txt"

echo "== mcstat =="
go run ./cmd/mcstat -trace "$dir/t.txt" -k 16 > /dev/null

echo "== mcsim (portfolio, binary input, events) =="
go run ./cmd/mcsim -trace "$dir/t.txt" -k 16 -tau 4 -all > /dev/null
go run ./cmd/mcsim -trace "$dir/t.bin" -k 8 -tau 2 -strategy 'dP[ucp](LRU)' -events "$dir/ev.csv" > /dev/null
test -s "$dir/ev.csv"
go run ./cmd/mcsim -trace "$dir/t.txt" -k 16 -tau 4 -strategy 'dP[ucp](ARC)' > /dev/null

echo "== mcsim (elastic capacity: eP under a mid-run shrink) =="
go run ./cmd/mcsim -trace "$dir/t.txt" -k 16 -tau 4 -strategy 'eP[fair](LRU)' \
    -capacity 'step(to=50%,at=1000)' -events "$dir/ev_cap.csv" > /dev/null
grep -q ',capacity,k$' "$dir/ev_cap.csv"   # elastic runs export the K(t) columns

echo "== mcsweep =="
go run ./cmd/mcsweep -trace "$dir/t.txt" -k 8,16 -tau 0,4 \
    -strategies 'S(LRU),S(ARC),dP[fair](LRU)' -csv > "$dir/sweep.csv"
test "$(wc -l < "$dir/sweep.csv")" -eq 13   # header + 2*2*3 rows

echo "== mcopt (FTF + PIF) =="
go run ./cmd/mcgen -kind uniform -cores 2 -length 5 -pages 3 -seed 3 -o "$dir/tiny.txt" 2> /dev/null
go run ./cmd/mcopt -trace "$dir/tiny.txt" -k 3 -tau 1 > /dev/null
go run ./cmd/mcopt -trace "$dir/tiny.txt" -k 3 -tau 1 -pif -t 10 -b 3,3 > /dev/null

echo "== mcadv =="
go run ./cmd/mcadv -strategy 'S(LRU)' -p 2 -k 3 -tau 1 -iters 60 -restarts 2 -o "$dir/witness.txt" > /dev/null
go run ./cmd/mcsim -trace "$dir/witness.txt" -k 3 -tau 1 > /dev/null

echo "== mcverify (tiny manifest, report, baseline gate) =="
go run ./cmd/mcverify -list-families | grep -q zipf
go run ./cmd/mcverify -manifest internal/verify/testdata/claims_tiny.json \
    -baseline "" -claims tiny-thm1 -o "$dir/verdicts.jsonl" > /dev/null
grep -q '"status":"HOLDS"' "$dir/verdicts.jsonl"
# The committed manifest gate itself (quick mode) runs in its own CI
# job and in cmd/mcverify's tests; smoke only proves the plumbing.

echo "== mcexp (quick, markdown) =="
go run ./cmd/mcexp -quick > /dev/null
go run ./cmd/mcexp -exp E7 -quick -format md > /dev/null

echo "== mcservd (job, cache hit, sweep, metrics, graceful stop) =="
go build -o "$dir/mcservd" ./cmd/mcservd
"$dir/mcservd" -addr 127.0.0.1:0 -addr-file "$dir/mcservd.addr" -workers 2 \
    2> "$dir/mcservd.log" &
servd_pid=$!
i=0
while [ ! -s "$dir/mcservd.addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "mcservd did not start"; cat "$dir/mcservd.log"; exit 1; }
    sleep 0.1
done
base="http://$(cat "$dir/mcservd.addr")"
curl -sf "$base/healthz" > /dev/null
curl -sf "$base/readyz" > /dev/null
curl -sf "$base/strategies" | grep -q 'S(LRU)'
job='{"trace":{"workload":{"cores":2,"length":2000,"pages":32,"kind":"zipf","seed":5}},"strategy":"S(LRU)","k":16,"tau":4}'
curl -sf -X POST -H 'Content-Type: application/json' -d "$job" "$base/v1/jobs" \
    | grep -q '"cached":false'
curl -sf -X POST -H 'Content-Type: application/json' -d "$job" "$base/v1/jobs" \
    | grep -q '"cached":true'
curl -sf "$base/metrics" > "$dir/metrics.txt"
grep -q '^mcservd_cache_hits_total 1$' "$dir/metrics.txt"
grep -q '^mcservd_jobs_completed_total 1$' "$dir/metrics.txt"
grep -q '^mcpaging_requests_total' "$dir/metrics.txt"   # telemetry snapshot
sweep='{"trace":{"workload":{"cores":2,"length":2000,"pages":32,"kind":"zipf","seed":5}},"ks":[8,16],"taus":[0,4],"strategies":["S(LRU)","S(FIFO)"]}'
test "$(curl -sf -X POST -H 'Content-Type: application/json' -d "$sweep" "$base/v1/sweep" | wc -l)" -eq 8
kill -TERM "$servd_pid"
wait "$servd_pid"   # graceful drain must exit 0
servd_pid=""

echo "== mcfleet (routing, byte-identical merge, mid-sweep worker kill) =="
go build -o "$dir/mcfleet" ./cmd/mcfleet
start_worker() {
    # $1: name. Appends the worker's pid to fleet_pids; its base URL is
    # read from "$dir/$1.addr" afterwards. Runs in the parent shell (no
    # command substitution: a subshell's pid bookkeeping would be lost,
    # and the background child would hold the substitution pipe open).
    "$dir/mcservd" -addr 127.0.0.1:0 -addr-file "$dir/$1.addr" -workers 2 \
        -worker-id "$1" > /dev/null 2> "$dir/$1.log" &
    fleet_pids="$fleet_pids $!"
    i=0
    while [ ! -s "$dir/$1.addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "worker $1 did not start"; cat "$dir/$1.log"; exit 1; }
        sleep 0.1
    done
}
start_worker wa; wa_pid="${fleet_pids##* }"; wa="http://$(cat "$dir/wa.addr")"
start_worker wb; wb="http://$(cat "$dir/wb.addr")"
start_worker wc; wc_="http://$(cat "$dir/wc.addr")"
"$dir/mcfleet" -addr 127.0.0.1:0 -addr-file "$dir/fleet.addr" \
    -worker "$wa,$wb,$wc_" 2> "$dir/fleet.log" &
fleet_pids="$fleet_pids $!"
fleet_coord_pid=$!
i=0
while [ ! -s "$dir/fleet.addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "mcfleet did not start"; cat "$dir/fleet.log"; exit 1; }
    sleep 0.1
done
fbase="http://$(cat "$dir/fleet.addr")"
curl -sf "$fbase/healthz" > /dev/null
curl -sf "$fbase/readyz" > /dev/null
curl -sf "$fbase/v1/workers" | grep -q '"healthy"'
curl -sf "$fbase/strategies" | grep -q 'S(LRU)'
# Acceptance check 1: the fleet's merged sweep stream is byte-identical
# to the same sweep on one fresh standalone node (both compute every
# cell, so the caches cannot mask a divergence).
"$dir/mcservd" -addr 127.0.0.1:0 -addr-file "$dir/solo.addr" -workers 2 \
    2> "$dir/solo.log" &
fleet_pids="$fleet_pids $!"
i=0
while [ ! -s "$dir/solo.addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "solo mcservd did not start"; cat "$dir/solo.log"; exit 1; }
    sleep 0.1
done
solo="http://$(cat "$dir/solo.addr")"
curl -sf -X POST -H 'Content-Type: application/json' -d "$sweep" "$fbase/v1/sweep" > "$dir/fleet_sweep.jsonl"
curl -sf -X POST -H 'Content-Type: application/json' -d "$sweep" "$solo/v1/sweep" > "$dir/solo_sweep.jsonl"
cmp "$dir/fleet_sweep.jsonl" "$dir/solo_sweep.jsonl"
# Acceptance check 2: SIGKILL a worker mid-sweep; the coordinator must
# re-route its cells and still deliver every cell exactly once. The
# bigger grid keeps the sweep in flight long enough for the kill to
# land mid-stream (and the check holds either way).
big='{"trace":{"workload":{"cores":4,"length":60000,"pages":256,"kind":"zipf","seed":11}},"ks":[8,16,32,64],"taus":[0,2,4],"strategies":["S(LRU)","S(FIFO)","dP[ucp](LRU)"]}'
curl -sf --no-buffer -X POST -H 'Content-Type: application/json' -d "$big" \
    "$fbase/v1/sweep" > "$dir/kill_sweep.jsonl" &
sweep_curl=$!
sleep 0.5
kill -9 "$wa_pid"
wait "$sweep_curl"
test "$(wc -l < "$dir/kill_sweep.jsonl")" -eq 36   # 4*3*3 cells, none lost
! grep -q '"error"' "$dir/kill_sweep.jsonl"
test "$(grep -o '"key":"[0-9a-f]*"' "$dir/kill_sweep.jsonl" | sort | wc -l)" -eq 36
test "$(grep -o '"key":"[0-9a-f]*"' "$dir/kill_sweep.jsonl" | sort -u | wc -l)" -eq 36
curl -sf "$fbase/metrics" | grep -q '^mcfleet_ready 1$'
kill -TERM "$fleet_coord_pid"
wait "$fleet_coord_pid"   # graceful coordinator drain must exit 0

echo "smoke: all tools OK"
