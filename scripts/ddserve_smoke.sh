#!/bin/sh
# ddserve end-to-end smoke test: boot the daemon, run a sweep, re-submit it
# to prove the cache serves the repeat, answer a what-if query, fetch every
# artifact of an instrumented cell (fresh and from the cache), and shut
# down gracefully with SIGTERM. Needs only a POSIX shell, curl, and cmp.
set -eu

PORT="${DDSERVE_PORT:-8077}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

fail() { echo "ddserve smoke: FAIL: $*" >&2; exit 1; }

go build -o "$DIR/ddserve" ./cmd/ddserve
"$DIR/ddserve" -addr "127.0.0.1:$PORT" -workers 2 >"$DIR/daemon.log" 2>&1 &
PID=$!

# Wait for the daemon to come up.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { cat "$DIR/daemon.log" >&2; fail "daemon never became healthy"; }
    sleep 0.2
done
echo "ddserve smoke: daemon healthy on $BASE"

cat >"$DIR/sweep.json" <<'EOF'
{"cores":2,"warmupMs":5,"measureMs":20,
 "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}],
 "sweep":[{"param":"count:bg","values":[1,2]}]}
EOF

# Sweep: two cells, run synchronously.
curl -sf -X POST --data-binary @"$DIR/sweep.json" "$BASE/v1/sweeps?wait=1" >"$DIR/job1.json"
grep -q '"state":"done"' "$DIR/job1.json" || { cat "$DIR/job1.json" >&2; fail "sweep did not finish"; }
curl -sf "$BASE/v1/jobs/j1/result" >"$DIR/res1.json"
grep -q '"grid":2' "$DIR/res1.json" || { cat "$DIR/res1.json" >&2; fail "sweep result missing grid"; }
grep -q 'count:bg=2' "$DIR/res1.json" || fail "sweep result missing cell labels"
echo "ddserve smoke: sweep of 2 cells done"

# Same spec again: must be served from the cache, byte-identical.
curl -sf -X POST --data-binary @"$DIR/sweep.json" "$BASE/v1/sweeps?wait=1" >"$DIR/job2.json"
grep -q '"cachedCells":2' "$DIR/job2.json" || { cat "$DIR/job2.json" >&2; fail "repeat sweep not served from cache"; }
curl -sf "$BASE/v1/jobs/j2/result" >"$DIR/res2.json"
cmp -s "$DIR/res1.json" "$DIR/res2.json" || fail "cached result differs from fresh run"
curl -sf "$BASE/metrics.json" >"$DIR/metrics.json"
grep -q '"cellsRun":2' "$DIR/metrics.json" || { cat "$DIR/metrics.json" >&2; fail "cache hit still re-simulated"; }
echo "ddserve smoke: repeat sweep served from cache, byte-identical"

# Prometheus scrape: /metrics serves text exposition with the fleet
# layer-latency summaries fed by the always-on profiler.
curl -sf "$BASE/metrics" >"$DIR/metrics.prom"
grep -q '^ddserve_cells_run_total 2$' "$DIR/metrics.prom" || { cat "$DIR/metrics.prom" >&2; fail "prometheus cells_run counter wrong"; }
grep -q '^# TYPE ddserve_layer_latency_seconds summary$' "$DIR/metrics.prom" || { cat "$DIR/metrics.prom" >&2; fail "prometheus exposition missing layer summaries"; }
grep -q 'ddserve_layer_latency_seconds{stack="daredevil",class="L",layer="queue_wait",quantile="0.99"}' "$DIR/metrics.prom" || fail "prometheus exposition missing layer quantile sample"
echo "ddserve smoke: prometheus exposition OK"

# What-if threshold query over the same base scenario (probes reuse cache).
cat >"$DIR/whatif.json" <<'EOF'
{"scenario":{"cores":2,"warmupMs":5,"measureMs":20,
  "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}]},
 "query":{"param":"count:bg","min":1,"max":4,"metric":"l_p99","sloUs":1000000}}
EOF
curl -sf -X POST --data-binary @"$DIR/whatif.json" "$BASE/v1/whatif?wait=1" >"$DIR/job3.json"
grep -q '"state":"done"' "$DIR/job3.json" || { cat "$DIR/job3.json" >&2; fail "whatif did not finish"; }
curl -sf "$BASE/v1/jobs/j3/result" >"$DIR/whatif-res.json"
grep -q '"answer":4' "$DIR/whatif-res.json" || { cat "$DIR/whatif-res.json" >&2; fail "whatif answer wrong"; }
echo "ddserve smoke: what-if answered"

# Artifacts: a one-cell sweep with tracing, metrics sampling, and the
# profiler armed. Every name the result lists must serve a non-empty body
# with the Content-Type its extension implies; the resubmitted (cached)
# cell must serve the same bytes.
cat >"$DIR/instrumented.json" <<'EOF'
{"cores":2,"warmupMs":5,"measureMs":20,"trace":true,"obsWindowUs":1000,"profile":true,
 "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}],
 "sweep":[{"param":"count:bg","values":[1]}]}
EOF
curl -sf -X POST --data-binary @"$DIR/instrumented.json" "$BASE/v1/sweeps?wait=1" >"$DIR/job4.json"
grep -q '"state":"done"' "$DIR/job4.json" || { cat "$DIR/job4.json" >&2; fail "instrumented sweep did not finish"; }
curl -sf "$BASE/v1/jobs/j4/result" >"$DIR/res4.json"
ARTIFACTS=$(grep -o '"artifacts":\[[^]]*\]' "$DIR/res4.json" | sed 's/.*\[//; s/\]//; s/"//g; s/,/ /g')
for want in trace.json trace.txt metrics.csv metrics.svg profile.txt profile.folded profile.svg profile.json; do
    case " $ARTIFACTS " in
    *" $want "*) ;;
    *) cat "$DIR/res4.json" >&2; fail "instrumented cell does not list $want" ;;
    esac
done
mkdir "$DIR/fresh" "$DIR/cached"
for name in $ARTIFACTS; do
    case "$name" in
    *.json) want="application/json" ;;
    *.csv) want="text/csv" ;;
    *.svg) want="image/svg+xml" ;;
    *) want="text/plain; charset=utf-8" ;;
    esac
    ctype=$(curl -sf -o "$DIR/fresh/$name" -w '%{content_type}' "$BASE/v1/jobs/j4/cells/0/$name") || fail "fetching $name"
    [ -s "$DIR/fresh/$name" ] || fail "$name is empty"
    [ "$ctype" = "$want" ] || fail "$name served as \"$ctype\", want \"$want\""
done
curl -sf -X POST --data-binary @"$DIR/instrumented.json" "$BASE/v1/sweeps?wait=1" >"$DIR/job5.json"
grep -q '"cachedCells":1' "$DIR/job5.json" || { cat "$DIR/job5.json" >&2; fail "instrumented repeat not served from cache"; }
for name in $ARTIFACTS; do
    curl -sf -o "$DIR/cached/$name" "$BASE/v1/jobs/j5/cells/0/$name" || fail "fetching cached $name"
    cmp -s "$DIR/fresh/$name" "$DIR/cached/$name" || fail "cached $name differs from the fresh run"
done
echo "ddserve smoke: $(echo "$ARTIFACTS" | wc -w | tr -d ' ') artifacts served, cache hit byte-identical"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "daemon did not exit after SIGTERM"
    sleep 0.2
done
wait "$PID" 2>/dev/null || fail "daemon exited non-zero after SIGTERM"
grep -q 'drained, bye' "$DIR/daemon.log" || { cat "$DIR/daemon.log" >&2; fail "daemon did not report a clean drain"; }
echo "ddserve smoke: graceful drain OK"
echo "ddserve smoke: PASS"
