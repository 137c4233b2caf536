#!/usr/bin/env bash
# End-to-end smoke of the observability layer through the real binaries:
# start ektelo_served with EKTELO_TRACE=1, scrape `stats` once before
# any invocation (the cache series must already be registered), fire a
# few invocations, then scrape `stats` (validating Prometheus text
# exposition shape, that the invocation was counted as executed, and
# that a second scrape after one more invocation exposes the same
# histogram bucket series) and
# `trace --out` (validating the Chrome trace JSON parses and carries the
# full request lifecycle's span types).
#
#   scripts/obs_smoke.sh [BUILD_DIR]       # default: build
set -u

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/ektelo_served"
CLIENT="$BUILD_DIR/ektelo_client"
SOCK="/tmp/ek_obs_smoke_$$.sock"
WORK="$(mktemp -d /tmp/ek_obs_smoke.XXXXXX)"
LOG="$WORK/served.log"
FAILURES=0
SERVER_PID=""

fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$WORK" "$SOCK"
}
trap cleanup EXIT

[ -x "$SERVED" ] || { echo "missing $SERVED (build it first)" >&2; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build it first)" >&2; exit 1; }

echo "== start daemon with EKTELO_TRACE=1 =="
EKTELO_TRACE=1 EKTELO_SERVE_SLOW_MS=0 "$SERVED" --socket "$SOCK" \
  --ledger "$WORK/ledger" --tenant alpha:0.5:41:256:10000 \
  >> "$LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { fail "daemon did not come up"; exit 1; }

echo "== stats before any invocation already exposes the cache series =="
"$CLIENT" --socket "$SOCK" stats > "$WORK/metrics0.prom" \
  || fail "first stats failed"
for want in ektelo_cache_requests_total ektelo_cache_probe_seconds_bucket; do
  grep -q "^$want[{ ]" "$WORK/metrics0.prom" \
    || fail "missing metric before any invocation: $want"
done

# Sparse mode, so the strategy's conversion goes through the operator
# cache and its series are exported.
echo "== invoke (H2, sparse: full lifecycle under trace) =="
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan H2 --eps 0.1 \
  --mode sparse --request-id 7 > "$WORK/invoke.out" || fail "H2 invoke failed"
grep -q "code=OK" "$WORK/invoke.out" || fail "H2 invoke not OK"

echo "== stats is well-formed Prometheus text =="
"$CLIENT" --socket "$SOCK" stats > "$WORK/metrics.prom" \
  || fail "stats failed"
python3 - "$WORK/metrics.prom" <<'EOF' || fail "prometheus text malformed"
import re, sys
path = sys.argv[1]
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.+eE-]+$|'
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \+Inf$')
names = set()
executed = 0
ok = True
for line in open(path):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        continue
    if not sample.match(line):
        print("bad sample line:", line)
        ok = False
    names.add(line.split("{")[0].split(" ")[0])
    if line.startswith('ektelo_serve_requests_total{event="executed"} '):
        executed = float(line.split(" ")[1])
for want in ("ektelo_serve_requests_total",
             "ektelo_serve_stage_seconds_bucket",
             "ektelo_tenant_budget_eps",
             "ektelo_cache_requests_total"):
    if want not in names:
        print("missing metric:", want)
        ok = False
if executed < 1:
    print("executed requests:", executed, "want >= 1")
    ok = False
sys.exit(0 if ok else 1)
EOF

echo "== histogram bucket series are fixed from the first scrape =="
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan H2 --eps 0.05 \
  --mode sparse --request-id 8 > "$WORK/invoke2.out" \
  || fail "second H2 invoke failed"
grep -q "code=OK" "$WORK/invoke2.out" || fail "second H2 invoke not OK"
"$CLIENT" --socket "$SOCK" stats > "$WORK/metrics2.prom" \
  || fail "second stats failed"
python3 - "$WORK/metrics.prom" "$WORK/metrics2.prom" <<'EOF' \
  || fail "bucket series changed between scrapes"
import sys
def bucket_keys(path):
    return sorted(line.rsplit(" ", 1)[0] for line in open(path)
                  if "_bucket{" in line and not line.startswith("#"))
first, second = bucket_keys(sys.argv[1]), bucket_keys(sys.argv[2])
if first != second:
    print("only in first:", sorted(set(first) - set(second))[:5])
    print("only in second:", sorted(set(second) - set(first))[:5])
    sys.exit(1)
print("bucket series:", len(first))
EOF

echo "== trace --out is Perfetto-loadable Chrome trace JSON =="
"$CLIENT" --socket "$SOCK" trace --out "$WORK/trace.json" \
  || fail "trace fetch failed"
python3 - "$WORK/trace.json" <<'EOF' || fail "trace json malformed"
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = {e["name"] for e in events if e.get("ph") == "X"}
need = {"serve.queue_wait", "serve.charge", "serve.execute"}
missing = need - spans
if missing:
    print("missing span types:", sorted(missing))
    sys.exit(1)
if len(spans) < 6:
    print("too few distinct span types:", sorted(spans))
    sys.exit(1)
print("span types:", len(spans))
EOF

"$CLIENT" --socket "$SOCK" shutdown > /dev/null || fail "shutdown"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

if [ "$FAILURES" -eq 0 ]; then
  echo "obs smoke: PASS"
  exit 0
fi
echo "obs smoke: $FAILURES failure(s)" >&2
exit 1
