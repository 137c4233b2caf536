#!/usr/bin/env bash
# End-to-end smoke of the serving daemon through its real binaries:
# start ektelo_served with two tenants, fire concurrent ektelo_client
# invocations, drive one tenant to budget exhaustion (asserting the
# documented exit code 2), restart the daemon on the same ledger and
# check the spent budget survived, then shut down cleanly.
#
#   scripts/serve_smoke.sh [BUILD_DIR]       # default: build
set -u

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/ektelo_served"
CLIENT="$BUILD_DIR/ektelo_client"
SOCK="/tmp/ek_smoke_$$.sock"
LEDGER="$(mktemp -d /tmp/ek_smoke_ledger.XXXXXX)"
LOG="$LEDGER/served.log"
FAILURES=0
SERVER_PID=""

fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$LEDGER" "$SOCK"
}
trap cleanup EXIT

[ -x "$SERVED" ] || { echo "missing $SERVED (build it first)" >&2; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build it first)" >&2; exit 1; }

start_server() {
  "$SERVED" --socket "$SOCK" --ledger "$LEDGER" \
    --tenant alpha:0.5:41:256:10000 --tenant beta:2.0:43:256:10000 \
    >> "$LOG" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "daemon did not come up"; return 1
}

echo "== start daemon (two tenants, alpha budget 0.5) =="
start_server || exit 1

echo "== concurrent invocations across tenants =="
CLIENT_PIDS=""
for i in 1 2 3 4; do
  "$CLIENT" --socket "$SOCK" invoke --tenant beta --plan Identity \
    --eps 0.1 --request-id "$i" > "$LEDGER/out.$i" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
for pid in $CLIENT_PIDS; do
  wait "$pid" || fail "concurrent client pid $pid exited nonzero"
done
for i in 1 2 3 4; do
  grep -q "code=OK" "$LEDGER/out.$i" || fail "concurrent invoke $i not OK"
done
# All four share one request structure: identical answers, bit for bit.
if [ "$(sed 's/.*estimate_checksum=\([0-9a-f]*\).*/\1/' \
        "$LEDGER"/out.[1-4] | sort -u | wc -l)" != 1 ]; then
  fail "identical requests returned different estimates"
fi

echo "== drive alpha to exhaustion =="
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity --eps 0.5 \
  > /dev/null || fail "in-budget alpha invoke refused"
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity --eps 0.25
rc=$?
[ "$rc" -eq 2 ] || fail "exhausted tenant: want exit 2, got $rc"

echo "== restart preserves spent budget =="
"$CLIENT" --socket "$SOCK" shutdown > /dev/null || fail "shutdown request"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER_PID" 2>/dev/null && fail "daemon ignored shutdown request"
SERVER_PID=""
grep -q "clean shutdown" "$LOG" || fail "no clean-shutdown line in log"

start_server || exit 1
STATS="$("$CLIENT" --socket "$SOCK" stats)"
echo "$STATS" | grep -qxF 'ektelo_tenant_budget_eps{tenant="alpha",kind="total"} 0.5' \
  || fail "alpha total not preserved across restart: $STATS"
echo "$STATS" | grep -qxF 'ektelo_tenant_budget_eps{tenant="alpha",kind="spent"} 0.5' \
  || fail "alpha spent not preserved across restart: $STATS"
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity --eps 0.1 \
  > /dev/null
rc=$?
[ "$rc" -eq 2 ] || fail "alpha still exhausted after restart: want 2, got $rc"

"$CLIENT" --socket "$SOCK" shutdown > /dev/null || fail "final shutdown"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

if [ "$FAILURES" -eq 0 ]; then
  echo "serve smoke: PASS"
  exit 0
fi
echo "serve smoke: $FAILURES failure(s)" >&2
exit 1
