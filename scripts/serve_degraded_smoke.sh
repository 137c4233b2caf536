#!/usr/bin/env bash
# Fail-closed smoke of the serving daemon: inject one budget-ledger
# append error (EKTELO_FAILPOINTS, see README "Fault tolerance") into a
# running daemon and assert that
#   - the invoke whose charge could not be made durable is refused with
#     DURABILITY_ERROR (client exit 7) and releases nothing,
#   - the daemon keeps answering: the next invoke succeeds, and
#   - the `stats` scrape reports one refused_durability event and a
#     tenant `spent` equal to the released answers only.
#
# The ledger is created by a first, fault-free start, so the armed
# `ledger.append=error.eio@1` fires on the first charge rather than on
# tenant registration.  Requires a build with failpoints compiled in
# (the default; see -DEKTELO_FAILPOINTS in CMakeLists.txt).
#
#   scripts/serve_degraded_smoke.sh [BUILD_DIR]    # default: build
set -u

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/ektelo_served"
CLIENT="$BUILD_DIR/ektelo_client"
WORK="$(mktemp -d /tmp/ek_degraded_smoke.XXXXXX)"
SOCK="$WORK/served.sock"
FAILURES=0
SERVER_PID=""

fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

[ -x "$SERVED" ] || { echo "missing $SERVED (build it first)" >&2; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build it first)" >&2; exit 1; }

# start_server [FAILPOINTS]: one ledger directory shared by both starts.
start_server() {
  rm -f "$SOCK"
  EKTELO_FAILPOINTS="${1:-}" \
    "$SERVED" --socket "$SOCK" --ledger "$WORK/ledger" \
    --tenant alpha:4.0:41:256:10000 \
    >> "$WORK/served.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "daemon did not come up"; return 1
}

stop_server() {
  "$CLIENT" --socket "$SOCK" shutdown > /dev/null || fail "shutdown request"
  for _ in $(seq 1 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  kill -0 "$SERVER_PID" 2>/dev/null && fail "daemon ignored shutdown"
  SERVER_PID=""
}

invoke() {
  "$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity \
    --eps 0.25 --request-id "$1"
}

echo "== first start: register the tenant =="
start_server || exit 1
stop_server

echo "== restart with the first ledger append failing with EIO =="
start_server "ledger.append=error.eio@1" || exit 1
OUT="$(invoke 1)"
rc=$?
[ "$rc" -eq 7 ] || fail "failed charge: want exit 7, got $rc ($OUT)"
echo "$OUT" | grep -q "code=DURABILITY_ERROR" \
  || fail "failed charge not reported as DURABILITY_ERROR: $OUT"
echo "$OUT" | grep -q " n=0 " || fail "failed charge released an estimate: $OUT"

echo "== the daemon keeps answering =="
OUT="$(invoke 2)"
rc=$?
[ "$rc" -eq 0 ] || fail "invoke after the failed charge: exit $rc ($OUT)"
echo "$OUT" | grep -q "code=OK" || fail "invoke after the failed charge not OK"

echo "== stats count the refusal and only the released budget =="
STATS="$("$CLIENT" --socket "$SOCK" stats)"
echo "$STATS" | grep -qxF 'ektelo_serve_requests_total{event="refused_durability"} 1' \
  || fail "stats do not report one refused_durability event: $STATS"
echo "$STATS" | grep -qxF 'ektelo_tenant_budget_eps{tenant="alpha",kind="total"} 4' \
  || fail "alpha's total budget is not 4: $STATS"
echo "$STATS" | grep -qxF 'ektelo_tenant_budget_eps{tenant="alpha",kind="spent"} 0.25' \
  || fail "alpha's spent budget is not the one released answer: $STATS"
stop_server

if [ "$FAILURES" -eq 0 ]; then
  echo "serve degraded smoke: PASS"
  exit 0
fi
echo "serve degraded smoke: $FAILURES failure(s)" >&2
exit 1
