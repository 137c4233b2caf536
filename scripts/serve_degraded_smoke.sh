#!/usr/bin/env bash
# Graceful-degradation smoke of the serving daemon: inject one disk-tier
# I/O error (EKTELO_FAILPOINTS, see README "Fault tolerance") into a
# daemon whose operator cache has a disk tier attached, and assert that
#   - the daemon keeps answering (memory tier) with replies bitwise
#     identical to a healthy run's, and
#   - stats report disk_degraded=1 with a nonzero disk_io_errors count.
#
# Requires a build with failpoints compiled in (the default; see
# -DEKTELO_FAILPOINTS in CMakeLists.txt).
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

# start_server NAME [FAILPOINTS]: fresh ledger + cache dir per run so the
# two runs are independent.  Disk spills run on the write-behind
# consumer, so the injected append error fires on that background
# thread; await_degraded below polls stats until it has landed.
start_server() {
  local name="$1" failpoints="${2:-}"
  rm -f "$SOCK"
  EKTELO_CACHE_DIR="$WORK/cache.$name" \
  EKTELO_FAILPOINTS="$failpoints" \
    "$SERVED" --socket "$SOCK" --ledger "$WORK/ledger.$name" \
    --tenant alpha:4.0:41:256:10000 \
    >> "$WORK/served.$name.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "daemon ($name) did not come up"; return 1
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

# await_degraded: poll stats (at most 50 x 0.1 s) until the background
# spill has tripped the disk tier; leaves the last reply in $STATS.
await_degraded() {
  for _ in $(seq 1 50); do
    STATS="$("$CLIENT" --socket "$SOCK" stats)"
    echo "$STATS" | grep -q "disk_degraded=1" && return 0
    sleep 0.1
  done
  return 1
}

checksum_of() { sed 's/.*estimate_checksum=\([0-9a-f]*\).*/\1/' "$1"; }

echo "== healthy run: record the reference reply =="
start_server healthy || exit 1
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity \
  --eps 0.25 --request-id 1 > "$WORK/healthy.out" \
  || fail "healthy invoke exited nonzero"
grep -q "code=OK" "$WORK/healthy.out" || fail "healthy invoke not OK"
STATS="$("$CLIENT" --socket "$SOCK" stats)"
echo "$STATS" | grep -q "disk_degraded=0" \
  || fail "healthy run unexpectedly degraded: $STATS"
stop_server

echo "== degraded run: first disk append fails with EIO =="
start_server degraded "store.data.append=error.eio@1" || exit 1
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity \
  --eps 0.25 --request-id 1 > "$WORK/degraded.out" \
  || fail "invoke against degraded disk tier exited nonzero"
grep -q "code=OK" "$WORK/degraded.out" \
  || fail "invoke against degraded disk tier not OK"

if [ "$(checksum_of "$WORK/healthy.out")" != \
     "$(checksum_of "$WORK/degraded.out")" ]; then
  fail "degraded reply differs from healthy reply"
fi

echo "== degraded daemon keeps answering and reports it =="
"$CLIENT" --socket "$SOCK" invoke --tenant alpha --plan Identity \
  --eps 0.25 --request-id 2 > /dev/null \
  || fail "second invoke after degradation exited nonzero"
await_degraded || fail "stats never reported disk_degraded=1: $STATS"
echo "$STATS" | grep -Eq "disk_io_errors=[1-9]" \
  || fail "stats do not report a disk I/O error: $STATS"
stop_server

if [ "$FAILURES" -eq 0 ]; then
  echo "serve degraded smoke: PASS"
  exit 0
fi
echo "serve degraded smoke: $FAILURES failure(s)" >&2
exit 1
