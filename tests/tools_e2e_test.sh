#!/usr/bin/env bash
# End-to-end test of the standalone deployment: 4 zht-server daemons over
# real TCP/UDP on localhost, driven by zht-cli (including the batched
# mput/mget commands).
set -euo pipefail

BUILD_DIR="$1"
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  local status=$?
  if [ "${#PIDS[@]}" -gt 0 ]; then
    kill "${PIDS[@]}" 2>/dev/null || true
    # Reap them so their ports are free before the next run binds.
    wait "${PIDS[@]}" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ]; then
    # Any failed check: show what every daemon said (bind errors, crashes).
    for log in "$WORK"/s*.log; do
      [ -e "$log" ] || continue
      echo "---- $(basename "$log") ----"
      cat "$log"
    done
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

step() { echo "== $*"; }

# Fixed ports below the kernel's ephemeral range (32768+ on Linux), so no
# other test's outgoing sockets can be holding them.
step "writing neighbor file"
cat > "$WORK/neighbors.conf" <<NEIGH
127.0.0.1:24310
127.0.0.1:24311
127.0.0.1:24312
127.0.0.1:24313
NEIGH

step "starting 4 zht-server daemons"
for i in 0 1 2 3; do
  "$BUILD_DIR/tools/zht-server" --neighbors "$WORK/neighbors.conf" \
      --self "$i" > "$WORK/s$i.log" 2>&1 &
  PIDS+=($!)
done

step "waiting for every daemon to answer ping"
for i in 0 1 2 3; do
  for attempt in $(seq 1 50); do
    if "$BUILD_DIR/tools/zht-cli" --neighbors "$WORK/neighbors.conf" \
        ping "$i" 2>/dev/null | grep -q OK; then
      break
    fi
    if [ "$attempt" -eq 50 ]; then
      echo "daemon $i never answered ping" >&2
      exit 1
    fi
    sleep 0.1
  done
done
# A daemon that failed to bind exits; a ping answered by some other
# process on its port must not pass for it.
for i in 0 1 2 3; do
  if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
    echo "daemon $i exited during startup" >&2
    exit 1
  fi
done

cli() { "$BUILD_DIR/tools/zht-cli" --neighbors "$WORK/neighbors.conf" "$@"; }

step "insert/lookup/append/remove round-trip"
test "$(cli insert alpha one)" = "OK"
test "$(cli lookup alpha)" = "one"
test "$(cli append alpha -two)" = "OK"
test "$(cli lookup alpha)" = "one-two"
test "$(cli remove alpha)" = "OK"
# A missing key is a NOT_FOUND status and a non-zero cli exit — expected.
(cli lookup alpha || true) | grep -q NOT_FOUND

step "batched mput/mget across instances"
test "$(cli mput k1 v1 k2 v2 k3 v3 k4 v4 | grep -c OK)" = "4"
test "$(cli mput k5 v5 k6 v6 | grep -c OK)" = "2"
test "$(cli mget k1 k2 k3 k4 k5 k6 | grep -c ' v')" = "6"
test "$(cli mget k2)" = "k2 v2"
(cli mget k1 missing-key || true) | grep -q NOT_FOUND

step "ping and stats"
cli ping 2 | grep -q OK
cli stats 0 | grep -q "instance = 0"

step "bench over cached TCP"
cli bench 100 | grep -q "0 failures"

step "bench over UDP"
cli --udp bench 100 | grep -q "0 failures"

echo "tools e2e: all checks passed"
