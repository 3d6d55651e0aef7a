#!/usr/bin/env bash
# Daemon smoke: rcbr_switchd + rcbr_loadgen end to end (DESIGN.md §11).
#
# Three runs against fresh daemons on a temp Unix socket:
#   1. clean   — no faults; loadgen must exit 0 (switch empty + conserving)
#   2. lossy A — drop/duplicate/reorder/delay/corrupt storm, seeded
#   3. lossy B — same seed; must print the SAME outcome hash as A
# Every daemon is stopped with SIGTERM and must drain gracefully:
# exit 0 with a "drained: ... violations=0" line.
#
# Usage: tools/daemon_smoke.sh   (after dune build; override BIN to point
# elsewhere, e.g. BIN=_build/default/bin)

set -euo pipefail

BIN=${BIN:-_build/default/bin}
TMP=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$TMP"' EXIT

TOPO="linear:3"
CAPACITY="1e6"

start_daemon() { # $1: run tag
  SOCK="$TMP/rcbr-$1.sock"
  "$BIN/rcbr_switchd.exe" --socket "$SOCK" --topology "$TOPO" \
    --capacity "$CAPACITY" >"$TMP/switchd-$1.log" 2>&1 &
  DPID=$!
  # The socket file appears at bind, before listen; the daemon prints
  # this line only once it is listening.
  for _ in $(seq 100); do
    grep -q "rcbr_switchd: listening on" "$TMP/switchd-$1.log" && return 0
    sleep 0.1
  done
  echo "FAIL: daemon for run $1 never started listening" >&2
  cat "$TMP/switchd-$1.log" >&2
  return 1
}

stop_daemon() { # $1: run tag — graceful drain must succeed
  kill -TERM "$DPID"
  if ! wait "$DPID"; then
    echo "FAIL: daemon for run $1 exited nonzero (dirty drain)" >&2
    cat "$TMP/switchd-$1.log" >&2
    return 1
  fi
  DPID=""
  if ! grep -q "drained: .*violations=0" "$TMP/switchd-$1.log"; then
    echo "FAIL: daemon for run $1 reported violations at drain" >&2
    cat "$TMP/switchd-$1.log" >&2
    return 1
  fi
}

loadgen() { # $1: run tag, rest: extra flags — exit 0 = clean audit
  local rc=0
  "$BIN/rcbr_loadgen.exe" --socket "$SOCK" --topology "$TOPO" \
    --capacity "$CAPACITY" --calls 10 --rounds 4 --conns 3 --seed 99 \
    "${@:2}" >"$TMP/loadgen-$1.log" 2>&1 || rc=$?
  if [ "$rc" -ne 0 ]; then
    case "$rc" in
      1) why="reported a dirty switch" ;;
      2) why="rejected the topology" ;;
      3) why="could not connect" ;;
      *) why="failed (exit $rc)" ;;
    esac
    echo "FAIL: loadgen run $1 $why" >&2
    cat "$TMP/loadgen-$1.log" >&2
    return 1
  fi
  grep "outcome-hash" "$TMP/loadgen-$1.log"
}

echo "== clean run"
start_daemon clean
loadgen clean
stop_daemon clean

LOSSY=(--drop 0.15 --duplicate 0.05 --reorder 0.05 --delay 0.05 --corrupt 0.08)

echo "== lossy run A"
start_daemon lossy-a
loadgen lossy-a "${LOSSY[@]}"
stop_daemon lossy-a

echo "== lossy run B (same seed)"
start_daemon lossy-b
loadgen lossy-b "${LOSSY[@]}"
stop_daemon lossy-b

hash_a=$(grep -o 'outcome-hash=[0-9a-f]*' "$TMP/loadgen-lossy-a.log")
hash_b=$(grep -o 'outcome-hash=[0-9a-f]*' "$TMP/loadgen-lossy-b.log")
if [ "$hash_a" != "$hash_b" ]; then
  echo "FAIL: same-seed lossy runs diverged: $hash_a vs $hash_b" >&2
  exit 1
fi

# The lossy plan must actually have exercised the fault machinery.
if ! grep -q "mangler: .*dropped=[1-9]" "$TMP/loadgen-lossy-a.log"; then
  echo "FAIL: lossy run dropped nothing — fault plan not applied?" >&2
  cat "$TMP/loadgen-lossy-a.log" >&2
  exit 1
fi

echo "daemon smoke OK: clean + lossy drained with violations=0, $hash_a reproduced"
