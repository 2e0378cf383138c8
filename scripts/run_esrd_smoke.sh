#!/usr/bin/env bash
# esrd smoke gate: boots a real 3-process ORDUP cluster on loopback TCP
# (the deployment shape documented in README.md's esrd quickstart),
# SIGKILLs one follower mid-run and restarts it over the same WAL
# directory, then does the same to the sequencer's site (site 0), and
# asserts that every site drains cleanly (exit 0) and converges to an
# identical state digest. This is the end-to-end proof that the runtime
# binding — TcpTransport, TimerWheel, thread-pool strands, WAL replay,
# incarnation-based order-hole healing, and the order server's
# probe/epoch restart with the clients' re-sent requests — works outside
# the simulator. It also prints each site's commit->stable p99 and its
# sequencer batch size and round trip from its status JSON: the stability
# tail through real crashes (informational, not a gate).
#
# Usage:
#   scripts/run_esrd_smoke.sh [base-port]   # default: a random high port
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-$((20000 + RANDOM % 20000))}"
P0=$BASE; P1=$((BASE + 1)); P2=$((BASE + 2))
PEERS="127.0.0.1:${P0},127.0.0.1:${P1},127.0.0.1:${P2}"

cmake -B build -S .
cmake --build build -j --target esrd

DIR=$(mktemp -d /tmp/esrd_smoke_XXXXXX)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

spawn() {  # spawn <site> <duration_s>
  local site=$1 dur=$2
  build/examples/esrd --site="$site" --peers="$PEERS" --sequencer-site=0 \
    --data-dir="$DIR/site_$site" --workload-rate=200 --duration-s="$dur" \
    --retry-ms=50 --status-file="$DIR/status_$site.json" \
    >>"$DIR/esrd_$site.log" 2>&1 &
  PIDS[$site]=$!
}

spawn 0 8
spawn 1 8
spawn 2 8
echo "esrd smoke: 3 sites up (ports $P0 $P1 $P2), dir $DIR"

sleep 2
echo "esrd smoke: SIGKILL follower site 2"
kill -9 "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
sleep 0.5
spawn 2 5   # restarts over the same WAL, finishing with the others
echo "esrd smoke: site 2 restarted over its WAL"

sleep 1.5
echo "esrd smoke: SIGKILL sequencer site 0"
kill -9 "${PIDS[0]}"
wait "${PIDS[0]}" 2>/dev/null || true
sleep 0.5
spawn 0 3.5   # the order server comes back over its WAL in a new epoch
echo "esrd smoke: site 0 restarted over its WAL"

FAIL=0
for site in 0 1 2; do
  if ! wait "${PIDS[$site]}"; then
    echo "esrd smoke: site $site did not drain cleanly"
    FAIL=1
  fi
done
trap - EXIT

digest() {
  sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$DIR/status_$1.json"
}
D0=$(digest 0); D1=$(digest 1); D2=$(digest 2)
echo "esrd smoke: digests $D0 $D1 $D2"
field() {  # field <site> <name>: a number from the site's status JSON
  sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$DIR/status_$1.json" \
    2>/dev/null || true
}
for site in 0 1 2; do
  P99=$(field "$site" commit_to_stable_p99_us)
  BATCH=$(field "$site" seq_batch_mean)
  RTT=$(field "$site" seq_rtt_p50_us)
  EPOCH=$(field "$site" sequencer_epoch)
  echo "esrd smoke: site $site commit->stable p99 ${P99:-?} us," \
    "sequencer epoch ${EPOCH:-?}, batch mean ${BATCH:-?}, rtt p50 ${RTT:-?} us"
done
[[ -n "$D0" && "$D0" == "$D1" && "$D1" == "$D2" ]] || {
  echo "esrd smoke: digests diverged (logs in $DIR)"
  exit 1
}
[[ "$FAIL" -eq 0 ]] || { echo "esrd smoke: drain failure (logs in $DIR)"; exit 1; }
rm -rf "$DIR"
echo "esrd smoke: OK"
