#!/usr/bin/env bash
# Recovery smoke test: populate a durable soupsd node, kill it hard (-9, no
# shutdown flush), restart it from the data directory alone, and verify the
# states and a backup/restore round trip. This is the end-to-end check that
# the storage engine's crash story holds outside the Go test harness.
# A second act exercises the tiered (LSM) layout: forced flushes build
# level-0 SSTables, the background compactor merges them, and a kill -9 node
# recovers from the newest tables plus the WAL tail.
# A third act runs the replicated failover story: a primary shipping its WAL
# to two standbys is killed -9 and one standby is promoted in its place.
# A final act runs the node out of disk on a small tmpfs: writes must shed
# with 503 while reads keep serving, and freeing space must re-arm the node
# without a restart. (Skipped gracefully where tmpfs cannot be mounted.)
set -euo pipefail

PORT="${PORT:-18473}"
SB1_PORT=$((PORT + 1))
SB2_PORT=$((PORT + 2))
SERVER="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
DATA="${WORK}/data"

cleanup() {
  for p in "${PID:-}" "${SB1_PID:-}" "${SB2_PID:-}"; do
    [ -n "${p}" ] && kill -9 "${p}" 2>/dev/null || true
  done
  if [ -n "${TMPFS_MOUNTED:-}" ]; then
    umount "${WORK}/full" 2>/dev/null ||
      { command -v sudo >/dev/null 2>&1 && sudo -n umount "${WORK}/full" 2>/dev/null; } || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== build"
go build -o "${WORK}/soupsd" ./cmd/soupsd
go build -o "${WORK}/soupsctl" ./cmd/soupsctl
ctl() { "${WORK}/soupsctl" -server "${SERVER}" "$@"; }

wait_up() {
  for _ in $(seq 1 50); do
    if ctl metrics >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "soupsd did not come up" >&2
  exit 1
}

echo "== start durable node"
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" -fsync-mode always >"${WORK}/soupsd1.log" 2>&1 &
PID=$!
wait_up

echo "== populate"
ctl set Order O-1 status=OPEN total=99.5 >/dev/null
ctl set Account A-1 owner=alice >/dev/null
for i in $(seq 1 20); do
  ctl delta Account A-1 balance=5 >/dev/null
done
ctl backup "${WORK}/backup.bak" 2>/dev/null

echo "== hard kill (no flush)"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true

echo "== restart from data dir"
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" -fsync-mode always >"${WORK}/soupsd2.log" 2>&1 &
PID=$!
wait_up

balance="$(ctl get Account A-1 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*')"
status="$(ctl get Order O-1 | grep -o '"status": "[A-Z]*"' || true)"
if [ "${balance}" != "100" ]; then
  echo "FAIL: balance after recovery = '${balance}', want 100" >&2
  exit 1
fi
if [ "${status}" != '"status": "OPEN"' ]; then
  echo "FAIL: order status lost after recovery" >&2
  exit 1
fi
echo "ok: states survived kill -9 (balance=${balance})"

echo "== restore backup into a fresh node"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
rm -rf "${DATA}"
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" >"${WORK}/soupsd3.log" 2>&1 &
PID=$!
wait_up
ctl restore "${WORK}/backup.bak" >/dev/null
balance="$(ctl get Account A-1 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*')"
if [ "${balance}" != "100" ]; then
  echo "FAIL: balance after restore = '${balance}', want 100" >&2
  exit 1
fi
echo "ok: backup/restore round trip (balance=${balance})"

echo "== tiered storage: flushes + background compaction survive kill -9"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
rm -rf "${DATA}"
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" -fsync-mode always \
  -flush-bytes 2048 -compaction-after 2 >"${WORK}/lsm1.log" 2>&1 &
PID=$!
wait_up

ctl set Account A-4 owner=dave >/dev/null
for i in $(seq 1 25); do
  ctl delta Account A-4 balance=3 >/dev/null
done
# Force a flush boundary, keep writing, force another: at least two level-0
# tables accumulate, which is exactly the backlog -compaction-after 2 hands
# to the background compactor.
ctl checkpoint >/dev/null
for i in $(seq 1 25); do
  ctl delta Account A-4 balance=3 >/dev/null
done
ctl checkpoint >/dev/null
# One more write so recovery also replays a WAL tail on top of the tables.
ctl delta Account A-4 balance=3 >/dev/null

tables="$( (ctl metrics | grep -o 'lsm.tables [0-9]*' | grep -o '[0-9]*$') || true)"
if [ "${tables:-0}" -lt 1 ]; then
  echo "FAIL: no SSTables after two forced flushes (lsm.tables=${tables:-0})" >&2
  ctl metrics >&2 || true
  exit 1
fi
compactions=""
for _ in $(seq 1 50); do
  compactions="$( (ctl metrics | grep -o 'lsm.compactions [0-9]*' | grep -o '[0-9]*$') || true)"
  if [ "${compactions:-0}" -ge 1 ]; then break; fi
  sleep 0.1
done
if [ "${compactions:-0}" -lt 1 ]; then
  echo "FAIL: background compactor never ran (lsm.compactions=${compactions:-0})" >&2
  ctl metrics >&2 || true
  exit 1
fi

echo "== kill -9 the tiered node, restart, recover from tables + WAL tail"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" -fsync-mode always \
  -flush-bytes 2048 -compaction-after 2 >"${WORK}/lsm2.log" 2>&1 &
PID=$!
wait_up

balance="$(ctl get Account A-4 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*')"
if [ "${balance}" != "153" ]; then
  echo "FAIL: balance after tiered recovery = '${balance}', want 153" >&2
  exit 1
fi
tables="$( (ctl metrics | grep -o 'lsm.tables [0-9]*' | grep -o '[0-9]*$') || true)"
if [ "${tables:-0}" -lt 1 ]; then
  echo "FAIL: recovered tiered node reports no SSTables (lsm.tables=${tables:-0})" >&2
  ctl metrics >&2 || true
  exit 1
fi
echo "ok: tiered recovery from tables + tail (balance=${balance}, tables=${tables}, compactions=${compactions})"

echo "== three-node failover: primary + two standbys, kill -9, promote"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
PID=""
rm -rf "${DATA}"

ctl1() { "${WORK}/soupsctl" -server "http://127.0.0.1:${SB1_PORT}" "$@"; }
ctl2() { "${WORK}/soupsctl" -server "http://127.0.0.1:${SB2_PORT}" "$@"; }

"${WORK}/soupsd" -addr "127.0.0.1:${SB1_PORT}" -role standby -units 2 \
  -data-dir "${WORK}/sb1" -fsync-mode always >"${WORK}/sb1.log" 2>&1 &
SB1_PID=$!
"${WORK}/soupsd" -addr "127.0.0.1:${SB2_PORT}" -role standby -units 2 \
  -data-dir "${WORK}/sb2" -fsync-mode always >"${WORK}/sb2.log" 2>&1 &
SB2_PID=$!
"${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
  -data-dir "${DATA}" -fsync-mode always \
  -standbys "http://127.0.0.1:${SB1_PORT},http://127.0.0.1:${SB2_PORT}" \
  -ack sync >"${WORK}/primary.log" 2>&1 &
PID=$!
wait_up

echo "== populate through the replicated primary"
ctl set Account A-2 owner=carol >/dev/null
for i in $(seq 1 15); do
  ctl delta Account A-2 balance=4 >/dev/null
done

# A standby serves metrics but refuses data until promoted.
if ctl1 get Account A-2 >/dev/null 2>&1; then
  echo "FAIL: unpromoted standby answered a data read" >&2
  exit 1
fi
received="$(ctl1 metrics | grep -o 'replication.records_received [0-9]*' | grep -o '[0-9]*$')"
if [ "${received}" -lt 16 ]; then
  echo "FAIL: standby received ${received} records, want >= 16" >&2
  exit 1
fi

echo "== kill -9 the primary, promote standby 1"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
PID=""
ctl1 promote >/dev/null

balance="$(ctl1 get Account A-2 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*')"
if [ "${balance}" != "60" ]; then
  echo "FAIL: balance on promoted standby = '${balance}', want 60" >&2
  exit 1
fi
# The promoted node is a full primary: it takes writes.
ctl1 delta Account A-2 balance=4 >/dev/null
balance="$(ctl1 get Account A-2 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*')"
if [ "${balance}" != "64" ]; then
  echo "FAIL: balance after post-promotion write = '${balance}', want 64" >&2
  exit 1
fi
# The second standby kept its own synchronously acked copy of the stream.
received2="$(ctl2 metrics | grep -o 'replication.records_received [0-9]*' | grep -o '[0-9]*$')"
if [ "${received2}" -lt 16 ]; then
  echo "FAIL: surviving standby holds ${received2} records, want >= 16" >&2
  exit 1
fi
echo "ok: failover (acked writes survived, promoted node live, peer standby intact)"

echo "== disk full: writes shed, reads serve, freeing space re-arms"
for p in "${SB1_PID}" "${SB2_PID}"; do
  kill -9 "${p}" 2>/dev/null || true
  wait "${p}" 2>/dev/null || true
done
SB1_PID=""
SB2_PID=""

FULL="${WORK}/full"
mkdir -p "${FULL}"
TMPFS_MOUNTED=""
if mount -t tmpfs -o size=1m tmpfs "${FULL}" 2>/dev/null; then
  TMPFS_MOUNTED=1
elif command -v sudo >/dev/null 2>&1 &&
  sudo -n mount -t tmpfs -o size=1m tmpfs "${FULL}" 2>/dev/null; then
  TMPFS_MOUNTED=1
fi
if [ -z "${TMPFS_MOUNTED}" ]; then
  echo "skip: cannot mount a 1m tmpfs here (no privilege); disk-full act not run"
else
  "${WORK}/soupsd" -addr "127.0.0.1:${PORT}" -units 2 \
    -data-dir "${FULL}/data" -fsync-mode always >"${WORK}/full.log" 2>&1 &
  PID=$!
  wait_up
  ctl set Account A-3 owner=erin >/dev/null
  ctl delta Account A-3 balance=5 >/dev/null

  # Eat the remaining space, then write until the WAL hits ENOSPC. The node
  # must refuse the write synchronously, not accept and lose it. The probe
  # payload spans pages so a partially-filled tmpfs page cannot absorb it.
  dd if=/dev/zero of="${FULL}/filler" bs=1k count=2048 2>/dev/null || true
  blob="$(printf 'x%.0s' $(seq 1 8192))"
  shed=""
  for i in $(seq 1 5); do
    if ! ctl set Account "A-FILL-${i}" owner="${blob}" >/dev/null 2>&1; then
      shed=1
      break
    fi
  done
  if [ -z "${shed}" ]; then
    echo "FAIL: 5 page-sized writes landed on a full 1m disk without a refusal" >&2
    exit 1
  fi
  # Degraded read-only: reads still serve, the operator surface says so, and
  # the HTTP layer sheds with 503 + Retry-After (header check when curl is
  # around; soupsctl only reports the non-2xx exit).
  balance="$( (ctl get Account A-3 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*') || true)"
  if [ -z "${balance}" ]; then
    echo "FAIL: read refused while degraded (reads must keep serving)" >&2
    exit 1
  fi
  # grep without -q drains the whole stream: -q exits on first match and can
  # SIGPIPE soupsctl mid-write, which pipefail then reads as a miss.
  if ! ctl status | grep 'DEGRADED' >/dev/null; then
    echo "FAIL: soupsctl status does not report the degraded unit" >&2
    ctl status >&2 || true
    exit 1
  fi
  if command -v curl >/dev/null 2>&1; then
    code="$(curl -s -o /dev/null -w '%{http_code}' "${SERVER}/readyz")"
    if [ "${code}" != "503" ]; then
      echo "FAIL: /readyz = ${code} while degraded, want 503" >&2
      exit 1
    fi
    if ! curl -s -D - -o /dev/null "${SERVER}/readyz" | grep -qi '^Retry-After:'; then
      echo "FAIL: degraded /readyz carries no Retry-After hint" >&2
      exit 1
    fi
  fi

  # Freeing space is the whole fix for ENOSPC: the next write after the
  # re-arm window probes the backend and clears the degradation in place.
  rm -f "${FULL}/filler"
  recovered=""
  for _ in $(seq 1 50); do
    if ctl delta Account A-3 balance=5 >/dev/null 2>&1; then
      recovered=1
      break
    fi
    sleep 0.2
  done
  if [ -z "${recovered}" ]; then
    echo "FAIL: node did not re-arm within 10s of space freeing" >&2
    ctl status >&2 || true
    exit 1
  fi
  want=$((balance + 5))
  balance="$( (ctl get Account A-3 | grep -o '"balance": [0-9]*' | grep -o '[0-9]*') || true)"
  if [ "${balance}" != "${want}" ]; then
    echo "FAIL: balance after re-arm = '${balance}', want ${want}" >&2
    exit 1
  fi
  if ctl status | grep 'DEGRADED' >/dev/null; then
    echo "FAIL: unit still degraded after a successful probe write" >&2
    exit 1
  fi
  echo "ok: disk full shed writes, served reads, re-armed on space (balance=${balance})"
fi

echo "PASS"
