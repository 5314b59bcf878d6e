#!/usr/bin/env bash
# Boots ereeserve -demo on a local port, drives it with ereeload, and
# fails unless every request comes back 200 and an admin epoch advance
# lands while the server is warm. Then runs the durability leg: a
# stateful server is drained with SIGTERM and restarted, and must come
# back with the same state digest and spend; it is then killed with
# SIGKILL mid-life, restarted over the same state directory, and must
# recover the exact spend and serve the identical reissued workload
# from its replay cache without charging a second time. CI runs this
# as the end-to-end smoke of the serving
# stack: real binaries, real sockets, real JSON, real kill -9.
#
# Usage:
#   scripts/serve_smoke.sh            # bounded smoke (300 requests)
#   scripts/serve_smoke.sh -record    # canonical cold+warm recording
#                                     # workload for BENCH_serve.json
#
# The recording mode's numbers are host-dependent; BENCH_serve.json's
# environment block states the recording host. EREE_SMOKE_PORT
# overrides the default port 18080 (the durability leg uses port+1).
set -euo pipefail
cd "$(dirname "$0")/.."

record=0
[[ "${1:-}" == "-record" ]] && record=1

port="${EREE_SMOKE_PORT:-18080}"
base="http://127.0.0.1:$port"
bin="$(mktemp -d)"
pids=()
trap 'for p in ${pids[@]+"${pids[@]}"}; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$bin"' EXIT

go build -o "$bin/ereeserve" ./cmd/ereeserve
go build -o "$bin/ereeload" ./cmd/ereeload

# wait_ready polls /readyz — not /healthz — because a recovering server
# is live long before it may serve traffic.
wait_ready() {
  for _ in $(seq 1 100); do
    curl -fs "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "serve smoke: $1 never became ready" >&2
  return 1
}

tenant_spent() {
  curl -fs -H "X-API-Key: tenant-alpha-key" "$1/v1/stats" \
    | grep -o '"spent_eps": *[0-9.eE+-]*'
}

state_digest() {
  curl -fs -H "X-API-Key: admin-demo-key" "$1/v1/replication/status" \
    | grep -o '"state_digest": *"[0-9a-f]*"'
}

"$bin/ereeserve" -demo -addr "127.0.0.1:$port" &
pids+=($!)
wait_ready "$base"
curl -fs "$base/healthz" >/dev/null

run_load() {
  "$bin/ereeload" -url "$base" -key tenant-alpha-key -n "$1" -conc 8 -seed 1
}

if [[ "$record" == 1 ]]; then
  echo "== cold (first run after boot) =="
  run_load 2000
  echo "== warm =="
  run_load 2000
  echo "Copy the summaries into BENCH_serve.json (and keep its environment block honest)."
  exit 0
fi

out="$(run_load 300)"
echo "$out"
echo "$out" | grep -q '"errors": 0' || { echo "serve smoke: transport errors" >&2; exit 1; }
echo "$out" | grep -q '"200": 300' || { echo "serve smoke: non-200 responses" >&2; exit 1; }
curl -fs -X POST -H "X-API-Key: admin-demo-key" -d '{"quarters":1}' "$base/v1/admin/advance" \
  | grep -q '"epoch":1' || { echo "serve smoke: admin advance failed" >&2; exit 1; }
curl -fs "$base/healthz" | grep -q '"epoch":1' \
  || { echo "serve smoke: new epoch not visible on /healthz" >&2; exit 1; }

echo "== durable leg: kill -9, recover, replay =="
dport=$((port + 1))
dbase="http://127.0.0.1:$dport"
state="$bin/state"

"$bin/ereeserve" -demo -addr "127.0.0.1:$dport" -state-dir "$state" &
dpid=$!
pids+=("$dpid")
wait_ready "$dbase"

run_durable() {
  "$bin/ereeload" -url "$dbase" -key tenant-alpha-key -n 200 -conc 8 -seed 7
}
dout="$(run_durable)"
echo "$dout" | grep -q '"200": 200' || { echo "serve smoke: durable load failed" >&2; exit 1; }
spent_before="$(tenant_spent "$dbase")"
[[ -n "$spent_before" ]] || { echo "serve smoke: no spend reported" >&2; exit 1; }
digest_before="$(state_digest "$dbase")"
[[ -n "$digest_before" ]] || { echo "serve smoke: no state digest reported" >&2; exit 1; }

# A graceful restart: the drain's snapshot is what replaying the log
# gives, so the node comes back with the same state digest and spend.
kill "$dpid"
wait "$dpid" 2>/dev/null || { echo "serve smoke: durable server did not drain cleanly" >&2; exit 1; }
"$bin/ereeserve" -demo -addr "127.0.0.1:$dport" -state-dir "$state" &
dpid=$!
pids+=("$dpid")
wait_ready "$dbase"
digest_restarted="$(state_digest "$dbase")"
[[ "$digest_restarted" == "$digest_before" ]] \
  || { echo "serve smoke: state digest changed across a graceful restart ($digest_before -> $digest_restarted)" >&2; exit 1; }
spent_restarted="$(tenant_spent "$dbase")"
[[ "$spent_restarted" == "$spent_before" ]] \
  || { echo "serve smoke: spend changed across a graceful restart ($spent_before -> $spent_restarted)" >&2; exit 1; }

kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true

"$bin/ereeserve" -demo -addr "127.0.0.1:$dport" -state-dir "$state" &
dpid=$!
pids+=("$dpid")
wait_ready "$dbase"

spent_recovered="$(tenant_spent "$dbase")"
[[ "$spent_recovered" == "$spent_before" ]] \
  || { echo "serve smoke: spend changed across kill -9 ($spent_before -> $spent_recovered)" >&2; exit 1; }

# Reissue the byte-identical workload (same seed, same seqs): every
# request replays from the durable cache — all 200, nothing re-charged.
dout2="$(run_durable)"
echo "$dout2" | grep -q '"200": 200' || { echo "serve smoke: replayed load failed" >&2; exit 1; }
spent_after="$(tenant_spent "$dbase")"
[[ "$spent_after" == "$spent_before" ]] \
  || { echo "serve smoke: replay double-charged ($spent_before -> $spent_after)" >&2; exit 1; }

# The durable server drains cleanly on SIGTERM.
kill "$dpid"
wait "$dpid" 2>/dev/null || { echo "serve smoke: durable server did not exit cleanly" >&2; exit 1; }

echo "== two-node leg: follower mirrors, primary killed, follower promoted =="
pport=$((port + 2)); fport=$((port + 3))
pbase="http://127.0.0.1:$pport"; fbase="http://127.0.0.1:$fport"

"$bin/ereeserve" -demo -addr "127.0.0.1:$pport" -state-dir "$bin/pstate" &
ppid=$!
pids+=("$ppid")
wait_ready "$pbase"
"$bin/ereeserve" -demo -addr "127.0.0.1:$fport" -state-dir "$bin/fstate" \
  -replicate-from "$pbase" &
fpid=$!
pids+=("$fpid")
wait_ready "$fbase"

# /readyz is JSON with the node's role, term, and replication lag —
# what a load balancer routes on without an authenticated status call.
curl -fs "$pbase/readyz" | grep -q '"role":"primary"' \
  || { echo "serve smoke: primary /readyz does not report its role" >&2; exit 1; }
fready="$(curl -fs "$fbase/readyz")"
echo "$fready" | grep -q '"role":"follower"' \
  || { echo "serve smoke: follower /readyz does not report its role: $fready" >&2; exit 1; }
echo "$fready" | grep -q '"replication_lag_records":' \
  || { echo "serve smoke: follower /readyz lacks replication lag: $fready" >&2; exit 1; }

# Drive the pair with the follower FIRST in the endpoint list: every
# request's first attempt lands on the follower, is shed with 503 + a
# primary hint, and the deterministic failover walk retries it on the
# primary — all 200 in the end.
pair_load() {
  "$bin/ereeload" -url "$fbase,$pbase" -key tenant-alpha-key -n 24 -conc 8 -seed 11
}
pout="$(pair_load)"
echo "$pout" | grep -q '"200": 24' || { echo "serve smoke: pair load failed: $pout" >&2; exit 1; }

# The follower converges on the primary's exact spend, visible through
# its own (read-only) /v1/stats.
spent_primary="$(tenant_spent "$pbase")"
for _ in $(seq 1 100); do
  [[ "$(tenant_spent "$fbase")" == "$spent_primary" ]] && break
  sleep 0.1
done
[[ "$(tenant_spent "$fbase")" == "$spent_primary" ]] \
  || { echo "serve smoke: follower never mirrored the primary's spend" >&2; exit 1; }

# Machine failure: kill -9 the primary, promote the follower.
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
curl -fs -X POST -H "X-API-Key: admin-demo-key" "$fbase/v1/admin/promote" \
  | grep -q '"role":"primary"' || { echo "serve smoke: promotion failed" >&2; exit 1; }
curl -fs "$fbase/readyz" | grep -q '"role":"primary"' \
  || { echo "serve smoke: promoted node /readyz still a follower" >&2; exit 1; }

# Reissue the byte-identical workload against the promoted node (the
# dead primary stays in the endpoint list; failover walks past it):
# every request replays from the mirrored dedup cache — spend unchanged.
pout2="$(pair_load)"
echo "$pout2" | grep -q '"200": 24' || { echo "serve smoke: post-failover replay failed: $pout2" >&2; exit 1; }
[[ "$(tenant_spent "$fbase")" == "$spent_primary" ]] \
  || { echo "serve smoke: failover replay double-charged ($spent_primary -> $(tenant_spent "$fbase"))" >&2; exit 1; }

# The promoted node drains cleanly.
kill "$fpid"
wait "$fpid" 2>/dev/null || { echo "serve smoke: promoted node did not exit cleanly" >&2; exit 1; }

echo "serve smoke OK"
