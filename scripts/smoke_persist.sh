#!/usr/bin/env bash
# Durability smoke test for cleanseld: start with -data-dir and
# -cache-snapshot, upload the quickstart dataset, solve against it,
# SIGTERM the daemon (graceful shutdown writes a final snapshot), then
# restart on the same state directory and assert the dataset survived
# (GET by id), the repeated select answers byte-identically, the result
# cache came back from the snapshot (X-Cache: hit), and /healthz
# reports clean persist stats. Then upload a larger dataset and restart
# under a -max-dataset-bytes that fits the quickstart file but not the
# larger one: only the larger file goes. Used by CI and runnable
# locally: ./scripts/smoke_persist.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/cleanseld" ./cmd/cleanseld
datadir="$workdir/state"
snapshot="$workdir/state/cache.snap"

start_daemon() {
  rm -f "$workdir/addr"
  "$workdir/cleanseld" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -data-dir "$datadir" -cache-snapshot "$snapshot" "$@" &
  pid=$!
  for _ in $(seq 1 50); do
    [ -s "$workdir/addr" ] && break
    sleep 0.1
  done
  [ -s "$workdir/addr" ] || { echo "FAIL: daemon never wrote its address"; exit 1; }
  base="http://$(cat "$workdir/addr")"
}

start_daemon

# Upload the quickstart dataset and solve against its id.
status=$(curl -s -o "$workdir/dataset" -w '%{http_code}' \
  -X POST --data @examples/quickstart/dataset.json "$base/v1/datasets")
[ "$status" = 200 ] || { echo "FAIL: /v1/datasets -> $status"; cat "$workdir/dataset"; exit 1; }
id=$(jq -re '.id' "$workdir/dataset")

jq --arg id "$id" 'del(.objects) + {dataset_id: $id}' examples/quickstart/select.json > "$workdir/byref.json"
status=$(curl -s -o "$workdir/select1" -w '%{http_code}' \
  -X POST --data @"$workdir/byref.json" "$base/v1/select")
[ "$status" = 200 ] || { echo "FAIL: select before restart -> $status"; cat "$workdir/select1"; exit 1; }

# Graceful shutdown: SIGTERM must exit 0 and leave a final snapshot.
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: daemon exited non-zero on SIGTERM"; exit 1; }
pid=""
[ -s "$snapshot" ] || { echo "FAIL: no cache snapshot written on shutdown"; exit 1; }
ls "$datadir/datasets/${id}.json" >/dev/null || { echo "FAIL: no dataset file on disk"; exit 1; }

# Restart over the same state: the dataset and the cached result must
# both survive.
start_daemon

status=$(curl -s -o "$workdir/meta" -w '%{http_code}' "$base/v1/datasets/$id")
[ "$status" = 200 ] || { echo "FAIL: dataset lost across restart -> $status"; cat "$workdir/meta"; exit 1; }
jq -e '.objects == 3 and .name == "quickstart"' "$workdir/meta" >/dev/null \
  || { echo "FAIL: bad dataset metadata after restart"; cat "$workdir/meta"; exit 1; }

curl -s -D "$workdir/headers" -o "$workdir/select2" \
  -X POST --data @"$workdir/byref.json" "$base/v1/select"
jq -e '(.chosen | length) >= 1 and (.ids | length) == (.chosen | length)
       and .objective_before >= .objective_after and (.cost_spent | type) == "number"' \
  "$workdir/select2" >/dev/null || { echo "FAIL: malformed select after restart"; cat "$workdir/select2"; exit 1; }
diff "$workdir/select1" "$workdir/select2" || { echo "FAIL: answer changed across restart"; exit 1; }
grep -qi '^x-cache: hit' "$workdir/headers" \
  || { echo "FAIL: restart did not restore the cache snapshot"; cat "$workdir/headers"; exit 1; }

# /healthz reports the durable state, with nothing skipped.
curl -s "$base/healthz" > "$workdir/health"
jq -e '.persist.datasets_on_disk == 1 and .persist.load_errors == 0
       and .persist.snapshot_age_seconds >= 0' "$workdir/health" >/dev/null \
  || { echo "FAIL: bad persist stats"; cat "$workdir/health"; exit 1; }

# A larger, newer dataset, then a restart under a byte budget between
# the two file sizes: the larger file is deleted on its own and the
# older quickstart file stays.
jq '.name = "large" | .objects = [range(0; 10) as $i | .objects[] | .name += ($i | tostring)]' \
  examples/quickstart/dataset.json > "$workdir/large.json"
status=$(curl -s -o "$workdir/large" -w '%{http_code}' \
  -X POST --data @"$workdir/large.json" "$base/v1/datasets")
[ "$status" = 200 ] || { echo "FAIL: large upload -> $status"; cat "$workdir/large"; exit 1; }
large_id=$(jq -re '.id' "$workdir/large")
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: daemon exited non-zero on SIGTERM"; exit 1; }
pid=""
small=$(wc -c < "$datadir/datasets/${id}.json")
large=$(wc -c < "$datadir/datasets/${large_id}.json")
budget=$(( (small + large) / 2 ))
[ "$small" -lt "$budget" ] && [ "$budget" -lt "$large" ] \
  || { echo "FAIL: no budget between file sizes $small and $large"; exit 1; }

start_daemon -max-dataset-bytes "$budget"

status=$(curl -s -o "$workdir/meta" -w '%{http_code}' "$base/v1/datasets/$id")
[ "$status" = 200 ] || { echo "FAIL: quickstart lost under a $budget-byte budget -> $status"; cat "$workdir/meta"; exit 1; }
status=$(curl -s -o "$workdir/meta" -w '%{http_code}' "$base/v1/datasets/$large_id")
[ "$status" = 404 ] || { echo "FAIL: oversized dataset under a $budget-byte budget -> $status"; cat "$workdir/meta"; exit 1; }
curl -s "$base/healthz" > "$workdir/health"
jq -e '.persist.datasets_on_disk == 1 and .persist.load_errors == 0' "$workdir/health" >/dev/null \
  || { echo "FAIL: bad persist stats under the lowered budget"; cat "$workdir/health"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "persist smoke OK: dataset + warm cache survived a SIGTERM restart, and a lowered budget dropped only the oversized file, at $base"
