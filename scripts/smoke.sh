#!/usr/bin/env bash
# Smoke test for cleanseld: build the daemon, start it on a random port,
# exercise the dataset + select + cache flow with the quickstart
# requests, and assert well-formed 200 responses. A final phase drives
# /v1/triage over the quickstart claim stream and asserts the bulk path
# serves the exact bytes /v1/assess serves claim by claim, with renamed
# duplicate claims deduplicated. Last, a select whose discretize is out
# of range must be a 400 that leaves the daemon serving, and a MaxPr
# select over mixed value models must take its discrete view at the
# requested point count. Used by CI and runnable locally:
# ./scripts/smoke.sh
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

"$workdir/cleanseld" -addr 127.0.0.1:0 -addr-file "$workdir/addr" &
pid=$!

for _ in $(seq 1 50); do
  [ -s "$workdir/addr" ] && break
  sleep 0.1
done
[ -s "$workdir/addr" ] || { echo "FAIL: daemon never wrote its address"; exit 1; }
base="http://$(cat "$workdir/addr")"

status=$(curl -s -o "$workdir/health" -w '%{http_code}' "$base/healthz")
[ "$status" = 200 ] || { echo "FAIL: /healthz -> $status"; exit 1; }
jq -e '.status == "ok"' "$workdir/health" >/dev/null || { echo "FAIL: bad health body"; cat "$workdir/health"; exit 1; }

# Inline select request must return a well-formed result.
status=$(curl -s -o "$workdir/select1" -w '%{http_code}' \
  -X POST --data @examples/quickstart/select.json "$base/v1/select")
[ "$status" = 200 ] || { echo "FAIL: /v1/select -> $status"; cat "$workdir/select1"; exit 1; }
jq -e '(.chosen | length) >= 1 and (.ids | length) == (.chosen | length)
       and .objective_before >= .objective_after and (.cost_spent | type) == "number"' \
  "$workdir/select1" >/dev/null || { echo "FAIL: malformed select result"; cat "$workdir/select1"; exit 1; }

# Upload the dataset once, select against the returned ID.
status=$(curl -s -o "$workdir/dataset" -w '%{http_code}' \
  -X POST --data @examples/quickstart/dataset.json "$base/v1/datasets")
[ "$status" = 200 ] || { echo "FAIL: /v1/datasets -> $status"; cat "$workdir/dataset"; exit 1; }
id=$(jq -re '.id' "$workdir/dataset")

jq --arg id "$id" 'del(.objects) + {dataset_id: $id}' examples/quickstart/select.json > "$workdir/byref.json"
status=$(curl -s -o "$workdir/select2" -w '%{http_code}' \
  -X POST --data @"$workdir/byref.json" "$base/v1/select")
[ "$status" = 200 ] || { echo "FAIL: select by dataset_id -> $status"; cat "$workdir/select2"; exit 1; }

# The repeated identical request must be served from the result cache.
curl -s -D "$workdir/headers" -o "$workdir/select3" \
  -X POST --data @"$workdir/byref.json" "$base/v1/select"
grep -qi '^x-cache: hit' "$workdir/headers" || { echo "FAIL: repeat select not a cache hit"; cat "$workdir/headers"; exit 1; }
diff "$workdir/select2" "$workdir/select3" || { echo "FAIL: cached answer differs"; exit 1; }

# ?trace=1 wraps the same result in an envelope carrying the request ID
# and per-stage solve timings; served from cache, the payload must still
# be the cached bytes.
curl -s -o "$workdir/traced" "$base/v1/select?trace=1" -X POST --data @"$workdir/byref.json"
jq -e '.cache == "hit" and (.request_id | length) > 0 and (.trace | type) == "object"' \
  "$workdir/traced" >/dev/null || { echo "FAIL: malformed trace envelope"; cat "$workdir/traced"; exit 1; }
diff <(jq -S .result "$workdir/traced") <(jq -S . "$workdir/select3") \
  || { echo "FAIL: traced result differs from cached answer"; exit 1; }
# A fresh (uncached) traced solve must report compile and solve stages.
jq '.budget = ((.budget // 2) + 1)' "$workdir/byref.json" > "$workdir/byref2.json"
curl -s -o "$workdir/traced2" "$base/v1/select?trace=1" -X POST --data @"$workdir/byref2.json"
jq -e '.cache == "miss" and ([.trace.stages[].name] | (index("compile") != null and index("solve") != null))' \
  "$workdir/traced2" >/dev/null || { echo "FAIL: fresh trace missing solve stages"; cat "$workdir/traced2"; exit 1; }

# /metrics must expose the traffic above in Prometheus text format:
# 5 completed selects (miss, miss, hit, traced hit, traced miss) and
# matching result-cache outcome counts.
status=$(curl -s -o "$workdir/metrics" -w '%{http_code}' "$base/metrics")
[ "$status" = 200 ] || { echo "FAIL: /metrics -> $status"; exit 1; }
metric() { # prints the sample value; runs in $(...), so failures go to stderr
  awk -v want="$1" '$1 == want { print $2; found = 1 } END { if (!found) exit 1 }' "$workdir/metrics" \
    || { echo "FAIL: metric $1 missing from /metrics" >&2; exit 1; }
}
v=$(metric 'cleanseld_requests_total{endpoint="select",code="200"}')
[ "$v" = 5 ] || { echo "FAIL: select request count $v != 5"; exit 1; }
v=$(metric 'cleanseld_request_seconds_count{endpoint="select"}')
[ "$v" = 5 ] || { echo "FAIL: select latency histogram count $v != 5"; exit 1; }
v=$(metric 'cleanseld_cache_requests_total{status="hit"}')
[ "$v" = 2 ] || { echo "FAIL: cache hits $v != 2"; exit 1; }
v=$(metric 'cleanseld_cache_requests_total{status="miss"}')
[ "$v" = 3 ] || { echo "FAIL: cache misses $v != 3"; exit 1; }
metric 'cleanseld_solve_stage_seconds_total{stage="solve"}' >/dev/null

# Bulk triage: the quickstart claim stream (three claims, two of which
# are the same claim under different names) must come back fully
# ranked, with the renamed repost deduplicated.
status=$(curl -s -o "$workdir/triage" -w '%{http_code}' \
  -X POST --data @examples/quickstart/triage.json "$base/v1/triage")
[ "$status" = 200 ] || { echo "FAIL: /v1/triage -> $status"; cat "$workdir/triage"; exit 1; }
jq -e '.stats == {claims: 3, unique: 2, errors: 0}
       and (.claims | length) == 3
       and ([.claims[].rank] | sort) == [1, 2, 3]' \
  "$workdir/triage" >/dev/null || { echo "FAIL: malformed triage result"; cat "$workdir/triage"; exit 1; }

# Signature dedup: "mar-vs-jan" and its renamed repost carry the
# identical report.
diff <(jq -S '.claims[] | select(.index == 0) | .report' "$workdir/triage") \
     <(jq -S '.claims[] | select(.index == 1) | .report' "$workdir/triage") \
  || { echo "FAIL: deduplicated claims report differently"; exit 1; }

# Amortization round-trip: every triage report must be byte-identical
# to the standalone /v1/assess answer for the same claim.
for i in 0 1 2; do
  jq --argjson i "$i" '{objects} + (.claims[$i] | {claim, direction, perturbations})' \
    examples/quickstart/triage.json > "$workdir/assess$i.json"
  status=$(curl -s -o "$workdir/assess$i" -w '%{http_code}' \
    -X POST --data @"$workdir/assess$i.json" "$base/v1/assess")
  [ "$status" = 200 ] || { echo "FAIL: /v1/assess claim $i -> $status"; cat "$workdir/assess$i"; exit 1; }
  diff <(jq -S --argjson i "$i" '.claims[] | select(.index == $i) | .report' "$workdir/triage") \
       <(jq -S . "$workdir/assess$i") \
    || { echo "FAIL: triage report for claim $i differs from standalone assess"; exit 1; }
done

# The batch shows up in the triage claim counter (all three scored).
curl -s -o "$workdir/metrics" "$base/metrics"
v=$(metric 'cleanseld_triage_claims_total{outcome="ok"}')
[ "$v" = 3 ] || { echo "FAIL: triage ok-claim count $v != 3"; exit 1; }

# An out-of-range discretize is a 400 before anything is allocated for
# it (2^40 points would ask for an 8 TiB slice), and the daemon goes on
# serving.
status=$(curl -s -o "$workdir/bigk" -w '%{http_code}' -X POST --data '{
  "objects": [{"name": "a", "current": 10, "cost": 1, "normal": {"mean": 10, "sigma": 2}}],
  "claim": {"name": "a", "coef": {"0": 1}},
  "perturbations": [{"claim": {"name": "a", "coef": {"0": 1}}, "sensibility": 1}],
  "measure": "uniqueness", "budget": 1, "discretize": 1099511627776}' "$base/v1/select")
[ "$status" = 400 ] || { echo "FAIL: select with discretize 2^40 -> $status"; cat "$workdir/bigk"; exit 1; }
jq -e '.error.code == "bad_request"' "$workdir/bigk" >/dev/null \
  || { echo "FAIL: discretize 2^40 error is not bad_request"; cat "$workdir/bigk"; exit 1; }
status=$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")
[ "$status" = 200 ] || { echo "FAIL: /healthz after discretize 2^40 -> $status"; exit 1; }

# discretize reaches every discrete view a select takes: MaxPr over
# mixed value models answers [a] at 2 points, where 6 points answer
# [a c].
status=$(curl -s -o "$workdir/twok" -w '%{http_code}' -X POST --data '{
  "objects": [{"name": "a", "current": 10, "cost": 1, "normal": {"mean": 10, "sigma": 2}},
    {"name": "b", "current": 12, "cost": 1, "values": [10, 12, 14], "probs": [0.25, 0.5, 0.25]},
    {"name": "c", "current": 9, "cost": 1, "normal": {"mean": 9, "sigma": 3}}],
  "claim": {"name": "gap", "coef": {"1": 1, "0": -1}},
  "perturbations": [{"claim": {"name": "a", "coef": {"0": 1}}, "sensibility": 1},
    {"claim": {"name": "p", "coef": {"2": -1, "1": 1}}, "sensibility": 1}],
  "goal": "maxpr", "budget": 2, "tau": 0.5, "discretize": 2}' "$base/v1/select")
[ "$status" = 200 ] || { echo "FAIL: select with discretize 2 -> $status"; cat "$workdir/twok"; exit 1; }
jq -e '.chosen == ["a"]' "$workdir/twok" >/dev/null \
  || { echo "FAIL: discretize 2 did not set the MaxPr view"; cat "$workdir/twok"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "smoke OK: $base served healthz, datasets, select (miss+hit), trace, metrics, triage (dedup + assess parity), discretize bound and view"
