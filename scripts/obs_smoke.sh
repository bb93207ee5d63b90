#!/usr/bin/env bash
# Observability smoke: the repro.obs surface end to end through the CLI.
# index -> traced query and traced ranked query (span trees) -> live
# server with a slow-query threshold -> traffic -> Prometheus scrape off
# the stats wire op -> assert the counters actually moved.  Must stay
# fast (well under 30 s) — it runs inside `make smoke` and CI.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT
db="$workdir/obs.db"

echo "== index: disk-backed document =="
python -m repro.cli index --dataset figure-1a --db "$db"

echo "== traced queries: per-stage span trees =="
out="$(python -m repro.cli search --db "$db" --backend sqlite \
    "xml keyword search" --trace)"
echo "$out"
for stage in tokenize postings lca fragments; do
    echo "$out" | grep -q "$stage" || { echo "trace missing $stage span"; exit 1; }
done
out="$(python -m repro.cli search --db "$db" --backend sqlite \
    "xml keyword search" --top-k 3 --early-terminate --trace)"
echo "$out"
for span in impacts doc; do
    echo "$out" | grep -q "─ $span " || { echo "ranked trace missing $span span"; exit 1; }
done

echo "== serve with a slow-query log threshold =="
python -m repro.cli serve --db "$db" --backend sqlite --workers 2 \
    --port 0 --slow-query-ms 5000 > "$workdir/serve.log" 2>&1 &
server_pid=$!
address=""
for _ in $(seq 1 50); do
    address="$(sed -n 's/.* on \([0-9.]*:[0-9]*\).*/\1/p' "$workdir/serve.log")"
    [ -n "$address" ] && break
    sleep 0.2
done
[ -n "$address" ] || { echo "server never came up"; cat "$workdir/serve.log"; exit 1; }
echo "listening on $address"

echo "== traffic through the wire =="
python - "$address" <<'PYEOF'
import sys
from repro.datasets import PAPER_QUERIES
from repro.service import ServiceClient
host, port = sys.argv[1].rsplit(":", 1)
queries = list(PAPER_QUERIES.values())
with ServiceClient(host, int(port)) as client:
    for serial in range(20):
        client.search(queries[serial % len(queries)])
print("20 searches answered")
PYEOF

echo "== metrics scrape (Prometheus text off the stats op) =="
scrape="$(python -m repro.cli metrics --address "$address")"
echo "$scrape" | head -20
for series in repro_server_requests_total repro_query_count_total \
              repro_batcher_requests_total repro_admission_admitted_total; do
    echo "$scrape" | grep -q "^$series\|^# TYPE $series" \
        || { echo "scrape missing $series"; exit 1; }
done
# the counters must be nonzero: every scraped total is > 0 by construction
count="$(echo "$scrape" | sed -n 's/^repro_server_requests_total.* \([0-9]*\)$/\1/p' | head -1)"
[ -n "$count" ] && [ "$count" -gt 0 ] || { echo "server request counter is zero"; exit 1; }

echo "OBS SMOKE OK"
