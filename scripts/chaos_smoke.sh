#!/usr/bin/env bash
# Chaos smoke: the self-healing serving stack under a seeded fault plan.
# index -> serve with injected storage faults (errors + latency spikes,
# bounded budget) -> retrying read traffic (zero client-visible failures)
# -> keyed mutations under chaos -> kill the server -> verify database
# integrity (sqlite pages, ledger, catalog, posting blobs).  The plan is
# seeded, but two workers interleave their statements differently from run
# to run, so the faults met (and the retries counted) vary between runs; the
# plan's finite fault budget is what guarantees a bounded retry policy wins.
# The plan's short delay lets the reads' statements meet faults and its
# budget outlasts them, so both phases assert that they retried at least
# once.  Must stay fast (well under 30 s) — it runs inside `make smoke` and
# CI.
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
db="$workdir/chaos.db"

echo "== index: two-document corpus =="
python -m repro.cli index --dataset figure-1a --db "$db"
python -m repro.cli index --dataset figure-1b --db "$db" --add

echo "== serve under a seeded fault plan (bounded budget) =="
python -m repro.cli serve --db "$db" --backend corpus --workers 2 \
    --port 0 --cache-size 0 --compact-segments 4 \
    --fault-plan "seed=7,error=0.2,latency=0.05,latency-ms=2,delay=10,max-faults=16" \
    > "$workdir/serve.log" 2>&1 &
server_pid=$!
address=""
for _ in $(seq 1 50); do
    address="$(sed -n 's/.* on \([0-9.]*:[0-9]*\).*/\1/p' "$workdir/serve.log")"
    [ -n "$address" ] && break
    sleep 0.2
done
[ -n "$address" ] || { echo "server never came up"; cat "$workdir/serve.log"; exit 1; }
echo "listening on $address (faults armed)"

echo "== read traffic with a retrying client: zero visible failures =="
python - "$address" <<'PYEOF'
import sys
from concurrent.futures import ThreadPoolExecutor
from repro.datasets import PAPER_QUERIES
from repro.service import RetryPolicy, ServiceClient
host, port = sys.argv[1].rsplit(":", 1)
queries = list(PAPER_QUERIES.values())
def reader(offset):
    # Ten of the 40 searches over one retrying connection.  A search that
    # still fails after its retries raises here and fails the smoke.
    answered = 0
    with ServiceClient(host, int(port), retry=RetryPolicy(attempts=9)) as client:
        for serial in range(offset, 40, 4):
            client.search(queries[serial % len(queries)])
            answered += 1
        return answered, client.retries
with ThreadPoolExecutor(max_workers=4) as pool:
    results = list(pool.map(reader, range(4)))
answered = sum(count for count, _ in results)
retries = sum(count for _, count in results)
assert answered == 40, answered
assert retries >= 1, "no read met a fault: the read retries went unexercised"
print(f"completed {answered}/40 requests; {retries} retries healed degraded answers")
PYEOF

echo "== keyed mutations under chaos =="
python - "$address" <<'PYEOF'
import sys
from repro.service import RetryPolicy, ServiceClient
host, port = sys.argv[1].rsplit(":", 1)
# The retry budget must outlast the worst-case quarantine window the
# bounded fault budget can produce (a few seconds of rebuild backoff).
retry = RetryPolicy(attempts=12, base_delay_seconds=0.1, seed=3)
with ServiceClient(host, int(port), retry=retry) as client:
    outcome = client.update(
        "chaos-doc", "<notes><note>chaos keyword payload</note></notes>")
    assert "chaos-doc" in outcome["documents"], outcome
    payload = client.search("chaos keyword")
    docs = [entry["doc"] for entry in payload["documents"]]
    assert "chaos-doc" in docs, payload
    outcome = client.delete_doc("chaos-doc")
    assert "chaos-doc" not in outcome["documents"], outcome
    folded = client.compact()
    assert folded["segments"] == 0, folded
    assert client.retries >= 1, "no mutation met a fault: the keyed retries went unexercised"
    print(f"update/delete/compact healed; {client.retries} client retries")
PYEOF

echo "== metrics: the chaos actually engaged and was absorbed =="
python -m repro.cli metrics --address "$address" > "$workdir/metrics.prom"
grep "faults_injected\|journal_\|pool_rebuild\|degraded" "$workdir/metrics.prom" || true
python - "$workdir/metrics.prom" <<'PYEOF'
import sys
with open(sys.argv[1]) as handle:
    lines = handle.read().splitlines()
def total(prefix):
    return sum(int(float(line.rsplit(None, 1)[1]))
               for line in lines if line.startswith(prefix))
injected = total("repro_faults_injected_total{")
assert injected >= 1, "the fault plan injected nothing; chaos never engaged"
mutations = total("repro_journal_mutations_total{")
assert mutations >= 3, f"expected committed update/delete/compact, saw {mutations}"
print(f"{injected} injected fault(s) absorbed; {mutations} committed mutation(s)")
PYEOF

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== verify: sqlite, ledger, catalog and posting-blob integrity =="
python -m repro.cli verify --db "$db"

echo "CHAOS SMOKE OK"
