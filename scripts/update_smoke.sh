#!/usr/bin/env bash
# Update smoke: the full segmented-corpus lifecycle through the CLI.
# ingest -> incremental add -> live update (delta segment) -> verify -> a
# replacement that does not parse (exit 2, answers unchanged; `--force` is
# gone) -> doc-tagged search, single-document disk search and ranked top-k ->
# delete (tombstone) -> compact -> verify -> search and rank again ->
# serve with `--compact-segments 2`: two wire updates, the second of which
# folds both segments -> verify -> `verify` and `search` of a 0-byte file
# refuse it and leave it 0 bytes.
# Guards the `index --update` / `index --delete` / `compact` surface and
# compaction on a served write end to end; must stay fast (well under
# 30 s) — it runs inside `make smoke` and CI.
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
db="$workdir/corpus.db"

echo "== ingest: two stored documents =="
python -m repro.cli index --dataset figure-1a --db "$db"
python -m repro.cli index --dataset figure-1b --db "$db" --add

echo "== export + mutate one document =="
python -m repro.cli datasets --name figure-1b --output "$workdir/"
sed -i 's/Conley/Morant/' "$workdir/figure-1b.xml"

echo "== live update: delta segment =="
python -m repro.cli index --update "$workdir/figure-1b.xml" --db "$db"
python -m repro.cli verify --db "$db"

echo "== a replacement that does not parse changes nothing =="
python -m repro.cli search --db "$db" --backend corpus "Morant guard" \
    > "$workdir/before.txt"
printf '<team><player>broken</team>\n' > "$workdir/broken.xml"
status=0
python -m repro.cli index --update "$workdir/broken.xml" --name figure-1b \
    --db "$db" || status=$?
[ "$status" -eq 2 ] || { echo "unparsable replacement exited $status"; exit 1; }
python -m repro.cli search --db "$db" --backend corpus "Morant guard" \
    > "$workdir/after.txt"
cmp "$workdir/before.txt" "$workdir/after.txt" || {
    echo "a failed replacement changed the answers"; exit 1; }
status=0
python -m repro.cli index "$workdir/figure-1b.xml" --db "$db" --force \
    2> /dev/null || status=$?
[ "$status" -eq 2 ] || { echo "index --force exited $status"; exit 1; }

echo "== search spans base + segment documents =="
out="$(python -m repro.cli search --db "$db" --backend corpus "Morant guard")"
echo "$out"
echo "$out" | grep -q "figure-1b" || { echo "updated text not served"; exit 1; }

echo "== single-document disk search of the segment-resident document =="
out="$(python -m repro.cli search --db "$db" --backend sqlite --doc figure-1b \
    "Morant guard")"
echo "$out"
echo "$out" | grep -q "root 0.1.1 " || {
    echo "updated text not served by the sqlite backend"; exit 1; }

echo "== ranked top-k on the tree-free corpus =="
out="$(python -m repro.cli search --db "$db" --backend corpus --top-k 3 \
    --early-terminate "Morant guard")"
echo "$out"
echo "$out" | grep -q "figure-1b" || { echo "updated text not ranked"; exit 1; }

echo "== delete: tombstone =="
python -m repro.cli index --delete figure-1a --db "$db"

echo "== compact: fold the segment log away =="
python -m repro.cli compact --db "$db"
python -m repro.cli verify --db "$db"

echo "== search after compaction =="
out="$(python -m repro.cli search --db "$db" --backend corpus "Morant guard")"
echo "$out"
echo "$out" | grep -q "figure-1b" || { echo "compacted corpus lost the update"; exit 1; }
out="$(python -m repro.cli search --db "$db" --backend corpus --top-k 3 \
    --early-terminate "Morant guard")"
echo "$out"
echo "$out" | grep -q "figure-1b" || { echo "compacted corpus not ranked"; exit 1; }
if python -m repro.cli search --db "$db" --backend corpus "Dewey XML" | grep -q "figure-1a"; then
    echo "tombstoned document still answering"; exit 1
fi

echo "== serve: the write that reaches --compact-segments folds the log =="
python -m repro.cli serve --db "$db" --backend corpus --workers 2 \
    --port 0 --compact-segments 2 > "$workdir/serve.log" 2>&1 &
server_pid=$!
address=""
for _ in $(seq 1 50); do
    address="$(sed -n 's/.* on \([0-9.]*:[0-9]*\).*/\1/p' "$workdir/serve.log")"
    [ -n "$address" ] && break
    sleep 0.2
done
[ -n "$address" ] || { echo "server never came up"; cat "$workdir/serve.log"; exit 1; }
python - "$address" "$workdir/figure-1b.xml" <<'PYEOF'
import sys
from repro.service import ServiceClient
host, port = sys.argv[1].rsplit(":", 1)
with open(sys.argv[2], encoding="utf-8") as handle:
    xml = handle.read()
with ServiceClient(host, int(port)) as client:
    for name in ("Brunson", "Hart"):
        client.update("figure-1b", xml.replace("Morant", name))
    compactor = client.stats("compactor")["compactor"]
    assert compactor["runs"] == 1, compactor
    assert compactor["segments_folded"] == 2, compactor
    docs = [entry["doc"] for entry in client.search("Hart guard")["documents"]]
    assert docs == ["figure-1b"], docs
    print(f"two served updates, one compaction: {compactor}")
PYEOF
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
python -m repro.cli verify --db "$db"

echo "== readers refuse a file with no tables and leave it 0 bytes =="
zero="$workdir/zero.db"
: > "$zero"
status=0
python -m repro.cli verify --db "$zero" || status=$?
[ "$status" -eq 1 ] || { echo "verify of a 0-byte file exited $status"; exit 1; }
status=0
python -m repro.cli search --db "$zero" --backend corpus xml \
    2> "$workdir/zero.err" || status=$?
[ "$status" -eq 2 ] || { echo "search of a 0-byte file exited $status"; exit 1; }
grep -q "holds no tables" "$workdir/zero.err" || {
    echo "search of a 0-byte file did not say why"; exit 1; }
[ ! -s "$zero" ] || { echo "a read wrote a schema into the 0-byte file"; exit 1; }

echo "UPDATE SMOKE OK"
