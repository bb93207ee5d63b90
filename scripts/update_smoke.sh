#!/usr/bin/env bash
# Update smoke: the full segmented-corpus lifecycle through the CLI.
# ingest -> incremental add -> live update (delta segment) -> verify ->
# doc-tagged search, single-document disk search and ranked top-k ->
# delete (tombstone) -> compact -> verify -> search and rank again.
# Guards the `index --update` / `index --delete` / `compact` surface end
# to end; must stay fast (well under 30 s) — it runs inside `make smoke`
# and CI.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
db="$workdir/corpus.db"

echo "== ingest: base generation =="
python -m repro.cli index --dataset figure-1a --db "$db"
python -m repro.cli index --dataset figure-1b --db "$db" --add

echo "== export + mutate one document =="
python -m repro.cli datasets --name figure-1b --output "$workdir/"
sed -i 's/Conley/Morant/' "$workdir/figure-1b.xml"

echo "== live update: delta segment =="
python -m repro.cli index --update "$workdir/figure-1b.xml" --db "$db"
python -m repro.cli verify --db "$db"

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

echo "UPDATE SMOKE OK"
