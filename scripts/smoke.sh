#!/usr/bin/env bash
# Smoke check: tier-1 suite + benchmark collection + one tiny end-to-end
# benchmark query.  Guards against the seed's failure mode where a collection
# error in benchmarks/ silently broke `python -m pytest` from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static-analysis gate (AST invariant rules) =="
make lint

echo "== tier-1: unit suite =="
python -m pytest -x -q

echo "== benchmarks: collection only (must be error-free) =="
python -m pytest benchmarks --collect-only -q > /dev/null
echo "ok"

echo "== end-to-end: one search query =="
python -m repro.cli search --dataset figure-1a "xml keyword search"

echo "== end-to-end: index + disk-backed sqlite query =="
smoke_db="$(mktemp -d)/smoke.db"
python -m repro.cli index --dataset figure-1a --db "$smoke_db"
python -m repro.cli search --db "$smoke_db" --backend sqlite "xml keyword search"

echo "== end-to-end: multi-document corpus (incremental index + doc-tagged search) =="
python -m repro.cli index --dataset figure-1b --db "$smoke_db" --add
python -m repro.cli search --db "$smoke_db" --backend corpus "xml keyword search"
rm -rf "$(dirname "$smoke_db")"

echo "== end-to-end: a document nested 3,000 deep (index, search, update, compact, each verified; compact shrinks the file) =="
deep_dir="$(mktemp -d)"
deep_db="$deep_dir/deep.db"
deep_document() {  # WORDS: the 3,000-deep chain holding them at its leaf
    python -c "print('<a>' * 3000 + '$1' + '</a>' * 3000)" > "$deep_dir/deep.xml"
}
deep_search() {  # QUERY GENERATION: one fragment, served from generation N
    python -m repro.cli search --db "$deep_db" --backend sqlite "$1" \
        > "$deep_dir/answer.txt"
    summary="$(head -n 1 "$deep_dir/answer.txt")"
    echo "$summary"
    [[ "$summary" == *"@g$2]"*"fragments: 1" ]] || {
        echo "the deep document should answer one fragment from generation $2" >&2
        exit 1
    }
}
deep_document "deep word"
python -m repro.cli index "$deep_dir/deep.xml" --db "$deep_db"
indexed_bytes="$(wc -c < "$deep_db")"
deep_search "deep word" 1
python -m repro.cli verify --db "$deep_db"
deep_document "deep change"
python -m repro.cli index --update "$deep_dir/deep.xml" --db "$deep_db"
python -m repro.cli verify --db "$deep_db"
deep_search "deep change" 2
python -m repro.cli verify --db "$deep_db"
python -m repro.cli compact --db "$deep_db"
compacted_bytes="$(wc -c < "$deep_db")"
echo "deep.db: $indexed_bytes bytes after index, $compacted_bytes after compact"
(( compacted_bytes <= indexed_bytes )) || {
    echo "compact should give the update's pages back to the file system" >&2
    exit 1
}
python -m repro.cli verify --db "$deep_db"
deep_search "deep change" 2  # compaction renumbers nothing
python -m repro.cli verify --db "$deep_db"
rm -rf "$deep_dir"

echo "== end-to-end: ranked top-k retrieval (search --top-k) =="
python -m repro.cli search --dataset figure-1a --top-k 3 "xml keyword search"

echo "== end-to-end: early-terminated top-k on one document =="
python -m repro.cli search --dataset figure-1a --top-k 3 --early-terminate \
    "xml keyword search"

echo "== end-to-end: served rank op (threshold top-k over the wire) =="
python - <<'PY'
from repro.datasets import publications_tree, team_tree
from repro.service import EnginePool, ServerThread, ServiceClient

pool = EnginePool.for_backend(
    "corpus",
    trees={"publications": publications_tree(), "team": team_tree()},
    workers=2)
try:
    with ServerThread(pool) as server:
        with ServiceClient(*server.address) as client:
            response = client.rank_response("xml keyword search", top_k=3,
                                            early_terminate=True)
            stats = response["rank_stats"]
            assert response["ranking"], "rank op returned no rows"
            assert stats["early_terminated"] and stats["top_k"] == 3, stats
            assert stats["docs_visited"] <= stats["docs_selected"], stats
            print(f"rank op ok: {len(response['ranking'])} rows, "
                  f"visited {stats['docs_visited']}/{stats['docs_selected']}")
finally:
    pool.shutdown()
PY

echo "== differential corpus fuzz (seeded) =="
make fuzz-smoke

echo "== segmented update lifecycle (ingest/update/delete/compact) =="
make update-smoke

echo "== observability (traced query, serve, metrics scrape) =="
make obs-smoke

echo "== chaos (fault-injected serving, self-healing clients, verify) =="
make chaos-smoke

echo "== end-to-end: tiny verified benchmark run =="
python -m repro.cli bench --dataset dblp --limit 1 --repetitions 1

echo "== examples: every examples/*.py runs =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

echo "SMOKE OK"
