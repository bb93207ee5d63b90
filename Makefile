# Convenience targets; every recipe works from a clean checkout with only
# the in-tree sources (PYTHONPATH=src, no install step needed).
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all coverage bench bench-collect bench-export smoke \
	perf-smoke e2e-gates fuzz-smoke update-smoke obs-smoke chaos-smoke lint

test:            ## fast unit suite (tier-1)
	$(PYTHON) -m pytest -x -q

lint:            ## static-analysis gate: AST invariant rules + ruff/mypy when present
	$(PYTHON) -m repro.analysis src
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
	    $(PYTHON) -m ruff check src tests benchmarks scripts; \
	elif command -v ruff >/dev/null 2>&1; then \
	    ruff check src tests benchmarks scripts; \
	else \
	    echo "ruff is not installed; skipping the style sweep"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
	    $(PYTHON) -m mypy; \
	elif command -v mypy >/dev/null 2>&1; then \
	    mypy; \
	else \
	    echo "mypy is not installed; skipping the strict typing gate"; \
	fi

test-all:        ## tier-1 (incl. parity/property/golden) + benchmark suite
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest benchmarks -q --benchmark-disable

coverage:        ## coverage run with a floor on repro.storage/index/corpus
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
	    $(PYTHON) -m pytest -q --cov=repro.storage --cov=repro.index \
	        --cov=repro.corpus \
	        --cov-report=term-missing --cov-fail-under=85; \
	else \
	    echo "pytest-cov is not installed; skipping the coverage run"; \
	fi

bench:           ## full benchmark suite (slow, opt-in)
	$(PYTHON) -m pytest benchmarks -q

bench-collect:   ## benchmark suite collection check only
	$(PYTHON) -m pytest benchmarks --collect-only -q

smoke:           ## tier-1 + collection guard + one tiny end-to-end bench query
	bash scripts/smoke.sh

bench-export:    ## BENCH_core.json: Figures 5 + 6 on all four datasets, memory and sqlite
	$(PYTHON) -m repro.cli bench --backend memory --backend sqlite \
	    --repetitions 3 --output BENCH_core.json

perf-smoke:      ## each dataset's first query on memory and sqlite, checked against the oracles (CI)
	$(PYTHON) -m repro.cli bench --backend memory --backend sqlite \
	    --limit 1 --repetitions 1 --output /tmp/bench_core_smoke.json

e2e-gates:       ## full-scale answer gates + pinned digests of the in-process e2e workloads (exit 3 on a failure)
	$(PYTHON) benchmarks/e2e/run.py --workload paper-mem disk-cold rank-topk \
	    --seconds 1

fuzz-smoke:      ## seeded differential corpus fuzz: fast tier-1 + deep sweep
	$(PYTHON) -m pytest tests/test_corpus_fuzz.py \
	    benchmarks/test_corpus_fuzz.py -q

update-smoke:    ## segmented lifecycle through the CLI: ingest/update/delete/compact
	bash scripts/update_smoke.sh

obs-smoke:       ## observability end to end: traced query, serve, metrics scrape
	bash scripts/obs_smoke.sh

chaos-smoke:     ## fault-injected serving: retrying clients, journaled mutations, verify
	bash scripts/chaos_smoke.sh
