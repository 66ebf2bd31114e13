#!/usr/bin/env bash
# Tier-1 verification: determinism lint, the full test suite, and a
# short smoke run of the sharded crawl executor.
# Usage: scripts/verify.sh  (or: make verify)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.lint (determinism & contract linter) =="
python -m repro.lint src scripts

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== chaos invariants (fault injection) =="
python -m pytest -x -q -m chaos

echo "== executor smoke =="
python scripts/executor_smoke.py

echo "== cache identity (cold vs warm byte-equality) =="
python scripts/cache_smoke.py

echo "== streaming equivalence (batch vs follow byte-equality) =="
python scripts/streaming_smoke.py

echo "== coverage gates (repro.graph, spill + storage + lru, toplist_crawl: each >= 90%) =="
python scripts/coverage_gate.py
