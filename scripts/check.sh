#!/usr/bin/env bash
# Local quality gate: tier-1 test suite, plus branch coverage when the
# `coverage` package is available (the floor lives in pyproject.toml's
# [tool.coverage.report] section). CI images without coverage installed
# still get the full test run — the gate degrades, it never skips tests.
# After tests: a smoke run of every bench workload, the repo determinism
# linter (always available — it ships in src/repro), ruff when installed,
# and the strict validation plane.
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if python -c "import coverage" >/dev/null 2>&1; then
    echo "== pytest under coverage (fail_under from pyproject.toml) =="
    python -m coverage run -m pytest -x -q "$@"
    python -m coverage report
else
    echo "== coverage not installed; running plain pytest =="
    python -m pytest -x -q "$@"
fi

echo "== bench smoke (every workload once at smoke size; writes no file under bench/) =="
python -m pytest bench -q

echo "== determinism lint (repro-synergy lint) =="
python -m repro.cli lint

echo "== static certification (scenario brackets + DEADLINE demo) =="
python -m repro.cli certify

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    echo "== ruff (rules pinned in pyproject.toml) =="
    python -m ruff check src tests 2>/dev/null || ruff check src tests
else
    echo "== ruff not installed; skipping style lint =="
fi

# One run covers every section (adapt, engine, service, distributed,
# analysis included) at the default seed; per-section reruns add nothing.
# The `paper` section gates the paper's figure and table verdicts.
echo "== validation plane (all sections, strict) =="
python -m repro.cli validate --strict

echo "== service smoke (seed 7: 8 tenants x 2k submissions, 4 partitions, 8 cycles) =="
python -m repro.cli serve

echo "== distributed smoke (2048 ranks: columnar graph, global plan, batched run) =="
python -m repro.cli distributed --ranks 2048
