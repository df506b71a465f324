#!/usr/bin/env sh
# Repo gate: lint (when ruff is installed) + the tier-1 test suite,
# listing its ten slowest tests.
#
# Usage: tools/check.sh [extra pytest args]
# Run from anywhere; paths resolve relative to the repo root.

set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks tools
    echo "== ruff format (check only) =="
    ruff format --check src tests benchmarks tools
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
PYTHONPATH="$root/src" python -m pytest -x -q --durations=10 "$@"
