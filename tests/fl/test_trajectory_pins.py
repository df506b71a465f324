"""Old-plane-vs-flat-plane trajectory pins.

``tests/fixtures/trajectory_pins.npz`` holds the final weights of short
seeded training runs recorded on the *dict* parameter plane — per-layer
``{name: array}`` params, per-``(layer, key)`` optimizer loops — just
before the flat `WeightStore` training plane replaced it.  These tests
re-run the identical recipes on the current code and require the result
to match the recorded trajectory bitwise.

Exact equality is asserted first; a ≤2-ULP tolerance is the fallback
for the einsum/matmul contractions whose FMA grouping may differ
across BLAS builds (the same concession as the fedavg old-vs-new
tests).  Any larger difference means the refactor changed either an
arithmetic reduction order or an RNG draw order — both are bugs here,
not tolerances to widen.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from tests.fl.trajectory_recipes import (
    DEFENSE_NAMES,
    build_recipes,
    simulation_trajectory,
)

FIXTURE = (pathlib.Path(__file__).resolve().parent.parent
           / "fixtures" / "trajectory_pins.npz")

RECIPES = build_recipes()


def _assert_pinned(name: str, vector: np.ndarray) -> None:
    with np.load(FIXTURE) as pins:
        assert name in pins.files, f"no pin recorded for {name}"
        expected = pins[name]
    assert vector.shape == expected.shape
    if np.array_equal(vector, expected):
        return
    np.testing.assert_array_almost_equal_nulp(vector, expected, nulp=2)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_trajectory_matches_dict_plane(name):
    _assert_pinned(name, RECIPES[name]())


@pytest.mark.parametrize("defense", DEFENSE_NAMES,
                         ids=lambda name: f"{name}-shm")
def test_parallel_trajectory_matches_dict_plane(defense):
    """The 2-worker executor must land on the same serial-plane pin
    through its shared-memory broadcast and result slabs."""
    vector = simulation_trajectory(defense, workers=2)
    _assert_pinned(f"defense/{defense}", vector)
