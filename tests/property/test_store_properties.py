"""Property-based tests for the flat weight plane.

Two families of invariants:

* **Exact views** — every view of a store holds the named array whose
  coordinates it addresses, and the buffer is the arrays'
  concatenation in layout order.
* **Bitwise agreement** — the vectorized aggregation rules reproduce
  the legacy nested-dict implementations bit for bit (same floats, not
  just close), and DINAR's obfuscation consumes the RNG stream exactly
  as the legacy per-array loop did.  One deliberate exception: the
  einsum-backed weighted reduction in ``fedavg`` may contract with
  fused multiply-adds, whose different rounding points can move single
  coordinates by 1 ULP relative to the sequential reference sum — those
  two comparisons allow a 2-ULP tolerance instead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dinar import DINAR
from repro.fl.aggregation import (
    coordinate_median,
    fedavg,
    sum_updates,
    trimmed_mean,
)
from repro.fl.virtual import PersonalWeightsRegistry
from repro.nn.store import WeightStore
from tests.conftest import fedavg_reference, store_of

finite_floats = st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False)


@st.composite
def weight_structures(draw, min_layers=1):
    """Random named arrays: ``min_layers``-3 layers of 1-2 small
    arrays each."""
    num_layers = draw(st.integers(min_layers, 3))
    structure = []
    for _ in range(num_layers):
        layer = {}
        for key in draw(st.sampled_from([["W"], ["W", "b"]])):
            rows = draw(st.integers(1, 4))
            cols = draw(st.integers(1, 4))
            values = draw(st.lists(finite_floats,
                                   min_size=rows * cols,
                                   max_size=rows * cols))
            layer[key] = np.array(values).reshape(rows, cols)
        structure.append(layer)
    return structure


@st.composite
def client_cohorts(draw, min_clients=1, max_clients=6):
    """A base structure plus per-client perturbed copies of it."""
    base = draw(weight_structures())
    n = draw(st.integers(min_clients, max_clients))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    updates = [
        [{k: v + rng.standard_normal(v.shape) for k, v in layer.items()}
         for layer in base]
        for _ in range(n)
    ]
    samples = [draw(st.integers(1, 50)) for _ in range(n)]
    return updates, samples


def stores(updates):
    """The cohort's updates as stores (what aggregation consumes)."""
    return [store_of(u) for u in updates]


def assert_bitwise_equal(store: WeightStore, nested) -> None:
    """The store holds the exact same floats as the nested structure."""
    reference = store_of(nested)
    assert reference.layout == store.layout
    assert np.array_equal(store.buffer, reference.buffer)


def assert_ulp_close(store: WeightStore, reference: WeightStore,
                     nulp: int = 2) -> None:
    """Same floats up to ``nulp`` units in the last place.

    Used only where FMA contraction inside einsum can legitimately
    round differently from a sequential sum.
    """
    np.testing.assert_array_almost_equal_nulp(
        store.buffer, reference.buffer, nulp=nulp)


# ----------------------------------------------------------------------
# exact views
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(weight_structures())
def test_store_buffer_is_the_flatten_vector(weights):
    store = store_of(weights)
    flat = np.concatenate(
        [v.ravel() for layer in weights for v in layer.values()])
    assert np.array_equal(store.buffer, flat)
    for layer_idx, original in enumerate(weights):
        for key, value in original.items():
            assert np.array_equal(store.view(layer_idx, key), value)


# ----------------------------------------------------------------------
# old vs new aggregation: bitwise agreement
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(client_cohorts())
def test_vectorized_fedavg_matches_reference(cohort):
    updates, samples = cohort
    expected = fedavg_reference(stores(updates), samples)
    assert_ulp_close(fedavg(stores(updates), samples), expected)


@settings(max_examples=50, deadline=None)
@given(client_cohorts())
def test_fedavg_over_stores_and_batch_matches_reference(cohort):
    """Standalone stores and the same batch as views of an upload
    registry's rows (what the server's dense path reads) agree."""
    updates, samples = cohort
    cohort_stores = stores(updates)
    expected = fedavg_reference(cohort_stores, samples)
    assert_ulp_close(fedavg(cohort_stores, samples), expected)
    registry = PersonalWeightsRegistry(cohort_stores[0].layout)
    for client_id, update in enumerate(cohort_stores):
        registry.put(client_id, update.buffer)
    assert_ulp_close(fedavg(list(registry.values()), samples), expected)


@settings(max_examples=50, deadline=None)
@given(client_cohorts())
def test_sum_updates_matches_legacy_sum_bitwise(cohort):
    updates, _ = cohort
    expected = [
        {key: sum(u[layer_idx][key] for u in updates)
         for key in updates[0][layer_idx]}
        for layer_idx in range(len(updates[0]))
    ]
    assert_bitwise_equal(sum_updates(stores(updates)), expected)


@settings(max_examples=50, deadline=None)
@given(client_cohorts(min_clients=3))
def test_trimmed_mean_matches_legacy_bitwise(cohort):
    updates, _ = cohort
    n = len(updates)
    expected = [
        {key: np.sort(np.stack([u[layer_idx][key] for u in updates]),
                      axis=0)[1:n - 1].mean(axis=0)
         for key in updates[0][layer_idx]}
        for layer_idx in range(len(updates[0]))
    ]
    assert_bitwise_equal(trimmed_mean(stores(updates), trim=1), expected)


@settings(max_examples=50, deadline=None)
@given(client_cohorts())
def test_coordinate_median_matches_legacy_bitwise(cohort):
    updates, _ = cohort
    expected = [
        {key: np.median(np.stack([u[layer_idx][key] for u in updates]),
                        axis=0)
         for key in updates[0][layer_idx]}
        for layer_idx in range(len(updates[0]))
    ]
    assert_bitwise_equal(coordinate_median(stores(updates)), expected)


# ----------------------------------------------------------------------
# DINAR obfuscation: same RNG stream as the legacy per-array loop
# ----------------------------------------------------------------------

def legacy_obfuscate(weights, protected, rng, mode, scale):
    """The seed implementation of Algorithm 1 lines 15-17, verbatim."""
    def noise_std(array):
        if mode == "gaussian":
            return scale
        return scale * max(float(array.std()), 1e-3)

    out = [{k: v.copy() for k, v in layer.items()} for layer in weights]
    for layer_idx in protected:
        out[layer_idx] = {
            k: rng.standard_normal(v.shape) * noise_std(v)
            for k, v in weights[layer_idx].items()
        }
    return out


@settings(max_examples=50, deadline=None)
@given(weight_structures(min_layers=2),
       st.sampled_from(["scaled", "gaussian"]),
       st.integers(0, 2**32 - 1))
def test_obfuscation_bitwise_matches_legacy(weights, mode, seed):
    defense = DINAR(private_layer=-2, obfuscation=mode)
    protected = defense.protected_indices(len(weights))
    expected = legacy_obfuscate(
        weights, protected, np.random.default_rng(seed), mode,
        defense.obfuscation_scale)

    store = store_of(weights)
    state = np.empty(defense.state_width(store.layout))
    sent = defense.on_send_update(
        0, store, store, num_samples=10, rng=np.random.default_rng(seed),
        state=state)
    assert_bitwise_equal(sent, expected)

    # the stored private layer is the exact pre-obfuscation content
    raw = np.concatenate([v.ravel() for idx in protected
                          for v in weights[idx].values()])
    assert np.array_equal(state, raw)
