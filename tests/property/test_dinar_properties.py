"""Property-based tests on DINAR's obfuscation/personalization
invariants and the SA mask-cancellation identity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dinar import DINAR
from repro.nn.store import WeightStore
from repro.privacy.defenses.secure_aggregation import SecureAggregation


def _structure(rng, num_layers):
    return WeightStore.from_layers([
        {"W": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
        for _ in range(num_layers)
    ])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 1000))
def test_obfuscate_then_personalize_is_identity_on_p(num_layers, p_raw,
                                                     seed):
    """For any layer index, what a client stores at upload time is
    exactly what personalization restores next round."""
    p = p_raw % num_layers
    rng = np.random.default_rng(seed)
    weights = _structure(rng, num_layers)
    defense = DINAR(private_layer=p)
    defense.on_send_update(0, weights, 10, rng)
    garbage = weights.zeros_like()
    garbage.buffer[:] = 123.0
    received = defense.on_receive_global(0, garbage)
    assert np.array_equal(received.view(p, "W"), weights.view(p, "W"))
    assert np.array_equal(received.view(p, "b"), weights.view(p, "b"))
    for j in range(num_layers):
        if j != p:
            assert np.all(received.view(j, "W") == 123.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 1000))
def test_obfuscated_layer_carries_no_information(num_layers, seed):
    """In ``gaussian`` mode, two different private layers produce
    obfuscations that are statistically identical (both pure noise
    from the same rng stream) — the transmitted layer cannot depend on
    the secret.  (``scaled`` mode intentionally leaks only the layer's
    std, which carries no membership information.)"""
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    data_rng = np.random.default_rng(seed + 1)
    weights_a = _structure(data_rng, num_layers)
    weights_b = _structure(data_rng, num_layers)  # different secrets

    sent_a = DINAR(private_layer=0, obfuscation="gaussian") \
        .on_send_update(0, weights_a, 1, rng_a)
    sent_b = DINAR(private_layer=0, obfuscation="gaussian") \
        .on_send_update(0, weights_b, 1, rng_b)
    # same rng stream => identical noise regardless of the layer values
    assert np.array_equal(sent_a.view(0, "W"), sent_b.view(0, "W"))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 500), st.integers(1, 30))
def test_sa_masks_cancel_for_any_cohort(num_clients, seed, round_index):
    rng = np.random.default_rng(seed)
    template = _structure(rng, 2)
    defense = SecureAggregation(mask_scale=10.0)
    cohort = list(range(num_clients))
    defense.on_round_start(round_index, cohort, template, rng)
    zeros = template.zeros_like()
    total = zeros
    for cid in cohort:
        sent = defense.on_send_update(cid, zeros, 1, rng)
        total = total + sent
    # zero updates + masks: the sum must be exactly the zero structure
    assert total.allclose(zeros, atol=1e-6)
