"""Broadcast distributed voting tests (§4.1), including Byzantine
behaviour injection."""

import hashlib

import pytest

from repro.core.consensus import (
    BroadcastVoting,
    VotingNode,
    agree_on_private_layer,
)


class TestHonestVoting:
    def test_unanimous(self):
        result = agree_on_private_layer({0: 5, 1: 5, 2: 5})
        assert result.decided_value == 5
        assert result.honest_agreement

    def test_absolute_majority_wins(self):
        result = agree_on_private_layer({0: 5, 1: 5, 2: 5, 3: 2, 4: 1})
        assert result.decided_value == 5

    def test_plurality_fallback_deterministic(self):
        """No absolute majority: lowest-index plurality winner."""
        result = agree_on_private_layer({0: 1, 1: 2, 2: 3})
        assert result.decided_value in (1, 2, 3)
        again = agree_on_private_layer({0: 1, 1: 2, 2: 3})
        assert result.decided_value == again.decided_value

    def test_single_voter(self):
        result = agree_on_private_layer({0: 7})
        assert result.decided_value == 7

    def test_all_nodes_converge(self):
        result = agree_on_private_layer({i: 4 for i in range(7)})
        assert set(result.per_node_decisions.values()) == {4}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BroadcastVoting({})


class TestByzantineVoting:
    def test_random_voters_cannot_flip_majority(self):
        proposals = {i: 5 for i in range(7)}
        proposals[5] = 0
        proposals[6] = 1
        result = agree_on_private_layer(
            proposals, byzantine={5: "random", 6: "random"},
            num_layers=8, seed=3)
        assert result.decided_value == 5
        assert result.honest_agreement

    def test_equivocating_voter_tolerated(self):
        proposals = {i: 3 for i in range(5)}
        proposals[4] = 0
        result = agree_on_private_layer(
            proposals, byzantine={4: "equivocate"}, num_layers=8, seed=1)
        assert result.decided_value == 3

    def test_silent_voter_tolerated(self):
        proposals = {0: 2, 1: 2, 2: 2, 3: 0}
        result = agree_on_private_layer(
            proposals, byzantine={3: "silent"}, num_layers=4)
        assert result.decided_value == 2

    def test_mixed_behaviours(self):
        proposals = {i: 6 for i in range(9)}
        for i, behaviour in [(6, "random"), (7, "equivocate"),
                             (8, "silent")]:
            proposals[i] = 0
        result = agree_on_private_layer(
            proposals,
            byzantine={6: "random", 7: "equivocate", 8: "silent"},
            num_layers=8, seed=0)
        assert result.decided_value == 6
        assert result.honest_agreement

    def test_rejects_unknown_behaviour(self):
        with pytest.raises(ValueError):
            VotingNode(0, 1, byzantine="teleport")

    def test_rejects_byzantine_nonvoter(self):
        with pytest.raises(ValueError):
            BroadcastVoting({0: 1}, byzantine={9: "random"})


class TestProtocolMechanics:
    def test_rounds_bounded(self):
        result = agree_on_private_layer({i: i % 3 for i in range(9)})
        assert 1 <= result.rounds_used <= 3

    def test_deterministic_given_seed(self):
        proposals = {i: 5 for i in range(6)}
        proposals[5] = 1
        a = agree_on_private_layer(proposals, byzantine={5: "random"},
                                   num_layers=8, seed=11)
        b = agree_on_private_layer(proposals, byzantine={5: "random"},
                                   num_layers=8, seed=11)
        assert a.decided_value == b.decided_value


# Pinned per-node decisions, rounds, final generator state and a digest
# of every inbox in insertion order.  Byzantine voters draw one value
# per recipient in ascending id order, so any change to who is sent
# what, or when, changes the generator state and shows here.
PINNED_VOTES = {
    "random": (
        {**{i: 4 for i in range(7)}, 5: 0, 6: 2},
        {5: "random", 6: "random"}, 8, 3,
        (4, 2, {i: 4 for i in range(7)}, True),
        (287293064181297705261668019868518144697,
         222003063171874261427395693950637096479, 1017093381),
        "8f49ef490e5c723e0b80e6dd6083afaf776997de3c53bee5c8c1e1c0977f2718"),
    "equivocate-silent": (
        {**{i: 1 for i in range(10)}, 7: 3, 8: 0, 9: 5},
        {7: "equivocate", 8: "silent", 9: "equivocate"}, 6, 5,
        (1, 2, {i: 1 for i in range(10)}, True),
        (30052931423147470152283265562485696636,
         233193750087604940414945475171846202189, 2117517741),
        "ca8d4490c34d82850aff8eb87426b5f5119cdd6b5427c55e968baf42b9465a15"),
    "all-three": (
        {i: (2 if i < 8 else i % 4) for i in range(12)},
        {8: "random", 9: "equivocate", 10: "silent", 11: "equivocate"},
        4, 7,
        (2, 2, {i: 2 for i in range(12)}, True),
        (261775554755944329336436418509329735131,
         261136684632268670825940853076396136793, 2630837567),
        "df596c3eecc9bbee3716248f33e08c83c097bc991c46c717dc8ed04218cc4de5"),
}


@pytest.mark.parametrize("case", sorted(PINNED_VOTES))
def test_vote_pinned(case):
    proposals, byzantine, value_space, seed, result, state, inbox_digest = \
        PINNED_VOTES[case]
    vote = BroadcastVoting(proposals, byzantine=byzantine,
                           value_space=value_space, seed=seed)
    got = vote.run()
    assert (got.decided_value, got.rounds_used, got.per_node_decisions,
            got.honest_agreement) == result
    bits = vote.rng.bit_generator.state
    assert (bits["state"]["state"], bits["state"]["inc"],
            bits["uinteger"]) == state
    inboxes = repr([(nid, list(node.inbox.items()))
                    for nid, node in vote.nodes.items()])
    assert hashlib.sha256(inboxes.encode()).hexdigest() == inbox_digest
