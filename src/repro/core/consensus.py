"""Byzantine-tolerant broadcast distributed voting (§4.1).

DINAR's initialization has every client broadcast the index of its
locally-measured most privacy-sensitive layer; the value with the
absolute majority wins (the broadcast distributed-voting method of [2],
based on the DMVR algorithm [39]).  This module simulates the protocol
as explicit message passing on a complete communication graph: every
voter sends to every other voter, in ascending id order.  Byzantine
behaviours are pluggable: voting a random index, equivocating (sending
different values to different peers), or staying silent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Byzantine behaviour names accepted by :class:`VotingNode`.
BYZANTINE_BEHAVIOURS = ("random", "equivocate", "silent")


@dataclass
class VotingNode:
    """One participant in the voting protocol."""

    node_id: int
    proposal: int
    byzantine: str | None = None  # None = correct node
    inbox: dict[int, int] = field(default_factory=dict)
    decided: int | None = None

    def __post_init__(self) -> None:
        if self.byzantine is not None \
                and self.byzantine not in BYZANTINE_BEHAVIOURS:
            raise ValueError(
                f"unknown byzantine behaviour {self.byzantine!r}; "
                f"known: {BYZANTINE_BEHAVIOURS}")

    def outgoing(self, recipients: list[int], value_space: int,
                 rng: np.random.Generator) -> dict[int, int | None]:
        """The value this node sends to each recipient this round."""
        value = self.decided if self.decided is not None else self.proposal
        if self.byzantine is None:
            return {r: value for r in recipients}
        if self.byzantine == "silent":
            return {r: None for r in recipients}
        if self.byzantine == "random":
            forged = int(rng.integers(0, value_space))
            return {r: forged for r in recipients}
        # equivocate: a different forged value per recipient
        return {r: int(rng.integers(0, value_space)) for r in recipients}

    def tally_and_decide(self) -> int:
        """Absolute majority if one exists, else lowest-index plurality."""
        votes = Counter(self.inbox.values())
        votes[self.proposal if self.decided is None
              else self.decided] += 1
        total = sum(votes.values())
        best_count = max(votes.values())
        winners = sorted(v for v, c in votes.items() if c == best_count)
        if best_count * 2 > total:
            self.decided = winners[0]
        else:
            self.decided = winners[0]  # plurality fallback, deterministic
        return self.decided


@dataclass
class ConsensusResult:
    """Outcome of one protocol execution."""

    decided_value: int
    rounds_used: int
    per_node_decisions: dict[int, int]
    honest_agreement: bool

    def __post_init__(self) -> None:
        if self.rounds_used < 1:
            raise ValueError("protocol must run at least one round")


class BroadcastVoting:
    """Broadcast distributed voting on a complete graph."""

    def __init__(self, proposals: dict[int, int], *,
                 byzantine: dict[int, str] | None = None,
                 value_space: int | None = None,
                 max_rounds: int = 3,
                 seed: int = 0) -> None:
        if not proposals:
            raise ValueError("need at least one voter")
        byzantine = byzantine or {}
        unknown = set(byzantine) - set(proposals)
        if unknown:
            raise ValueError(f"byzantine ids not voting: {sorted(unknown)}")
        self.nodes = {
            nid: VotingNode(nid, proposal, byzantine.get(nid))
            for nid, proposal in proposals.items()
        }
        self.order = sorted(proposals)
        self.value_space = value_space or (max(proposals.values()) + 1)
        self.max_rounds = max_rounds
        self.rng = np.random.default_rng(seed)

    def run(self) -> ConsensusResult:
        """Execute broadcast rounds until honest nodes stabilize."""
        rounds_used = 0
        previous: dict[int, int] = {}
        for _ in range(self.max_rounds):
            rounds_used += 1
            self._broadcast_round()
            decisions = {
                nid: node.tally_and_decide()
                for nid, node in self.nodes.items()
            }
            honest = self._honest_decisions(decisions)
            if honest and len(set(honest.values())) == 1 \
                    and honest == self._honest_decisions(previous):
                break
            previous = decisions
        honest = self._honest_decisions(
            {nid: node.decided for nid, node in self.nodes.items()})
        values = Counter(honest.values())
        decided = values.most_common(1)[0][0] if values else \
            self.nodes[min(self.nodes)].decided
        return ConsensusResult(
            decided_value=int(decided),
            rounds_used=rounds_used,
            per_node_decisions={
                nid: int(node.decided) for nid, node in self.nodes.items()
                if node.decided is not None
            },
            honest_agreement=len(set(honest.values())) <= 1,
        )

    def _broadcast_round(self) -> None:
        for nid, node in self.nodes.items():
            recipients = [r for r in self.order if r != nid]
            for recipient, value in node.outgoing(
                    recipients, self.value_space, self.rng).items():
                if value is not None:
                    self.nodes[recipient].inbox[nid] = value

    def _honest_decisions(self, decisions: dict[int, int | None]
                          ) -> dict[int, int]:
        return {
            nid: d for nid, d in decisions.items()
            if d is not None and self.nodes[nid].byzantine is None
        }


def agree_on_private_layer(proposals: dict[int, int], *,
                           byzantine: dict[int, str] | None = None,
                           num_layers: int | None = None,
                           seed: int = 0) -> ConsensusResult:
    """Run DINAR's initialization vote over per-client layer indices."""
    return BroadcastVoting(
        proposals, byzantine=byzantine, value_space=num_layers,
        seed=seed).run()
