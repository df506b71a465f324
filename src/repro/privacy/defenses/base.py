"""Defense hook interface.

A defense is a single object per federated run that intercepts the
FL message flow at four points:

* ``on_receive_global``  — client downloads the global model
  (DINAR personalizes here);
* ``on_send_update``     — client uploads its update
  (DINAR obfuscates, LDP/WDP add noise, GC compresses, SA masks);
* ``on_aggregate``       — server finishes aggregation
  (CDP adds central noise);
* ``on_round_start``     — per-round setup (SA records the cohort its
  pairwise masks derive from); a parallel worker replays it before its
  first task of the round, so run-wide accounting reads the parent's
  instance.

``make_optimizer`` lets a defense impose its own local-training
optimizer (DINAR's adaptive gradient descent); returning None keeps
the experiment default.

A defense keeps no per-client state of its own: it declares a row
width (``state_width``) and each client owns a row of that many values
in the executor's registry (DINAR's stored layers, GC's residual),
shared with the worker that trains the client.  ``init_state`` fills a
new client's row; both client-side hooks receive the row as ``state``,
and ``on_send_update`` rewrites it in place (``state=None`` keeps
nothing).

Defenses that transform a round *delta* (CDP, WDP, GC, LaDP) read the
round's global model from the hook argument ``global_weights``: the
store the client received (``on_send_update``) or the server's
round-start model (``on_aggregate``).  Every process already holds
it, so no defense keeps a copy of it.

Weight-plane defenses (noise, clipping, masking, compression) operate
on the flat ``WeightStore`` buffer; gradient-plane defenses that hook
local training (LDP's DP-SGD, DINAR's ADGD) step the model's flat
gradient vector directly — see *The parameter plane* in
``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.model import Model
from repro.nn.optim import Optimizer
from repro.nn.store import Layout, WeightStore


class Defense:
    """No-op defense: the paper's "No Defense" baseline."""

    name = "none"

    #: When True the client transmits ``num_samples * weights`` (plus any
    #: masking) and the server divides the plain sum by total samples —
    #: the transmission protocol of secure aggregation.
    pre_weighted = False

    #: When True the round may only aggregate if *every* sampled client
    #: reported back: the defense's correctness depends on the complete
    #: cohort (secure aggregation's pairwise masks only cancel when both
    #: endpoints of every pair are summed).  The simulation rejects
    #: dropout/partial-completion configs up front and the server
    #: refuses to finalize a short round rather than silently corrupt
    #: the aggregate.
    requires_full_cohort = False

    def on_round_start(self, round_index: int, client_ids: Sequence[int],
                       template: WeightStore,
                       rng: np.random.Generator) -> None:
        """Per-round setup before any client trains."""

    def on_receive_global(self, client_id: int, weights: WeightStore,
                          state: np.ndarray | None = None
                          ) -> WeightStore:
        """Transform the downloaded global model for one client."""
        return weights

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        """Transform the update a client is about to upload.

        ``global_weights`` is the global model the client received,
        before ``on_receive_global``; it is read-only.
        """
        return weights

    def on_aggregate(self, weights: WeightStore,
                     global_weights: WeightStore,
                     rng: np.random.Generator) -> WeightStore:
        """Transform the aggregated model on the server.

        ``global_weights`` is the round's start model, the one every
        client received.
        """
        return weights

    def make_optimizer(self, model: Model, lr: float,
                       rng: np.random.Generator | None = None
                       ) -> Optimizer | None:
        """Optionally impose a local-training optimizer.

        ``rng`` is the calling client's per-``(round, client)`` stream;
        defenses whose optimizer draws noise (DP-SGD) must use it so
        the draw is independent of construction order across processes.
        """
        return None

    def state_width(self, layout: Layout) -> int:
        """Values in one client's state row; 0 keeps none."""
        return 0

    def init_state(self, state: np.ndarray,
                   global_weights: WeightStore) -> None:
        """Fill a new client's state row from the round's global model,
        so the hooks behave exactly as for a client with no history."""

    def upload_nbytes(self, weights: WeightStore,
                      global_weights: WeightStore) -> int:
        """Wire size of one transmitted update against the round's
        global model.

        Defaults to a dense encoding at the store's precision; defenses
        with a cheaper wire format (gradient compression's sparse
        deltas) override.
        """
        from repro.fl.network import dense_nbytes
        return dense_nbytes(weights)

    def state_bytes(self) -> int:
        """Extra bytes kept alive besides the state rows (Table 3)."""
        return 0

    def describe(self) -> str:
        """One-line human-readable parameterization."""
        return self.name
