"""The ``Checkpointable`` protocol: snapshot/restore for crawl state.

Every stateful component that participates in durable checkpoints —
frontier, bandits, classifier and its models, action space (which
replays the tag paths it was given), early-stopping monitor, cost
ledger, HTTP client, metrics — implements the same two methods.  The
names avoid ``snapshot()`` because
:meth:`repro.http.ledger.CostLedger.snapshot` already means "defensive
copy".

Contract (enforced by the hypothesis round-trip tests):

* ``snapshot_state`` returns a JSON-canonicalizable dict (see
  :mod:`repro.checkpoint.codec`) and does not mutate the component;
* ``restore_state(snapshot_state())`` on a freshly *constructed*
  component of the same configuration makes it behaviourally
  indistinguishable from the original — every subsequent random draw,
  float accumulation and iteration order matches bit for bit;
* ``snapshot → restore → snapshot`` is byte-identical.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Checkpointable(Protocol):
    """Structural interface for components that can round-trip their
    mutable state through a canonical-JSON payload."""

    def snapshot_state(self) -> dict:
        """Return this component's mutable state as a canonical payload."""
        ...

    def restore_state(self, state: dict) -> None:
        """Overwrite this component's mutable state from a payload
        produced by :meth:`snapshot_state` on an identically-configured
        instance."""
        ...
