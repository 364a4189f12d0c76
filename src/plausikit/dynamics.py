"""Model transformations: public announcement and radical upgrade.

Announcing a formula removes every state where it fails and restricts all
relations to the survivors.  Upgrading promotes every state where the
formula holds strictly above every state where it fails, keeping the
original order within the two zones, and leaves states, indistinguishability
and valuation untouched.  Both constructors return fresh immutable models,
materialized from the same index views the evaluator uses.
"""

from __future__ import annotations

from .errors import EmptyAnnouncementError
from .model import Model
from .syntax import Formula

__all__ = ["announce", "upgrade", "announce_restrict", "upgrade_promote"]


def announce_restrict(m: Model, keep: frozenset) -> Model:
    """Restrict the model to ``keep``.  Raises when ``keep`` is empty:
    a model must have at least one state."""
    ix = m.index
    keep = ix.mask(keep)
    if not keep:
        raise EmptyAnnouncementError("announcement leaves no states")
    return ix.announced(keep).to_model()


def upgrade_promote(m: Model, winners: frozenset) -> Model:
    """Rebuild every plausibility order so the ``winners`` zone sits strictly
    below (more plausible than) its complement, preserving order inside each
    zone."""
    ix = m.index
    return ix.upgraded(ix.mask(winners)).to_model()


def announce(m: Model, f: Formula) -> Model:
    """Public announcement of f: keep exactly the states satisfying f."""
    from .semantics import truth_set
    return announce_restrict(m, truth_set(m, f))


def upgrade(m: Model, f: Formula) -> Model:
    """Radical upgrade with f: make every f-state more plausible than every
    state where f fails."""
    from .semantics import truth_set
    return upgrade_promote(m, truth_set(m, f))
