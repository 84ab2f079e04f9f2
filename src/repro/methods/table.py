"""The method table: every way to evaluate a snapshot PDR query, one row each.

The paper evaluates one query (Definition 4) by interchangeable methods;
here a method is a row of :data:`METHODS` — how to run it on a server, what
admission charges for it, and the cheaper row a pressed server answers with
instead:

======================  =======================================================
``"fr"``                exact filtering-refinement (Section 5)
``"pa"``                approximate polynomial evaluation (Section 6)
``"dh-optimistic"``     filter step only, candidates counted dense
``"dh-pessimistic"``    filter step only, candidates dropped
``"bruteforce"``        exact full-plane sweep (oracle; ignores all structures)
``"dense-cell"``        dense-cell baseline (answer loss by design)
``"edq"``               effective-density-query baseline (ambiguous by design)
======================  =======================================================

Everything that needs to know a method reads this table:
:meth:`PDRServer.evaluate <repro.core.system.PDRServer.evaluate>` (the
evaluator), :func:`repro.reliability.deadline.ladder_for` (the fallback
chain), :class:`repro.reliability.admission.AdmissionController` (the
prices), ``repro query --method`` (the choices) and the unknown-method
error.  Adding or retiring a method is an edit here and nowhere else.

Costs mirror measured work (per-method table: docs/replication.md): FR
touches the index and refines candidates, PA is a bound-then-evaluate pass
over coefficients, the histogram bounds are one array expression over the
``m^2`` cells; bruteforce and edq scan every object and are priced out.  A
fallback never costs more than the row it replaces.  Both histogram bounds
are terminal; every other row ends in the *optimistic* one, a superset of
the true answer — under pressure the server over-reports dense area rather
than silently dropping regions.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

from ..baselines.bruteforce import bruteforce_from_motions
from ..baselines.dense_cell import dense_cell_query
from ..baselines.edq import edq_query
from ..core.errors import InvalidParameterError
from ..histogram.answers import dh_optimistic, dh_pessimistic

__all__ = ["Method", "METHODS", "method_named"]


class Method(NamedTuple):
    """One row: ``evaluate(server, query, deadline)`` -> ``QueryResult``,
    the admission ``cost`` in tokens, and the next-``cheaper`` method name
    (``None`` for a terminal bound).  ``deadline`` is a
    :class:`~repro.reliability.deadline.Deadline` honoured cooperatively by
    the rows that can run long (FR, PA) and ignored by the rest."""

    evaluate: Callable
    cost: float
    cheaper: Optional[str]


def _bruteforce(server, q, _deadline):
    """The oracle over the motions the structures count at ``q.qt``: those
    whose prediction window ``[t_ref, t_ref + H]`` covers it."""
    motions = server.table.columns()
    covering = motions.covering([q.qt], server.config.horizon)[:, 0]
    return bruteforce_from_motions(motions.take(covering), server.config.domain, q)


def _edq(server, q, _deadline):
    positions = [(x, y) for (_oid, x, y) in server.table.positions_at(q.qt)]
    return edq_query(positions, server.config.domain, q)


METHODS: Dict[str, Method] = {
    "fr": Method(lambda s, q, d: s._fr.query(q, deadline=d), 4.0, "pa"),
    "pa": Method(lambda s, q, d: s.pa.query(q, deadline=d), 2.0, "dh-optimistic"),
    "dh-optimistic": Method(lambda s, q, d: dh_optimistic(s.histogram, q), 1.0, None),
    "dh-pessimistic": Method(lambda s, q, d: dh_pessimistic(s.histogram, q), 1.0, None),
    "bruteforce": Method(_bruteforce, 8.0, "dh-optimistic"),
    "dense-cell": Method(
        lambda s, q, d: dense_cell_query(s.histogram, q), 1.0, "dh-optimistic"
    ),
    "edq": Method(_edq, 8.0, "dh-optimistic"),
}


def method_named(name: str) -> Method:
    """The row for ``name``; an unknown name is the caller's error."""
    try:
        return METHODS[name]
    except (KeyError, TypeError):
        raise InvalidParameterError(
            f"unknown method {name!r}; expected one of {tuple(METHODS)}"
        ) from None
