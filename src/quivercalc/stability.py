"""Dimension-vector-level stability decisions.

Everything here is a statement about the datum (q, d, theta), read through
one entry, ``assumptions_report``: acyclicity, indivisibility,
theta-coprimality (the implementable sufficient condition for "semistable =
stable") and the strong ample stability criterion, each verdict with its
witnesses.  ``framing.verify_framed_sign_partition`` reads the signs of
theta(e) from the same sweep.

``HYPOTHESES`` is the one table of the standing hypotheses: every report's
verified/failed ledger, every refusal and every gate reads its names there.

The condition mu(e) >= mu(d - e) is implemented as theta(e) >= 0, which is
algebraically equivalent when theta(d) = 0 and both slopes are defined, and
keeps the hot loop in integer arithmetic.

Every decision over the lattice {e : 0 <= e <= d} reads one index-space
sweep, ``_lattice_values``: theta(e) as a flat list of ints in lexicographic
order, bounded by ``LATTICE_BUDGET``.  DimensionVector objects are built only
for what is returned (witnesses).
"""

from __future__ import annotations

import collections
import enum
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import DimensionVector, Quiver, StabilityParameter, is_acyclic
from .errors import AssumptionViolatedError, BudgetExceededError, PairingNonzeroError

__all__ = [
    "ASSUMED_HYPOTHESES",
    "HYPOTHESES",
    "LATTICE_BUDGET",
    "MAX_WITNESSES",
    "ThreeValued",
    "AssumptionsReport",
    "assumptions_report",
]

# Most subdimension vectors one sweep may cover, prod_i (d_i + 1) of the
# base datum.  Every lattice consumer refuses a larger datum with
# BudgetExceededError before enumerating anything.
LATTICE_BUDGET = 10**6


# Most witnesses a report keeps per failed check, the first in lattice order;
# ``AssumptionsReport.failing_witness_counts`` gives the total of a cut list.
MAX_WITNESSES = 32

# The standing hypotheses on (q, d, theta), keyed by their AssumptionsReport
# field, in the order reduce gates on them, each with its one name: in the
# verified/failed ledger, in a refusal's error and in analyze's refused
# vector fields.
HYPOTHESES = {
    "acyclic": "acyclicity",
    "indivisible": "indivisibility",
    "coprime": "semistable = stable (theta-coprimality)",
    "strongly_amply_stable": "strong ample stability",
}

# Listed as assumed, never computed, on every full report.
ASSUMED_HYPOTHESES = (
    "vanishing of higher cohomology of the endomorphism summands (consumed as a hypothesis, never computed)",
    "exact ample stability is not decided in general; the strong criterion is used as sufficient evidence",
)


class ThreeValued(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AssumptionsReport:
    """Aggregated verdicts on the standing hypotheses for a datum (q, d, theta).

    ``coprime`` is the implementable sufficient condition for "every
    semistable representation of dimension vector d is stable".  Exact ample
    stability is *not* decided here: ``amply_stable`` is YES exactly when the
    strong sufficient criterion holds and UNKNOWN otherwise (a definite NO
    is decided only for framed data, by ``framing.framed_ample_stability``).
    ``failing_witnesses`` maps a failed check name to the subdimension vectors
    that violate it, lexicographically first, at most ``MAX_WITNESSES`` of
    them; ``failing_witness_counts`` maps the name of a list cut there to
    its full count.
    """

    acyclic: bool
    indivisible: bool
    coprime: bool
    strongly_amply_stable: bool
    amply_stable: ThreeValued
    failing_witnesses: Mapping[str, tuple[DimensionVector, ...]] = field(default_factory=dict)
    failing_witness_counts: Mapping[str, int] = field(default_factory=dict)

    def all_verified(self) -> bool:
        """True when every hypothesis is positively verified (amply stable
        via the strong criterion)."""
        return all(getattr(self, name) for name in HYPOTHESES) and self.amply_stable is ThreeValued.YES

    def refusals(self) -> list[str]:
        """The names of the hypotheses that fail, in table order."""
        return [h for name, h in HYPOTHESES.items() if not getattr(self, name)]

    def ledger(self) -> dict[str, list[str]]:
        """The verified/failed/assumed block of a full report."""
        return {
            "verified": [h for name, h in HYPOTHESES.items() if getattr(self, name)],
            "failed": self.refusals(),
            "assumed": list(ASSUMED_HYPOTHESES),
        }

    def require(self, *names: str) -> None:
        """Raise the refusal of the first of the named hypotheses that fails.

        Callers name only what this report decides from d and the lattice
        sweep: indivisibility, coprimality (refused with its first witness)
        and strong ample stability.  Acyclicity is ``_require_acyclic``'s,
        which names the cycle; this report keeps only the verdict."""
        for name in names:
            if getattr(self, name):
                continue
            if name == "coprime":
                raise _not_coprime_error(self.failing_witnesses["coprime"][0])
            raise AssumptionViolatedError(HYPOTHESES[name])


def _require_acyclic(q: Quiver) -> None:
    """The acyclicity refusal, naming the cycle of q's ``is_acyclic``
    certificate; the commands' gate and the library's ``reduce`` raise it."""
    cycle = is_acyclic(q).cycle
    if cycle is not None:
        raise AssumptionViolatedError(HYPOTHESES["acyclic"], detail=f"cycle arrows {cycle}")


def _not_coprime_error(witness: DimensionVector) -> AssumptionViolatedError:
    """The coprimality refusal, naming the witness in vertex-name order."""
    body = ", ".join(f"{v}: {c}" for v, c in witness.entries)
    detail = f"theta vanishes on proper subdimension vector ({body})"
    return AssumptionViolatedError(HYPOTHESES["coprime"], detail=detail)


def _require_zero_pairing(theta: StabilityParameter, d: DimensionVector) -> None:
    pairing = theta(d)
    if pairing != 0:
        raise PairingNonzeroError(f"theta(d) = {pairing}, expected 0")


def _as_vector(q: Quiver, values: tuple[int, ...]) -> DimensionVector:
    return DimensionVector(dict(zip(q.vertices, values)))


def _lattice_values(dv: tuple[int, ...], tv: tuple[int, ...]) -> list[int]:
    """theta(e) for every e with 0 <= e <= d, both given aligned to one
    vertex order.

    Entry k belongs to the k-th vector of the lexicographic enumeration (the
    last coordinate varies fastest, as in ``itertools.product``), so entry 0
    is e = 0 and the last entry is e = d; ``_lattice_point`` inverts the
    index.  This is the one budgeted sweep: a lattice of more than
    ``LATTICE_BUDGET`` points is refused before anything is allocated, and
    ``_linear_sweep`` builds the list.
    """
    size = math.prod(c + 1 for c in dv)
    if size > LATTICE_BUDGET:
        raise BudgetExceededError("lattice points", size, LATTICE_BUDGET)
    return _linear_sweep(dv, tv)


def _linear_sweep(dv: Sequence[int], tv: Sequence[int]) -> list[int]:
    """The values of e -> sum_k e_k t_k over 0 <= e <= d, in the index order
    of ``_lattice_values``, with no budget check.

    Built by blocks from the last vertex to the first: each new coordinate
    varies slowest, so the list for e_k = x is the current list shifted by
    x * t_k, appended with one C-level ``map`` per block.
    """
    values = [0]
    for c, t in zip(reversed(dv), reversed(tv)):
        blocks = values.copy()
        for x in range(1, c + 1):
            blocks += map(operator.add, values, itertools.repeat(x * t))
        values = blocks
    return values


def _lattice_point(dv: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The subdimension vector at index k of ``_lattice_values``."""
    e = []
    for c in reversed(dv):
        k, x = divmod(k, c + 1)
        e.append(x)
    return tuple(reversed(e))


def _coprime_witness(values: list[int]) -> int | None:
    """Index of the first proper nonzero e with theta(e) = 0, if any."""
    try:
        return values.index(0, 1, len(values) - 1)
    except ValueError:
        return None


def _strong_violations(q: Quiver, dv: tuple[int, ...], values: list[int]) -> list[tuple[int, ...]]:
    """Proper nonzero e with theta(e) >= 0 and <e, d - e> > -2, in order,
    for an acyclic q (so no arrow is a loop).

    The Euler form is built over the whole lattice, in the index order of
    ``values``, with no tuple per point:

        <e, d - e> = sum_k e_k (d_k - out_k - e_k) + sum_arrows e_s e_t,

    where out_k is the sum of d_t over the arrows k -> t.  Only vertices with
    d_k > 0 take part (the others pin e_k = 0 and leave the index order
    unchanged).  From the last such vertex to the first, the list for
    e_k = x is the current list plus x (d_k - out_k - x) plus x times one
    ``_linear_sweep`` over the later vertices, weighted by the number of
    arrows between k and each of them.  The mask theta(e) >= 0 and form > -2
    is one comprehension (it measured faster than C-level ``map``s over
    ``operator`` on CPython 3.11); a tuple is built only for a violation.
    """
    support = [k for k, c in enumerate(dv) if c]
    out = [0] * len(dv)
    links = collections.Counter()  # (k, t) with k < t -> arrows between them
    for s, t in q.arrow_indices:
        out[s] += dv[t]
        links[min(s, t), max(s, t)] += 1
    form = [0]
    for n in range(len(support) - 1, -1, -1):
        k, later = support[n], support[n + 1:]
        c = dv[k]
        weights = [links[k, t] for t in later]
        cross = _linear_sweep([dv[t] for t in later], weights) if any(weights) else None
        blocks, shifted = [], form
        for x in range(c + 1):
            blocks += map(operator.add, shifted, itertools.repeat(x * (c - out[k] - x)))
            if cross is not None and x < c:
                shifted = list(map(operator.add, shifted, cross))
        form = blocks
    mask = [v >= 0 and f > -2 for v, f in zip(values, form)]
    mask[0] = mask[-1] = False
    return [_lattice_point(dv, k) for k in itertools.compress(range(len(mask)), mask)]


def assumptions_report(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> AssumptionsReport:
    """Check acyclicity, indivisibility, coprimality, and strong ample
    stability, and aggregate the verdicts.

    Failures are report content, not errors; a nonzero pairing theta(d) is
    the one exception and still raises.  ``amply_stable`` is YES iff the
    strong criterion holds, UNKNOWN otherwise: the exact decision would need
    stratification machinery that is out of scope here.
    """
    _require_zero_pairing(theta, d)
    acyclic = bool(is_acyclic(q))
    indivisible = d.is_indivisible()
    witnesses: dict[str, tuple[DimensionVector, ...]] = {}
    counts: dict[str, int] = {}

    dv = d.aligned(q.vertices)
    values = _lattice_values(dv, theta.aligned(q.vertices))
    k = _coprime_witness(values)
    coprime = k is None
    if not coprime:
        witnesses["coprime"] = (_as_vector(q, _lattice_point(dv, k)),)

    if acyclic:
        violations = _strong_violations(q, dv, values)
        strong = not violations
        if violations:
            witnesses["strongly_amply_stable"] = tuple(_as_vector(q, e) for e in violations[:MAX_WITNESSES])
        if len(violations) > MAX_WITNESSES:
            counts["strongly_amply_stable"] = len(violations)
    else:
        strong = False

    amply = ThreeValued.YES if strong else ThreeValued.UNKNOWN
    return AssumptionsReport(
        acyclic=acyclic,
        indivisible=indivisible,
        coprime=coprime,
        strongly_amply_stable=strong,
        amply_stable=amply,
        failing_witnesses=witnesses,
        failing_witness_counts=counts,
    )
