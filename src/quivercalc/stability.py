"""Dimension-vector-level stability decisions.

Everything here is a statement about the datum (q, d, theta), read through
one entry, ``assumptions_report``: acyclicity, indivisibility,
theta-coprimality (the implementable sufficient condition for "semistable =
stable") and the strong ample stability criterion, each verdict with its
witnesses.  ``framing.verify_framed_sign_partition`` runs the same sweep at
scale 1 and reads off it the base points with theta(e) = +-1, where a
framing at scale 1 departs from its predicted signs.

``HYPOTHESES`` is the one table of the standing hypotheses: every report's
verified/failed ledger, every refusal and every gate reads its names there.
Acyclicity alone is refused outside, by ``core._acyclic_order``, which
names the cycle.

The condition mu(e) >= mu(d - e) is implemented as theta(e) >= 0, which is
algebraically equivalent when theta(d) = 0 and both slopes are defined, and
keeps the hot loop in integer arithmetic.

Every decision over the lattice {e : 0 <= e <= d} reads one index-space
sweep, ``_lattice_values``: theta(e) and <e, d - e> + 1 in lexicographic
order, each as fixed-width fields of one int that one block rule grows a
coordinate at a time, decided by masks of their top bits, bounded by
``LATTICE_BUDGET``.  DimensionVector objects are built only for witnesses.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .core import DimensionVector, Quiver, StabilityParameter, is_acyclic
from .errors import AssumptionViolatedError, BudgetExceededError, CyclicQuiverError, PairingNonzeroError

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
# vector fields.  Acyclicity's name is spelled by its refusal,
# ``CyclicQuiverError``.
HYPOTHESES = {
    "acyclic": CyclicQuiverError.hypothesis,
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


class AssumptionsReport(NamedTuple):
    """Aggregated verdicts on the standing hypotheses for a datum (q, d, theta).

    ``coprime`` is the implementable sufficient condition for "every
    semistable representation of dimension vector d is stable".  Exact ample
    stability is *not* decided here: ``amply_stable`` is YES exactly when the
    strong sufficient criterion holds and UNKNOWN otherwise (a definite NO
    is decided only for framed data, by ``framing.framed_ample_stability``).
    ``failing_witnesses`` maps a failed check name to the subdimension vectors
    that violate it, lexicographically first, at most ``MAX_WITNESSES`` of
    them; ``failing_witness_counts`` maps the name of a list cut there to
    its full count.  Both default to a read-only empty map.
    """

    acyclic: bool
    indivisible: bool
    coprime: bool
    strongly_amply_stable: bool
    amply_stable: ThreeValued
    failing_witnesses: Mapping[str, tuple[DimensionVector, ...]] = MappingProxyType({})
    failing_witness_counts: Mapping[str, int] = MappingProxyType({})

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
        and strong ample stability.  Acyclicity is refused by
        ``core._acyclic_order``, which names the cycle; this report keeps
        only the verdict, so the name ``"acyclic"`` raises ValueError."""
        if "acyclic" in names:
            raise ValueError("acyclicity is refused by the quiver's topological order, which names the cycle")
        for name in names:
            if getattr(self, name):
                continue
            if name == "coprime":
                raise _not_coprime_error(self.failing_witnesses["coprime"][0])
            raise AssumptionViolatedError(HYPOTHESES[name])


def _not_coprime_error(witness: DimensionVector) -> AssumptionViolatedError:
    """The coprimality refusal, naming the witness in vertex-name order."""
    body = ", ".join(f"{v}: {c}" for v, c in witness.entries)
    detail = f"theta vanishes on proper subdimension vector ({body})"
    return AssumptionViolatedError(HYPOTHESES["coprime"], detail=detail)


def _require_zero_pairing(theta: StabilityParameter, d: DimensionVector) -> None:
    pairing = theta(d)
    if pairing != 0:
        raise PairingNonzeroError(f"theta(d) = {pairing}, expected 0")


def _lattice_size(dv: Sequence[int]) -> int:
    """prod_k (d_k + 1), refused with BudgetExceededError over ``LATTICE_BUDGET``."""
    size = math.prod(c + 1 for c in dv)
    if size > LATTICE_BUDGET:
        raise BudgetExceededError("lattice points", size, LATTICE_BUDGET)
    return size


class _Sweep(NamedTuple):
    """theta(e) and <e, d - e> + 1 for every e with 0 <= e <= d, each as
    fields of one int.

    Field k, ``width`` bytes at byte k * width (little-endian), holds B plus
    the value, B = 2^(8 width - 1), at the k-th vector in
    ``itertools.product`` order; ``_lattice_point`` inverts the index.  Every
    value a decision forms lies strictly between -B and B, so no field
    borrows or carries and its top bit says whether it is >= 0.  A decision
    is a mask of the top bits of the proper fields, read back by ``indices``.
    """

    size: int
    width: int
    theta: int
    form: int  # <e, d - e> + 1, read only for an acyclic quiver
    ones: int  # 1 in every field
    top: int  # the top bit of every proper field

    def at_least(self, c: int) -> int:
        """The mask of the proper fields with theta(e) >= c."""
        return (self.theta - c * self.ones) & self.top

    def equal(self, c: int) -> int:
        """The mask of the proper fields with theta(e) = c: >= c, and <= c
        read on the negated fields B - theta(e)."""
        return self.at_least(c) & ((self.ones << 8 * self.width) - self.theta + c * self.ones)

    def indices(self, mask: int, limit: int | None = None) -> list[int]:
        """The indices of the fields set in ``mask`` in order, at most ``limit``."""
        tops = mask.to_bytes(self.size * self.width, "little")[self.width - 1 :: self.width]
        return list(itertools.islice(itertools.compress(range(self.size), tops), limit))


def _lattice_values(q: Quiver, dv: tuple[int, ...], tv: tuple[int, ...]) -> _Sweep:
    """theta(e) and <e, d - e> + 1 over 0 <= e <= d, both given aligned to
    the vertex order of q: the one budgeted sweep, refused over
    ``LATTICE_BUDGET`` before anything is allocated.  B exceeds a bound on
    |theta(e)| and on every partial sum of the form, plus 1 for a comparison
    with +-1 or the form's shift, so the width needs no setting.

    theta, the form and its rows grow by one rule, ``_grow`` (``ones`` just
    repeats), from the last vertex with d_k > 0 to the first (the others pin
    e_k = 0 and leave the index order unchanged).  By

        <e, d - e> = sum_k e_k (d_k - out_k - e_k) + sum_arrows e_s e_t,

    where out_k is the sum of d_t over the arrows k -> t, the form steps by
    row_k with the constant x (d_k - out_k - x), theta by t_k and the row of
    an earlier j by the arrows between j and k, both in every field.  row_j,
    the later e_t weighted by the arrows between j and t, lives from the
    first later neighbour of j until j is processed, with fields in
    0..sum_arrows d_s d_t, inside the form's bound.  A loop's row is popped
    before it steps, so its term e_k^2 is left out.  The mask ``top`` is
    built first, from bytes, while nothing else is allocated.
    """
    size = _lattice_size(dv)
    out, links = [0] * len(dv), {}  # (j, k) with j <= k -> arrows between them
    for s, t in q.arrow_indices:
        out[s] += dv[t]
        key = (s, t) if s < t else (t, s)
        links[key] = links.get(key, 0) + 1
    form_bound = sum(map(operator.mul, dv, dv)) + 2 * sum(map(operator.mul, dv, out))
    width = (max(sum(map(abs, map(operator.mul, dv, tv))), form_bound) + 1).bit_length() // 8 + 1
    bits, nbytes, ones, rows = 8 * width, width, 1, {}  # rows: j -> row_j over the vertices so far
    top = int.from_bytes(bytes(width) + (bytes(width - 1) + b"\x80") * (size - 2), "little")
    theta, form = 1 << bits - 1, (1 << bits - 1) + 1
    for k in reversed([k for k, c in enumerate(dv) if c]):
        c, flat = dv[k], [0] * (dv[k] + 1)
        rows.update({j: rows.get(j, 0) for j, t in links if t == k and dv[j]})
        form = _grow(form, rows.pop(k, 0), [x * (c - out[k] - x) for x in range(c + 1)], ones, nbytes)
        theta = _grow(theta, tv[k] * ones, flat, ones, nbytes)
        for j, r in rows.items():
            rows[j] = _grow(r, links.get((j, k), 0) * ones, flat, ones, nbytes)
        ones = int.from_bytes(ones.to_bytes(nbytes, "little") * (c + 1), "little")
        nbytes *= c + 1
    return _Sweep(size, width, theta, form, ones, top)


def _grow(sweep: int, step: int, constants: Sequence[int], ones: int, nbytes: int) -> int:
    """``sweep`` with a slowest coordinate more: blocks sweep + x step + constants[x] ones, joined."""
    blocks = [(sweep + (x * step + a * ones)).to_bytes(nbytes, "little") for x, a in enumerate(constants)]
    return int.from_bytes(b"".join(blocks), "little")


def _lattice_point(dv: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The subdimension vector at index k of ``_lattice_values``."""
    e = []
    for c in reversed(dv):
        k, x = divmod(k, c + 1)
        e.append(x)
    return tuple(reversed(e))


def _strong_violations(dv: tuple[int, ...], sweep: _Sweep) -> tuple[list[tuple[int, ...]], int]:
    """The first ``MAX_WITNESSES`` proper nonzero e with theta(e) >= 0 and
    <e, d - e> > -2, in order, and the count of all of them, for an acyclic
    q: the fields set in both masks.  A tuple is built only for a kept
    witness."""
    mask = sweep.at_least(0) & sweep.form
    return [_lattice_point(dv, k) for k in sweep.indices(mask, MAX_WITNESSES)], mask.bit_count()


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
    sweep = _lattice_values(q, dv, theta.aligned(q.vertices))
    k = next(iter(sweep.indices(sweep.equal(0), 1)), None)
    coprime = k is None
    if not coprime:
        witnesses["coprime"] = (DimensionVector(zip(q.vertices, _lattice_point(dv, k))),)

    if acyclic:
        violations, count = _strong_violations(dv, sweep)
        strong = not count
        if count:
            witnesses["strongly_amply_stable"] = tuple(DimensionVector(zip(q.vertices, e)) for e in violations)
        if count > MAX_WITNESSES:
            counts["strongly_amply_stable"] = count
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
