"""Seeded workload generators.

``build(name, seed)`` returns the spec files to write (file name -> text)
and the workload's fixed op list.  Each op is one ``quivercalc`` invocation
with the expectations its output is checked against (see checks.py).  The
same seed gives the same files and ops.

Sizes are fixed per slot and only structure, names, assignment order and
parameters are drawn from the seed, so the work in one op list changes
little between seeds and the run-to-run spread stays small.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import expect

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# One oversize datum: analyze sweeps its 41^6 (about 4.75e9) lattice points
# with no budget, so it runs into the per-op deadline.  It is a probe, kept
# out of the op list: it runs once per run and is reported beside the
# metrics (see run.py).  Canonical theta vanishes on the second vertex
# alone, so the datum is not coprime and a completed or refused analyze
# must exit 1; a refusal report may omit the dimensions.
A6_DIM = 40


def _fixture_docs():
    return {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.json"))}


def _doc(vertices, arrows, d, theta, framing=None):
    doc = {
        "vertices": list(vertices),
        "arrows": [{"from": s, "to": t} for s, t in arrows],
        "dimension": dict(d),
        "stability": dict(theta),
    }
    if framing is not None:
        doc["framing"] = {"i": framing[0], "j": framing[1]}
    return doc


def _canonical(vertices, arrows, d):
    """theta(e) = <d, e> - <e, d>: always pairs to zero with d."""
    theta = {v: 0 for v in vertices}
    for s, t in arrows:
        theta[t] -= d[s]
        theta[s] += d[t]
    return theta


def _coprime_theta(rng, vertices, d):
    """A random theta-coprime zero-pairing parameter for an indivisible d: a
    random combination of the vectors d_v e_u - d_u e_v, drawn until no
    proper nonzero e <= d pairs to zero."""
    u, rest = vertices[0], vertices[1:]
    while True:
        theta = {v: 0 for v in vertices}
        for v in rest:
            c = rng.choice([c for c in range(-9, 10) if c])
            theta[u] += c * d[v]
            theta[v] -= c * d[u]
        if expect.zero_pairing_count(vertices, d, theta) == 2:
            return theta


def _powers_theta(rng, vertices):
    """A theta-coprime parameter for the thin dimension vector: distinct
    powers of two on all vertices but one, which carries minus their sum, so
    only the empty and the full subset pair to zero."""
    order = list(vertices)
    rng.shuffle(order)
    theta = {v: 2**k for k, v in enumerate(order[:-1])}
    theta[order[-1]] = -sum(theta.values())
    return theta


def _acyclic_arrows(rng, order, extra):
    """A chain along ``order`` plus ``extra`` random arrows that go forward
    in it, so the quiver is connected and acyclic."""
    arrows = [(order[k], order[k + 1]) for k in range(len(order) - 1)]
    for _ in range(extra):
        a, b = sorted(rng.sample(range(len(order)), 2))
        arrows.append((order[a], order[b]))
    return arrows


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


class _Ops:
    """Collects spec files and ops, attaching expected outcomes.  Probes
    are ops kept out of the op list: each runs once per run."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.docs: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.probes: list[dict] = []
        self._facts: dict[str, dict] = {}

    def spec(self, name, doc):
        self.docs[name] = doc
        self.files[name] = json.dumps(doc, indent=2) + "\n"
        return name

    def raw(self, name, text):
        self.files[name] = text
        return name

    def facts(self, name, sweep=True):
        if name not in self._facts:
            self._facts[name] = expect.datum_facts(self.docs[name], sweep)
        return self._facts[name]

    def _add(self, kind, cmd, spec, fmt, expectation, flags=(), probe=False):
        argv = [cmd, spec] + (["--json"] if fmt == "json" else []) + [str(f) for f in flags]
        (self.probes if probe else self.ops).append(
            {
                "name": " ".join([cmd, spec.removesuffix(".json"), *argv[2:]]),
                "kind": kind,
                "argv": argv,
                "fmt": fmt,
                "expect": expectation,
            }
        )

    def analyze(self, spec, fmt, probe=False):
        f = self.facts(spec, sweep=not probe)
        decidable = f["acyclic"] and f["indivisible"] and f["coprime"]
        if f["strong"] is None and decidable:
            raise ValueError(f"{spec}: exit code undecidable without a sweep")
        ok = decidable and bool(f["strong"])
        exp = {"exit": 0 if ok else 1, "moduli_dim": f["moduli_dim"], "hh1": f.get("hh1")}
        if probe:
            exp["may_refuse"] = True
        self._add("analyze", "analyze", spec, fmt, exp, probe=probe)

    def frame(self, spec, fmt):
        f = self.facts(spec)
        self._add("frame", "frame", spec, fmt, {"exit": 0, "checked": 4 * f["lattice_points"]})

    def reduce(self, spec, fmt):
        doc, f = self.docs[spec], self.facts(spec)
        if f["acyclic"] and f["indivisible"] and f["coprime"]:
            i, j = doc["framing"]["i"], doc["framing"]["j"]
            exp = {
                "exit": 0,
                "case": expect.reduction_case(doc["dimension"], i, j),
                "path_dim": f["path_count"](i, j),
            }
        else:
            exp = {"exit": 1, "values": False}
        self._add("reduce", "reduce", spec, fmt, exp)

    def verify(self, spec, fmt, prime=None, budget=None, seed=None):
        doc, f = self.docs[spec], self.facts(spec)
        flags = []
        for flag, value in (("--prime", prime), ("--budget", budget), ("--seed", seed)):
            if value is not None:
                flags += [flag, value]
        oracle = doc.get("oracle", {})
        prime = prime or oracle.get("prime", 2)
        budget = budget or oracle.get("budget", 10**6)
        if "framing" not in doc or not f["coprime"]:
            exp = {"exit": 1, "values": False}
        else:
            if expect.subspace_tuples(doc, prime) > budget:
                raise ValueError(f"{spec}: subspace tuples exceed --budget {budget}")
            i, j = doc["framing"]["i"], doc["framing"]["j"]
            total = prime ** expect.framed_entries(doc, i, j)
            exp = {"exit": 0, "points_checked": total if total <= budget else budget}
        self._add("verify", "verify", spec, fmt, exp, flags)

    def refusal(self, spec, cmd, fmt, code):
        self._add("refusal", cmd, spec, fmt, {"exit": code})


def _small_random(rng, n):
    """An acyclic datum with n <= 4 vertices, d_i in {1, 2}, canonical theta
    and a framing block."""
    vertices = [str(k) for k in range(1, n + 1)]
    arrows = _acyclic_arrows(rng, _shuffled(rng, vertices), rng.randrange(3))
    d = {v: rng.choice((1, 2)) for v in vertices}
    return _doc(vertices, arrows, d, _canonical(vertices, arrows, d), tuple(rng.sample(vertices, 2)))


def desk(seed):
    """Every subcommand, --json and human, on the fixtures and on small
    random data, plus a fixed share of specs that must be refused."""
    rng = random.Random(seed)
    ops = _Ops()
    for name, doc in _fixture_docs().items():
        spec = ops.spec(f"{name}.json", doc)
        for fmt in ("json", "human"):
            ops.analyze(spec, fmt)
            if "framing" in doc:
                ops.frame(spec, fmt)
                ops.reduce(spec, fmt)
            else:
                ops.refusal(spec, "frame", fmt, 2)
                ops.refusal(spec, "reduce", fmt, 2)
            # The thick fixture would sample 10^6 points at the default
            # budget; it is verified in the oracle workload instead.
            if name != "threekronecker_d23":
                ops.verify(spec, fmt)
    for k in range(8):
        fmt = ("json", "human")[k % 2]
        spec = ops.spec(f"small{k}.json", _small_random(rng, 2 + k % 3))
        ops.analyze(spec, fmt)
        ops.frame(spec, fmt)
        ops.reduce(spec, fmt)
        doc = ops.docs[spec]
        if not ops.facts(spec)["coprime"] or expect.subspace_tuples(doc, 2) <= 64:
            ops.verify(spec, fmt, budget=64)
    for k, fmt in enumerate(("json", "human")):
        doc = _small_random(rng, 3 + k)
        text = json.dumps(doc)
        ops.refusal(ops.raw(f"badjson{k}.json", text[: len(text) // 2]), "analyze", fmt, 2)

        doc = _small_random(rng, 3 + k)
        doc["arrows"][rng.randrange(len(doc["arrows"]))]["to"] = "undeclared"
        ops.refusal(ops.spec(f"unknown{k}.json", doc), "analyze", fmt, 2)

        doc = _small_random(rng, 3 + k)
        doc["stability"][rng.choice(doc["vertices"])] += 1
        ops.refusal(ops.spec(f"pairing{k}.json", doc), "analyze", fmt, 2)

        n = 2 + k
        vertices = [str(v) for v in range(1, n + 1)]
        arrows = [(vertices[v], vertices[(v + 1) % n]) for v in range(n)]
        d = {v: rng.choice((1, 2)) for v in vertices}
        cyclic = _doc(vertices, arrows, d, _canonical(vertices, arrows, d), tuple(rng.sample(vertices, 2)))
        ops.refusal(ops.spec(f"cyclic{k}.json", cyclic), "frame", fmt, 1)

        doc = _small_random(rng, 3 + k)
        del doc["framing"]
        ops.refusal(ops.spec(f"noframing{k}.json", doc), "reduce", fmt, 2)
    return ops


# Dimension vectors of the lattice slots, assigned to vertices in seeded
# order: 600 to 5.1k lattice points each, about 31k in all.  Many slots of
# graded size keep the op latencies dense, so their quantiles are steady.
# All are indivisible, so a coprime theta exists for each.
LATTICE_SLOTS = (
    (3, 4, 4, 5),
    (3, 4, 5, 6),
    (3, 3, 3, 3, 4),
    (4, 5, 5, 6),
    (3, 3, 3, 4, 4),
    (4, 5, 6, 7),
    (5, 6, 6, 7),
    (3, 3, 4, 4, 5),
    (3, 3, 3, 4, 7),
    (5, 6, 7, 8),
    (4, 4, 4, 5, 5),
    (3, 4, 4, 5, 6),
    (3, 3, 3, 3, 3, 4),
)


def _canary_verify(ops):
    """One small verify, so that every layer is entered on this workload."""
    spec = ops.spec("a2.json", _fixture_docs()["a2"])
    ops.verify(spec, "json")


def lattice(seed):
    """analyze, frame and reduce on 4-6 vertex acyclic data with d_i in 3..9,
    plus the oversize A6 datum as a probe under the per-op deadline.

    Each slot's arrows and dimension vector are fixed (drawn from the slot
    number), because the sweep cost of a lattice depends on them beyond its
    size; the seed draws the vertex names, the framing vertices and theta.
    Even slots take the canonical theta, which on these data vanishes on
    some proper subdimension vector, so the coprimality sweep stops at a
    witness and reduce refuses; odd slots take a random coprime theta, so
    every sweep runs to the end and reduce completes."""
    rng = random.Random(seed)
    ops = _Ops()
    for k, dims in enumerate(LATTICE_SLOTS):
        shape = random.Random(k)
        vertices = [f"x{v}" for v in sorted(rng.sample(range(100), len(dims)))]
        arrows = _acyclic_arrows(shape, _shuffled(shape, vertices), len(dims) // 2 + 1)
        d = dict(zip(vertices, _shuffled(shape, dims)))
        theta = _canonical(vertices, arrows, d) if k % 2 == 0 else _coprime_theta(rng, vertices, d)
        spec = ops.spec(f"lattice{k}.json", _doc(vertices, arrows, d, theta, tuple(rng.sample(vertices, 2))))
        ops.analyze(spec, "json")
        ops.frame(spec, "json")
        ops.reduce(spec, "json")
    _canary_verify(ops)
    vertices = [str(v) for v in range(1, 7)]
    arrows = list(zip(vertices, vertices[1:]))
    d = {v: A6_DIM for v in vertices}
    spec = ops.spec("a6_oversize.json", _doc(vertices, arrows, d, _canonical(vertices, arrows, d)))
    ops.analyze(spec, "json", probe=True)
    return ops


# Parallel-arrow multiplicities along the thin chains: about 4k paths each.
CHAIN_MULTIPLICITIES = ((4, 5, 5, 6, 6), (3, 3, 4, 4, 5, 6), (3, 3, 3, 3, 3, 4, 4))
SPARSE_SIZES = (60, 78, 96, 114, 132, 150)


def paths(seed):
    """(a) sparse-support chains and random DAGs of 60-150 vertices, and
    (b) thin chains of parallel arrows with one long arrow."""
    rng = random.Random(seed)
    ops = _Ops()
    for k, n in enumerate(SPARSE_SIZES):
        # The DAG is fixed per slot, since path-count sizes depend on its
        # shape; the seed draws the support, theta and the arrow order.
        shape = random.Random(k)
        vertices = [f"v{m}" for m in range(n)]
        order = _shuffled(shape, vertices)
        arrows = _acyclic_arrows(shape, order, n if k % 2 else 0)
        u = order[n // 4 + rng.randrange(-5, 6)]
        v = order[3 * n // 4 + rng.randrange(-5, 6)]
        arrows += [(u, v), (u, v)]
        d = {x: 0 for x in vertices}
        d[u] = d[v] = 1
        theta = {x: rng.randrange(-3, 4) for x in vertices}
        theta[u], theta[v] = 1, -1
        spec = ops.spec(f"sparse{k}.json", _doc(vertices, _shuffled(rng, arrows), d, theta, (u, v)))
        ops.analyze(spec, "json")
        ops.reduce(spec, "json")
    for k in range(8):
        mults = _shuffled(rng, CHAIN_MULTIPLICITIES[k % len(CHAIN_MULTIPLICITIES)])
        vertices = [f"c{m}" for m in range(len(mults) + 1)]
        arrows = [(vertices[m], vertices[m + 1]) for m, count in enumerate(mults) for _ in range(count)]
        arrows.append((vertices[0], vertices[-1]))
        d = {x: 1 for x in vertices}
        # analyze runs the presentation once more when the datum is strongly
        # amply stable; keep every chain on the side where it runs once.
        theta = _powers_theta(rng, vertices)
        while expect.strongly_amply_stable(vertices, arrows, d, theta):
            theta = _powers_theta(rng, vertices)
        doc = _doc(vertices, arrows, d, theta, (vertices[0], vertices[-1]))
        spec = ops.spec(f"chain{k}.json", doc)
        ops.analyze(spec, "json")
        ops.reduce(spec, "json")
    _canary_verify(ops)
    return ops


# Thick sampled slots: (parallel arrows, d_1, d_2, budget).  The budget is
# the subspace-tuple floor per point, and it is also the sample size.
THICK_SLOTS = (
    (2, 1, 2, 64),
    (3, 1, 2, 64),
    (2, 2, 1, 64),
    (3, 2, 1, 64),
    (4, 1, 2, 64),
    (2, 1, 3, 128),
    (3, 1, 3, 128),
    (2, 3, 1, 128),
    (4, 1, 3, 128),
    (2, 2, 3, 320),
)
# Thin slots: (vertex count, arrows and framing vertices by position,
# prime), exhaustive over prime^(arrows + 2) framed points.  The seed
# labels the positions and draws theta, so the work per slot stays fixed.
THIN_SLOTS = (
    (3, ((0, 1), (1, 2)), (0, 2), 2),
    (3, ((0, 1), (0, 1), (1, 2)), (0, 2), 2),
    (3, ((0, 1), (1, 2), (0, 2)), (0, 1), 2),
    (4, ((0, 1), (1, 2), (2, 3)), (0, 3), 2),
    (4, ((0, 1), (0, 2), (0, 3)), (0, 3), 2),
    (4, ((0, 1), (0, 2), (1, 3), (2, 3)), (0, 3), 2),
    (3, ((0, 1), (1, 2)), (1, 2), 3),
    (4, ((0, 1), (1, 2), (1, 3), (2, 3)), (1, 3), 2),
) * 2


def oracle(seed):
    """verify: exhaustive over F_2 and F_3 on thin data, sampled on thick data."""
    rng = random.Random(seed)
    ops = _Ops()
    fixtures = _fixture_docs()
    for name in ("threevertex", "a3", "a2", "kronecker"):
        spec = ops.spec(f"{name}.json", fixtures[name])
        for prime in (2, 3):
            ops.verify(spec, "json", prime=prime)
    for k, (n, shape, (i, j), prime) in enumerate(THIN_SLOTS):
        vertices = [str(v) for v in range(1, n + 1)]
        at = _shuffled(rng, vertices)
        arrows = [(at[a], at[b]) for a, b in shape]
        d = {v: 1 for v in vertices}
        doc = _doc(vertices, arrows, d, _powers_theta(rng, vertices), (at[i], at[j]))
        ops.verify(ops.spec(f"thin{k}.json", doc), "json", prime=prime)
    spec = ops.spec("threekronecker_d23.json", fixtures["threekronecker_d23"])
    ops.verify(spec, "json", budget=320, seed=rng.randrange(10**6))
    for k, (m, d1, d2, budget) in enumerate(THICK_SLOTS):
        g = math.gcd(d1, d2)
        doc = _doc(("1", "2"), [("1", "2")] * m, {"1": d1, "2": d2}, {"1": d2 // g, "2": -d1 // g}, ("1", "2"))
        ops.verify(ops.spec(f"thick{k}.json", doc), "json", budget=budget, seed=rng.randrange(10**6))
    ops.analyze("kronecker.json", "json")  # enters cohomology and linalg, idle otherwise
    return ops


WORKLOADS = {"desk": desk, "lattice": lattice, "paths": paths, "oracle": oracle}


def build(name, seed):
    return WORKLOADS[name](seed)
