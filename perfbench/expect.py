"""Reference values for checking quivercalc outputs, computed independently.

Nothing here imports quivercalc.  Every expected value is recomputed from the
spec document with separate, plain code: a path-count DP, a zero-sum count
for theta-coprimality, a direct sweep for strong ample stability, and
closed formulas for lattice sizes, representation entries and subspace
counts over F_p.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque


def topological_order(vertices, arrows):
    """Vertex indices in a topological order, or None when there is a cycle."""
    index = {v: k for k, v in enumerate(vertices)}
    indeg = [0] * len(vertices)
    out = [[] for _ in vertices]
    for s, t in arrows:
        indeg[index[t]] += 1
        out[index[s]].append(index[t])
    queue = deque(k for k, deg in enumerate(indeg) if deg == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for t in out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return order if len(order) == len(vertices) else None


def path_counts(vertices, arrows, order):
    """p[i][j] = number of directed paths from vertex i to vertex j."""
    index = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    incoming = [[] for _ in range(n)]
    for s, t in arrows:
        incoming[index[t]].append(index[s])
    p = [[0] * n for _ in range(n)]
    for j in order:
        for i in range(n):
            p[i][j] = (1 if i == j else 0) + sum(p[i][s] for s in incoming[j])
    return p


def component_count(vertices, arrows):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in arrows:
        parent[find(s)] = find(t)
    return len({find(v) for v in vertices})


def euler(arrows, e, f):
    """<e, f> = sum_i e_i f_i - sum_a e_s(a) f_t(a), vectors as dicts."""
    return sum(e[v] * f[v] for v in e) - sum(e[s] * f[t] for s, t in arrows)


def zero_pairing_count(vertices, d, theta):
    """Number of e with 0 <= e <= d and theta(e) = 0, by a DP over sums."""
    counts = {0: 1}
    for v in vertices:
        step = defaultdict(int)
        for total, c in counts.items():
            for x in range(d[v] + 1):
                step[total + theta[v] * x] += c
        counts = step
    return counts.get(0, 0)


def strongly_amply_stable(vertices, arrows, d, theta):
    """<e, d - e> <= -2 for every proper nonzero e <= d with theta(e) >= 0."""
    index = {v: k for k, v in enumerate(vertices)}
    dv = [d[v] for v in vertices]
    tv = [theta[v] for v in vertices]
    pairs = [(index[s], index[t]) for s, t in arrows]
    top = tuple(dv)
    for e in itertools.product(*(range(c + 1) for c in dv)):
        if sum(a * b for a, b in zip(tv, e)) < 0 or not any(e) or e == top:
            continue
        rest = [a - b for a, b in zip(dv, e)]
        form = sum(a * b for a, b in zip(e, rest)) - sum(e[s] * rest[t] for s, t in pairs)
        if form > -2:
            return False
    return True


def lattice_size(d):
    return math.prod(c + 1 for c in d.values())


def gaussian_binomial(n, k, p):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for t in range(k):
        num *= p ** (n - t) - 1
        den *= p ** (t + 1) - 1
    return num // den


def subspace_count(n, p):
    """Number of subspaces of F_p^n."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def arrows_of(doc):
    return [(a["from"], a["to"]) for a in doc["arrows"]]


def datum_facts(doc, sweep=True):
    """Hypotheses and dimension bookkeeping of one spec document.

    ``strong`` is None when ``sweep`` is false (the lattice is too large to
    sweep here); callers then accept either verdict on it.
    """
    vertices, arrows = doc["vertices"], arrows_of(doc)
    d, theta = doc["dimension"], doc["stability"]
    order = topological_order(vertices, arrows)
    facts = {
        "acyclic": order is not None,
        "indivisible": math.gcd(*d.values()) == 1,
        "coprime": zero_pairing_count(vertices, d, theta) == 2,
        "moduli_dim": 1 - euler(arrows, d, d),
        "lattice_points": lattice_size(d),
    }
    if order is not None:
        p = path_counts(vertices, arrows, order)
        index = {v: k for k, v in enumerate(vertices)}
        facts["hh1"] = (
            sum(p[index[s]][index[t]] for s, t in arrows)
            - len(vertices)
            + component_count(vertices, arrows)
        )
        facts["path_count"] = lambda i, j: p[index[i]][index[j]]
        facts["strong"] = strongly_amply_stable(vertices, arrows, d, theta) if sweep else None
    else:
        facts["strong"] = False
    return facts


def reduction_case(d, i, j):
    return {
        (True, True): "both_big",
        (True, False): "source_thin",
        (False, True): "target_thin",
        (False, False): "both_thin",
    }[(d[i] > 1, d[j] > 1)]


def framed_entries(doc, i, j):
    """Matrix entries of a representation of the framed datum at (i, j)."""
    d = doc["dimension"]
    return sum(d[s] * d[t] for s, t in arrows_of(doc)) + d[i] + d[j]


def subspace_tuples(doc, prime):
    """Candidate subspace tuples per framed point: the oracle's budget floor."""
    return 4 * math.prod(subspace_count(c, prime) for c in doc["dimension"].values())
