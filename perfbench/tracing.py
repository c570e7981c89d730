"""Layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each quivercalc module (a
layer) in every ``quivercalc.*`` namespace that holds a reference to them,
and ``uninstall()`` puts the originals back.  Each call of a wrapped function
records a span (id, parent id, op id, name, start, end); spans stay in memory
until the run writes them out.  A layer's self time is the duration of its
spans minus the time their child spans cover.

Counters are taken at the same boundaries: the hooks below read a wrapped
function's arguments and result when it returns, and the one that scans a
large result keeps it until ``collect()``.  Lattice points of the
``subdimension_vectors`` generator are charged to the layer that consumes
them, and subrepresentations to ``ff_oracle``.

The wrappers only look functions up by name.  A function that a refactor
removes or stops calling leaves its counters at zero; a hook that no longer
understands its function's arguments is skipped.  Neither stops the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("specfile", "cli", "report", "stability", "framing", "core", "cohomology", "linalg", "ff_oracle")

# Elementary F_p helpers run millions of times inside the oracle; wrapping
# them would cost more than the work they do.  Their time counts as the
# calling ff_oracle function's self time.
UNWRAPPED_PREFIX = {"linalg": "mod_"}

SWEEPS = frozenset(
    {
        "stability.sign_partition",
        "stability.is_theta_coprime",
        "stability.is_strongly_amply_stable",
        "stability.subdimension_vectors",
    }
)


def _lattice(q, d):
    return math.prod(d[v] + 1 for v in q.vertices)


def _coprime_points(args, result):
    """Points is_theta_coprime visits: up to and including its witness."""
    q, d = args[0], args[1]
    ok, witness = result
    if ok:
        return _lattice(q, d)
    rank = 0
    for v in q.vertices:
        rank = rank * (d[v] + 1) + witness[v]
    return rank + 1


@functools.lru_cache(maxsize=None)
def _subspace_count(n, p):
    total = 0
    for k in range(n + 1):
        num = den = 1
        for t in range(k):
            num *= p ** (n - t) - 1
            den *= p ** (t + 1) - 1
        total += num // den
    return total


def _psi_counts(result):
    rows = result.psi_matrix
    return {"cohomology.psi_rows": len(rows), "cohomology.psi_nonzero_rows": sum(1 for r in rows if any(r))}


# name -> (args, kwargs, result) -> counter increments, run when the call
# returns.  DEFERRED hooks run in collect(), outside every span.
HOOKS = {
    "stability.sign_partition": lambda a, kw, r: {"stability.lattice_points": _lattice(a[0], a[1])},
    "stability.is_strongly_amply_stable": lambda a, kw, r: {"stability.lattice_points": _lattice(a[0], a[1])},
    "stability.is_theta_coprime": lambda a, kw, r: {"stability.lattice_points": _coprime_points(a, r)},
    "core.path_count_matrix": lambda a, kw, r: {"core.path_count_calls": 1},
    "core.enumerate_paths": lambda a, kw, r: {"core.paths_enumerated": len(r)},
    "linalg.rref": lambda a, kw, r: {
        "linalg.eliminations": 1,
        "linalg.entries_eliminated": len(a[0]) * (len(a[0][0]) if len(a[0]) else 0),
    },
    "ff_oracle.verify_double_framing_equivalence": lambda a, kw, r: {"ff_oracle.points_checked": r.instances_checked},
    "ff_oracle.king_stability": lambda a, kw, r: {"ff_oracle.king_calls": 1},
    "ff_oracle.enumerate_subrepresentations": lambda a, kw, r: {
        "ff_oracle.subspace_tuples_bound": math.prod(
            _subspace_count(a[0].dims[v], a[0].prime) for v in a[0].quiver.vertices
        )
    },
}

DEFERRED = {"cohomology.tangent_presentation": lambda a, kw, r: _psi_counts(r)}

# Generator functions whose yields are counted: name -> counter suffix.  The
# counter goes to the layer of the span that consumes the generator.
YIELD_COUNTERS = {
    "stability.subdimension_vectors": "lattice_points",
    "ff_oracle.enumerate_subrepresentations": "subreps_found",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, op id, name, start, end]
        self.op = None
        self._stack: list[list] = []
        self._deferred: list[tuple] = []  # (op id, name, args, kwargs, result)
        self._counts: dict = defaultdict(Counter)
        self._restore: list[tuple] = []
        self._collected = 0

    # --- wrapping -----------------------------------------------------------

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items()) if n == "quivercalc" or n.startswith("quivercalc.")]
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"quivercalc.{layer}")
            except ImportError:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith(UNWRAPPED_PREFIX.get(layer, "\0")):
                    continue
                name = f"{layer}.{attr}"
                if not inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap(layer, name, fn)
                elif name in YIELD_COUNTERS:
                    wrapper = self._wrap_generator(name, fn)
                else:
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, fn))

    def uninstall(self):
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    def _hook(self, op, name, args, kwargs, result):
        if name in DEFERRED:
            self._deferred.append((op, name, args, kwargs, result))
            return
        try:
            self._counts[op].update(HOOKS[name](args, kwargs, result))
        except Exception:  # the function changed shape: its counters stay zero
            self._counts[op]["trace.hook_errors"] += 1

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hooked = name in HOOKS or name in DEFERRED
        sweep = name in SWEEPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[3].split(".", 1)[0] != layer
            span = [len(spans), parent[0] if parent else None, self.op, name, clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if entry:
                    self._counts[self.op][f"{layer}.rejects"] += 1
                raise
            finally:
                span[5] = clock()
                stack.pop()
                if entry:
                    self._counts[self.op][f"{layer}.calls"] += 1
                if sweep:
                    self._counts[self.op]["stability.sweeps"] += 1
            if hooked:
                self._hook(self.op, name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Generators get no span: their body runs inside the consumer's."""
        suffix = YIELD_COUNTERS[name]
        stack = self._stack
        hooked = name in HOOKS
        sweep = name in SWEEPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if hooked:
                self._hook(op, name, args, kwargs, None)
            if sweep:
                self._counts[op]["stability.sweeps"] += 1
            counts = self._counts[op]
            for item in fn(*args, **kwargs):
                layer = stack[-1][3].split(".", 1)[0] if stack else "none"
                counts[f"{layer}.{suffix}"] += 1
                yield item

        return wrapper

    # --- results ------------------------------------------------------------

    def collect(self):
        """Per-op counters and self times of the spans recorded since the
        last call, as {op id: Counter}."""
        per_op = defaultdict(Counter)
        for op, counts in self._counts.items():
            per_op[op].update(counts)
        for op, name, args, kwargs, result in self._deferred:
            try:
                per_op[op].update(DEFERRED[name](args, kwargs, result))
            except Exception:  # the function changed shape: its counters stay zero
                per_op[op]["trace.hook_errors"] += 1
        self._deferred.clear()
        self._counts.clear()
        spans = self.spans[self._collected :]
        self._collected = len(self.spans)
        covered = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        for sid, _parent, op, name, start, end in spans:
            layer = name.split(".", 1)[0]
            per_op[op][f"{layer}.self_s"] += end - start - covered[sid]
            per_op[op][f"fn.{name}.self_s"] += end - start - covered[sid]
            per_op[op][f"fn.{name}.total_s"] += end - start
            per_op[op]["trace.spans"] += 1
        return per_op

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\top\tname\tstart\tend\n")
            for sid, parent, op, name, start, end in self.spans:
                handle.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
