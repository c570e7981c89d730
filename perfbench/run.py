"""quivercalc benchmark.

Drives ``quivercalc.cli.main`` in-process, one op per subcommand invocation,
in a closed loop: one client, one single-threaded process, the next op
starting when the previous one returns.  Each workload runs in its own
fresh process.  Inputs are spec files generated from ``--seed`` (see
workloads.py); every op's output is checked against independently computed
values (see checks.py and expect.py).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run executes the workload's op list once to warm up, then repeats it
until ``--seconds`` have passed.  An op's latency is the median over its
executions, scaled to a reference speed (see REF_NOMINAL_S), so every
metric describes the same fixed op list:

* ``wall_s``: the sum of op latencies, import excluded;
* ``latency_p50_ms``: the median op latency;
* ``latency_tail_ms``: the highest percentile with at least ten ops beyond
  it, that is the 11th-largest op latency (its percentile and the op count
  are printed);
* ``ok_frac``: ops whose every execution ended right and within the
  deadline, over the ops in the list (``failed_frac`` is 1 - ``ok_frac``);
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``setup_s``: median wall time for a fresh interpreter to import
  ``quivercalc.cli``, with bare interpreter start-up printed beside it.

An op that overruns the per-op deadline is stopped by a timer signal in
this process, recorded at the deadline latency and counted as failed; it is
not counted as incorrect.

Probes (the oversize A6 datum of ``lattice``) are ops kept out of the op
list.  Each runs once, before the measurement, under the same deadline; its
outcome is printed, and with ``--trace 1`` its wall time is the per-layer
metric ``probe.oversize_s``.  At present the probe's analyze is unbounded
and stops at the deadline, a known defect reported beside the metrics and
not counted in ``attempted``, ``failed`` or ``ok_frac``, so that every op
in the list can succeed.  A probe that ends with a wrong outcome, or
raises, makes the result incorrect.

With ``--trace 1`` the run alternates untraced and traced executions of the
op list and reports the per-layer metrics from the traced ones (see
tracing.py), the tracing overhead (traced minus untraced ``wall_s``) and the
import costs; the spans are written to ``.perfbench/`` when the run ends.
Layer self times are scaled to the reference speed like the op latencies
(see REF_NOMINAL_S); import and start-up times are raw wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 5.0
SPAWNS = 9

# Op latencies are reported at a fixed reference speed.  The shared hosts
# this runs on drift in speed by up to 2x over tens of seconds, which no
# amount of averaging inside a 20 s run removes.  A fixed pure-Python loop
# is timed before and after every op, and the op's wall time is scaled by
# REF_NOMINAL_S over the mean of the two; the loop takes REF_NOMINAL_S on an
# unloaded core of a shared 2-vCPU x86_64 virtual machine under CPython 3.11, so scaled
# times read as wall times on such a core.  Raw wall times are printed
# beside them.  On that machine this brought the run-to-run spread of a
# 12 s desk measurement from about 13% to 2%.
REF_NOMINAL_S = 0.0014

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class DeadlineExceeded(BaseException):
    """Raised by the timer signal when an op overruns the per-op deadline.

    A BaseException, so that the program's own exception handlers let it
    through."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


# --- fresh-interpreter timings ----------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(*args):
    """(wall seconds, completed process) of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return time.perf_counter() - start, done


def _median_spawn(code):
    """Median wall time over SPAWNS fresh interpreters, after one warm-up
    that also writes the bytecode caches."""
    _spawn("-c", code)
    return statistics.median(_spawn("-c", code)[0] for _ in range(SPAWNS))


def _specfile_import_s():
    """Cumulative import time of quivercalc.specfile by the interpreter's
    own import timer: the module body plus what it imports first, which at
    present is jsonschema.  Zero when the module is gone."""
    samples = []
    for _ in range(SPAWNS):
        lines = _spawn("-X", "importtime", "-c", "import quivercalc.cli")[1].stderr.splitlines()
        fields = [line.split("|") for line in lines]
        samples.append(sum(int(f[1]) for f in fields if len(f) == 3 and f[2].strip() == "quivercalc.specfile") / 1e6)
    return statistics.median(samples)


def _import_costs(trace):
    costs = {
        "python.startup_s": _median_spawn("pass"),
        "setup_s": _median_spawn("import quivercalc.cli"),
    }
    if trace:
        costs["specfile.import_s"] = _specfile_import_s()
    return costs


# --- executing ops ----------------------------------------------------------


def _reference_loop():
    """Wall time of a fixed loop doing the kind of interpreter work the
    program does: tuples, dict updates and generator sums."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += sum(x * y for x, y in zip(key, (3, 5)))
    return time.perf_counter() - start


def _reference_s():
    """The faster of two reference loops: an interrupt only ever slows one."""
    return min(_reference_loop(), _reference_loop())


def _execute(cli, op, workdir):
    """Run one op through ``cli.main``, looked up on every call so that the
    tracer's wrapper is used when installed; return its checked outcome."""
    argv = [op["argv"][0], str(workdir / op["argv"][1]), *op["argv"][2:]]
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    timed_out = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            finally:
                latency = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            timed_out = True
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an outcome to report, not to stop on
            raised = f"raised {type(exc).__name__}: {exc}"
    stdout = out.getvalue()
    if timed_out:
        latency, reason = DEADLINE_S, f"missed the {DEADLINE_S:g} s deadline"
    else:
        reason = raised or checks.check(op, rc, stdout, err.getvalue())
    return {
        "raw": latency,
        "latency": latency,
        "timed_out": timed_out,
        "reason": reason,
        "bytes_out": len(stdout.encode("utf-8")),
    }


class Run:
    def __init__(self, cli, ops, workdir):
        self.cli, self.ops, self.workdir = cli, ops, workdir
        self.warmup = [[] for _ in ops]
        self.untraced = [[] for _ in ops]
        self.traced = [[] for _ in ops]
        self.layer_counts = [[] for _ in ops]
        self.tracer = tracing.Tracer()
        self._reference = None

    def _scaled(self, k, traced=False):
        """Execute op k between two reference timings and scale its latency
        to the reference speed (a missed deadline stays at the deadline)."""
        before = self._reference or _reference_s()
        if traced:
            self.tracer.op = k
            self.tracer.install()
        try:
            record = _execute(self.cli, self.ops[k], self.workdir)
        finally:
            if traced:
                self.tracer.uninstall()
        self._reference = _reference_s()
        if not record["timed_out"]:
            record["latency"] = record["raw"] * REF_NOMINAL_S / ((before + self._reference) / 2)
        return record

    def execute(self, k, traced):
        record = self._scaled(k, traced)
        if traced:
            counts = self.tracer.collect()[k]
            scale = record["latency"] / record["raw"]
            for key in counts:
                if key.endswith("_s"):
                    counts[key] *= scale
            self.layer_counts[k].append(counts)
            self.traced[k].append(record)
        else:
            self.untraced[k].append(record)

    def measure(self, seconds, trace):
        """Repeat the op list until ``seconds`` have passed and at least one
        full pass after the first is done.  With ``trace`` every untraced
        pass is followed by a traced one.

        The first pass is a warm-up: it is checked like any other, but its
        latencies carry the program's first-call costs and are used only
        when an op has no later execution."""
        start = time.perf_counter()
        for k in range(len(self.ops)):
            self.warmup[k].append(self._scaled(k))
        # Objects alive now (interpreter, imports, inputs) last the whole
        # run; freezing them keeps full collections as cheap as in a fresh
        # CLI process instead of growing with the run.
        gc.collect()
        gc.freeze()
        modes = (False, True) if trace else (False,)
        passes = 1
        while True:
            for traced in modes:
                for k in range(len(self.ops)):
                    self.execute(k, traced)
                    if passes > 1 and time.perf_counter() - start >= seconds:
                        return passes
                gc.collect()
            passes += 1
            if time.perf_counter() - start >= seconds:
                return passes

    def records(self, k):
        return self.warmup[k] + self.untraced[k] + self.traced[k]

    def timed(self, traced=False):
        """Per op, the executions that latencies are taken from."""
        if traced:
            return self.traced
        return [u or w for u, w in zip(self.untraced, self.warmup)]


# --- metrics ----------------------------------------------------------------


def _latencies(per_op, key="latency"):
    return [statistics.median(r[key] for r in recs) for recs in per_op if recs]


def _timing(per_op, key="latency"):
    lat = _latencies(per_op, key)
    ordered = sorted(lat)
    n = len(ordered)
    tail_index = max(n - 11, 0)
    return {
        "wall_s": sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * ordered[tail_index],
        "tail_percentile": 100 * (tail_index + 1) / n,
        "ops": n,
    }


def _per_op_median_sum(per_op_counters):
    total = Counter()
    ops_with = Counter()
    for execs in per_op_counters:
        if not execs:
            continue
        keys = set().union(*execs)
        for key in keys:
            value = statistics.median(c.get(key, 0) for c in execs)
            total[key] += value
            if value:
                ops_with[key] += 1
    return total, ops_with


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(run, costs, probes):
    t, ops_with = _per_op_median_sum(run.layer_counts)
    bytes_out = sum(statistics.median(r["bytes_out"] for r in recs) for recs in run.traced if recs)
    m = {f"{layer}.self_s": (t[f"{layer}.self_s"], "s") for layer in tracing.LAYERS}
    m.update(
        {
            "specfile.calls": (t["specfile.calls"], "count"),
            "specfile.rejects": (t["specfile.rejects"], "count"),
            "specfile.import_s": (costs["specfile.import_s"], "s"),
            "report.bytes_out": (bytes_out, "B"),
            "stability.sweeps_per_op": (_ratio(t["stability.sweeps"], ops_with["stability.sweeps"]), "count"),
            "stability.lattice_points": (t["stability.lattice_points"], "count"),
            "stability.points_per_s": (_ratio(t["stability.lattice_points"], t["stability.self_s"]), "1/s"),
            "framing.lattice_points": (t["framing.lattice_points"], "count"),
            "framing.points_per_s": (_ratio(t["framing.lattice_points"], t["framing.self_s"]), "1/s"),
            "core.path_count_calls": (t["core.path_count_calls"], "count"),
            "core.paths_enumerated": (t["core.paths_enumerated"], "count"),
            "core.paths_per_s": (_ratio(t["core.paths_enumerated"], t["fn.core.enumerate_paths.self_s"]), "1/s"),
            "cohomology.psi_rows": (t["cohomology.psi_rows"], "count"),
            "cohomology.psi_useful_fraction": (
                _ratio(t["cohomology.psi_nonzero_rows"], t["cohomology.psi_rows"]),
                "ratio",
            ),
            "linalg.eliminations": (t["linalg.eliminations"], "count"),
            "linalg.entries_eliminated": (t["linalg.entries_eliminated"], "count"),
            "ff_oracle.points_checked": (t["ff_oracle.points_checked"], "count"),
            "ff_oracle.ms_per_point": (
                1000
                * _ratio(
                    t["fn.ff_oracle.verify_double_framing_equivalence.total_s"],
                    t["ff_oracle.points_checked"],
                ),
                "ms",
            ),
            "ff_oracle.king_calls": (t["ff_oracle.king_calls"], "count"),
            "ff_oracle.subreps_found": (t["ff_oracle.subreps_found"], "count"),
            "ff_oracle.subspace_tuples_bound": (t["ff_oracle.subspace_tuples_bound"], "count"),
            "ff_oracle.subrep_yield": (
                _ratio(t["ff_oracle.subreps_found"], t["ff_oracle.subspace_tuples_bound"]),
                "ratio",
            ),
            "python.startup_s": (costs["python.startup_s"], "s"),
            "trace.wall_s": (_timing(run.timed(traced=True))["wall_s"], "s"),
            "trace.overhead_s": (
                sum(_latencies(run.timed(traced=True))) - sum(_latencies(run.timed())),
                "s",
            ),
            "trace.spans": (t["trace.spans"], "count"),
            "probe.oversize_s": (sum(r["raw"] for r in probes), "s"),
        }
    )
    return m


# --- one workload -----------------------------------------------------------


def _print_summary(name, seed, run, passes, timing, raw, metrics, costs, failures):
    executions = sum(len(run.records(k)) for k in range(len(run.ops)))
    print(
        f"workload {name}  seed {seed}  ops {timing['ops']}  passes {passes}  "
        f"executions {executions}  deadline {DEADLINE_S:g} s  times at reference speed"
    )
    for key, (value, unit) in metrics.items():
        note = ""
        if key in ("wall_s", "latency_p50_ms"):
            note = f"  (raw wall time {raw[key]:.6f})"
        elif key == "latency_tail_ms":
            note = f"  (p{timing['tail_percentile']:.1f} of {timing['ops']} ops; raw wall time {raw[key]:.6f})"
        elif key == "ok_frac":
            note = f"  (failed_frac {1 - value:.4f}: {len(failures)} of {timing['ops']} ops)"
        elif key == "setup_s":
            note = f"  (bare interpreter start-up {costs['python.startup_s']:.4f} s)"
        print(f"  {key:34s} {value:14.6f} {unit}{note}")
    for op_name, reason in failures:
        print(f"  failed op: {op_name}: {reason}")


def _print_probes(probes, records):
    for op, record in zip(probes, records):
        if record["timed_out"]:
            outcome = "stopped at the deadline: analyze has no size bound (known defect)"
        else:
            outcome = record["reason"] or "right"
        print(f"  probe (not in the op list): {op['name']}: {record['raw']:.3f} s, {outcome}")


def _print_shares(metrics):
    selfs = {layer: metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS}
    total = sum(selfs.values())
    shares = ", ".join(f"{layer} {100 * _ratio(s, total):.1f}%" for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]))
    print(f"  self-time shares: {shares}")


def run_workload(name, seed, seconds, trace):
    if not (SRC / "quivercalc" / "cli.py").is_file():
        print(f"perfbench: no quivercalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quivercalc.cli as cli

    costs = _import_costs(trace)
    generated = workloads.build(name, seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        for fname, text in generated.files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        signal.signal(signal.SIGALRM, _on_alarm)
        probes = [_execute(cli, op, workdir) for op in generated.probes]
        run = Run(cli, generated.ops, workdir)
        passes = run.measure(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    wrong = sum(1 for r in probes if r["reason"] and not r["timed_out"])
    attempted = failed = 0
    for k, op in enumerate(run.ops):
        reasons = [r["reason"] for r in run.records(k) if r["reason"]]
        attempted += len(run.records(k))
        failed += len(reasons)
        wrong += sum(1 for r in run.records(k) if r["reason"] and not r["timed_out"])
        if reasons:
            failures.append((op["name"], reasons[0]))

    if trace:
        metrics = layer_metrics(run, costs, probes)
        timing, raw = _timing(run.timed(traced=True)), _timing(run.timed(traced=True), "raw")
        run.tracer.write(WORK / f"trace-{name}-seed{seed}.tsv")
    else:
        timing, raw = _timing(run.timed()), _timing(run.timed(), "raw")
        values = {
            **timing,
            "ok_frac": 1 - len(failures) / timing["ops"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": costs["setup_s"],
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
    _print_summary(name, seed, run, passes, timing, raw, metrics, costs, failures)
    _print_probes(generated.probes, probes)
    if trace:
        _print_shares(metrics)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args):
    """Every workload, each in its own fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
