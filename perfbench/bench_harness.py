"""Measurement loop of the hypersat benchmark; see README.md.

Each operation is what ``hypersat bench --methods hypersat,local-search``
does for one instance: parse the WCNF text and ``solve`` it with the full
model, then run ``local_search`` with a fixed step budget, once for each
of the instance's local-search seeds.  The loop is
closed (one operation at a time, one process) and cycles through the
workload's instances: each once, then more while the next is expected to
end within ``--seconds``.  Quality comes from that first pass; later
passes must repeat it exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import hypersat
from hypersat import oracle, solver, wcnf

from bench_trace import SOLVE_SPAN, Tracer
from bench_workloads import WORKLOADS, Instance, Workload, generate

SETUP_REPEATS = 3
WARMUP_LS_STEPS = 200


def env_info(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def solve_config(w: Workload, inst: Instance, epochs: int | None = None):
    return solver.SolveConfig(seed=inst.solve_seed, max_epochs=epochs or w.epochs)


def timed_solve(w: Workload, inst: Instance):
    """One timed operation: parse the WCNF text, then solve it."""
    start = perf_counter()
    result = solver.solve(wcnf.parse_wcnf(inst.text), solve_config(w, inst))
    return perf_counter() - start, result


def timed_local_search(w: Workload, parsed, seed: int):
    start = perf_counter()
    result = oracle.local_search(parsed, max_steps=w.ls_steps, seed=seed)
    return perf_counter() - start, result


def _is_binary(a, n: int) -> bool:
    return a.shape == (n,) and bool(np.isin(a, (0, 1)).all())


def solve_errors(inst: Instance, res) -> list[str]:
    """Checks a solve result against the benchmark's own evaluation."""
    n, errors = inst.num_vars, []
    a, p = np.asarray(res.assignment), np.asarray(res.probabilities)
    if not _is_binary(a, n):
        errors.append("assignment is not 0/1 of length n")
    elif res.unsat_weight != inst.unsat_weight(a):
        errors.append(f"unsat_weight {res.unsat_weight} != {inst.unsat_weight(a)}")
    if res.sat_weight + res.unsat_weight != inst.total_weight:
        errors.append("sat + unsat weight != total weight")
    if p.shape != (n,) or not bool(((p >= 0) & (p <= 1)).all()):
        errors.append("probabilities are not in [0, 1] or not of length n")
    return errors


def local_search_errors(inst: Instance, res, budget: int) -> list[str]:
    # local_search checks itself with an assert, which -O removes.
    a, errors = np.asarray(res.best_assignment), []
    if not _is_binary(a, inst.num_vars):
        errors.append("best assignment is not 0/1 of length n")
    elif res.best_unsat_weight != inst.unsat_weight(a):
        errors.append(
            f"best_unsat_weight {res.best_unsat_weight} != {inst.unsat_weight(a)}"
        )
    if not 0 <= res.steps <= budget:
        errors.append(f"steps {res.steps} outside [0, {budget}]")
    return errors


class Tally:
    """Attempted and failed operations; a failure is an exception or a
    failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, op, check):
        """Runs op(); returns its value, or None if it raised or failed check."""
        self.attempted += 1
        try:
            value = op()
            errors = check(value)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            print(f"{what}: exception\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if errors:
            self.failed += 1
            print(f"{what}: {'; '.join(errors)}", file=sys.stderr)
            return None
        return value


def import_seconds() -> float:
    """Wall time of ``import hypersat`` (numpy and scipy included) in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(hypersat.__file__))
    code = (f"import sys, time; sys.path.insert(0, {src!r}); "
            "t = time.perf_counter(); import hypersat; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def setup(w: Workload, seed: int) -> tuple[list[Instance], float]:
    """Imports, instance generation and serialisation, and an untimed
    warm-up solve and local search, done SETUP_REPEATS times; returns the
    instances and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        start = perf_counter()
        instances = generate(w, seed)
        first = instances[0]
        parsed = wcnf.parse_wcnf(first.text)
        solver.solve(parsed, solve_config(w, first, w.warmup_epochs))
        oracle.local_search(parsed, max_steps=WARMUP_LS_STEPS, seed=first.ls_seeds[0])
        times.append(import_s + perf_counter() - start)
    return instances, statistics.median(times)


def _tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return {}
    q = 1.0 - 10.0 / len(samples)
    return {"q": round(q, 4), "value": float(np.quantile(samples, q))}


def _time_left(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, at the mean pace so far, ends in time."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


class Run:
    """One run's operations: each is timed, checked, and counted in the
    tally.  Results of the first pass over the instances are kept, and every
    later result for the same instance, traced or not, must equal them."""

    def __init__(self, w: Workload, instances: list[Instance]):
        self.w = w
        self.instances = instances
        self.tally = Tally()
        self.first: dict[tuple, int] = {}  # (instance, op[, seed]) -> unsat

    def _repeat_errors(self, key: tuple, value: int) -> list[str]:
        prior = self.first.setdefault(key, value)
        if prior != value:
            return [f"result {value} differs from the first pass ({prior})"]
        return []

    def solve(self, k: int):
        """(seconds, result) of a checked solve, or None if it failed."""
        inst = self.instances[k]
        return self.tally.run(
            f"{self.w.name} instance {k}: solve",
            lambda: timed_solve(self.w, inst),
            lambda r: solve_errors(inst, r[1])
            or self._repeat_errors((k, "solve"), r[1].unsat_weight),
        )

    def local_search(self, k: int) -> list:
        """(seconds, result) of each checked local search, one per seed."""
        inst = self.instances[k]
        parsed = wcnf.parse_wcnf(inst.text)
        done = [
            self.tally.run(
                f"{self.w.name} instance {k}: local_search seed {seed}",
                lambda: timed_local_search(self.w, parsed, seed),
                lambda r: local_search_errors(inst, r[1], self.w.ls_steps)
                or self._repeat_errors((k, "ls", seed), r[1].best_unsat_weight),
            )
            for seed in inst.ls_seeds
        ]
        return [d for d in done if d is not None]

    def mean_frac(self, op: str):
        fracs = [
            unsat / self.instances[key[0]].total_weight
            for key, unsat in self.first.items() if key[1] == op
        ]
        return statistics.fmean(fracs) if fracs else None


def measure(w: Workload, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    """Untraced run: the end-to-end metrics."""
    instances, setup_s = setup(w, seed)
    run = Run(w, instances)
    solve_s: list[float] = []
    ls_time = 0.0
    ls_steps = 0
    start = perf_counter()
    i = 0
    while i < len(instances) or _time_left(start, i, seconds):
        k = i % len(instances)
        i += 1
        done = run.solve(k)
        if done is not None:
            solve_s.append(done[0])
        for took, res in run.local_search(k):
            ls_time += took
            ls_steps += res.steps

    tally = run.tally
    metrics = {
        "solve_s": (statistics.median(solve_s) if solve_s else None, "s"),
        "unsat_frac": (run.mean_frac("solve"), "ratio"),
        "ls_steps_per_s": (ls_steps / ls_time if ls_time else None, "steps/s"),
        "ls_unsat_frac": (run.mean_frac("ls"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {
        "solve_samples": len(solve_s),
        "solve_s_tail": _tail(solve_s),
        "ls_steps": ls_steps,
        "fail_frac": {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
    }
    return metrics, detail, tally


def measure_traced(w: Workload, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    """Traced run: per-layer metrics.  Each instance is solved once untraced
    and once traced, in alternating order, for the tracing overhead."""
    instances, _ = setup(w, seed)
    run = Run(w, instances)
    tracer = Tracer()
    times: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    i = 0
    while i == 0 or _time_left(start, i, seconds):
        k = i % len(instances)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(), tracer.span(SOLVE_SPAN):
                    done = run.solve(k)
            else:
                done = run.solve(k)
            if done is not None:
                times[traced].append(done[0])
        with tracer.installed(), tracer.span("bench.ls"):
            run.local_search(k)
        i += 1
    metrics = tracer.metrics()
    traced_s = statistics.median(times[True]) if times[True] else 0.0
    plain_s = statistics.median(times[False]) if times[False] else 0.0
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
    detail = {"traced_solves": len(times[True]), "untraced_solves": len(times[False])}
    return metrics, detail, run.tally


def main(argv=None, blas_threads: int = 1,
         workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = workloads[args.workload]
    print(json.dumps({"env": env_info(blas_threads), "workload": dataclasses.asdict(w)}))
    run = measure_traced if args.trace else measure
    metrics, detail, tally = run(w, args.seed, args.seconds)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0
