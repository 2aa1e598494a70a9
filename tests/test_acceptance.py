"""End-to-end quality gates.

Each test prints one PASS/FAIL line. These are the slow, quantitative
checks: they train many models and run the classical oracles at scale.
Everything is seeded and deterministic, so the measured numbers reproduce
exactly run to run.
"""

import csv
import time
from multiprocessing import Pool

import numpy as np

from hypersat import objective
from hypersat.cli import main as cli_main
from hypersat.hypergraph import (
    build_literal_hypergraph,
    build_variable_hypergraph,
    normalized_operator,
    q_tilde,
)
from hypersat.oracle import exhaustive_optimum, local_search
from hypersat.rng import make_rng
from hypersat.solver import SolveConfig, gradient_errors, solve
from hypersat.wcnf import (
    assign_random_weights,
    evaluate,
    generate_random_3sat,
)

WORKERS = 10


def report(tag, ok, detail):
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def make_instance(n, m, seed):
    return assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )


# 1. full-model gradient check ------------------------------------------------

def full_model_fd_error(n, seed):
    inst = make_instance(n, round(4.3 * n), seed)
    return max(gradient_errors(inst, seed).values())


def test_1_gradient_correctness():
    start = time.perf_counter()
    sizes = [4, 6, 8, 4, 6, 8, 4, 6, 8, 4]
    errs = [full_model_fd_error(n, 110 + i) for i, n in enumerate(sizes)]
    elapsed = time.perf_counter() - start
    worst = max(errs)
    ok = worst < 1e-4 and elapsed < 30.0
    report(
        "1 gradient correctness",
        ok,
        f"10 instances, max rel err {worst:.3e} (< 1e-4), "
        f"{elapsed:.1f}s (< 30s)",
    )


# 2. exact binary consistency -------------------------------------------------

def test_2_binary_consistency():
    rng = make_rng(0, 0xB1)
    mismatches = 0
    for i in range(1000):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 4 * n))
        inst = make_instance(n, m, 2000 + i)
        bits = rng.integers(0, 2, size=n)
        loss = objective.loss_and_grad(inst, bits.astype(np.float64))[0]
        if loss != evaluate(inst, bits).unsat_weight:
            mismatches += 1
    report(
        "2 binary consistency",
        mismatches == 0,
        f"1000 pairs, {mismatches} mismatches (exact equality required)",
    )


# 3. sparse operator vs dense reference ---------------------------------------

def dense_reference(hg):
    h = hg.h.toarray()
    de = np.maximum(hg.edge_degree - 1, 1).astype(np.float64)
    full = h @ np.diag(1.0 / de) @ h.T
    qt = full - np.diag(np.diag(full))
    d = hg.node_degree.astype(np.float64)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return qt, np.diag(inv_sqrt) @ qt @ np.diag(inv_sqrt)


def test_3_operator_oracle():
    worst = 0.0
    for i in range(100):
        # alternate literal graphs (n=4 -> 8 nodes) and variable graphs
        inst = make_instance(4 + (i % 2) * 2, 10 + (i % 5), 3000 + i)
        build = build_literal_hypergraph if i % 2 == 0 else build_variable_hypergraph
        hg = build(inst)
        assert hg.num_nodes <= 8
        qt_ref, s_ref = dense_reference(hg)
        worst = max(worst, np.max(np.abs(q_tilde(hg).toarray() - qt_ref)))
        worst = max(
            worst,
            np.max(np.abs(normalized_operator(hg).matrix.toarray() - s_ref)),
        )
    report(
        "3 operator oracle",
        worst <= 1e-12,
        f"100 hypergraphs (<= 8 nodes), max abs deviation {worst:.2e} (<= 1e-12)",
    )


# 4. local search vs exhaustive -----------------------------------------------

def _c4_one(i):
    inst = make_instance(12, 52, 4000 + i)
    opt = exhaustive_optimum(inst).best_unsat_weight
    ls = local_search(inst, max_steps=100_000, seed=4000 + i).best_unsat_weight
    return opt, ls


def test_4_oracle_cross_check():
    with Pool(WORKERS) as pool:
        results = pool.map(_c4_one, range(50))
    beats = sum(1 for opt, ls in results if ls < opt)
    sat = [(opt, ls) for opt, ls in results if opt == 0]
    hit = sum(1 for opt, ls in sat if ls == 0)
    rate = hit / len(sat) if sat else 1.0
    ok = beats == 0 and rate >= 0.9
    report(
        "4 oracle cross-check",
        ok,
        f"50 instances: local search beat exhaustive {beats}x (must be 0); "
        f"optimum attained on {hit}/{len(sat)} satisfiable (>= 90%)",
    )


# 5. near-optimal quality on tiny instances -----------------------------------

def _c5_one(i):
    inst = make_instance(10, 43, 5000 + i)
    opt = exhaustive_optimum(inst).best_unsat_weight
    res = solve(inst, SolveConfig(seed=5000 + i))
    return res.unsat_weight <= opt + 0.2 * inst.total_weight()


def test_5_tiny_instance_quality():
    start = time.perf_counter()
    with Pool(WORKERS) as pool:
        within = pool.map(_c5_one, range(50))
    elapsed = time.perf_counter() - start
    frac = sum(within) / 50.0
    ok = frac >= 0.8 and elapsed < 120.0
    report(
        "5 tiny-instance quality",
        ok,
        f"within optimum + 20% of total weight on {sum(within)}/50 "
        f"(>= 80%), {elapsed:.0f}s (< 2 min)",
    )


# 6. mid-scale solution quality -----------------------------------------------

def _c6_one(i):
    inst = make_instance(100, 430, 6000 + i)
    return solve(inst, SolveConfig(seed=6000 + i)).unsat_weight


def test_6_midscale_quality():
    with Pool(WORKERS) as pool:
        vals = pool.map(_c6_one, range(20))
    mean = float(np.mean(vals))
    report(
        "6 mid-scale quality",
        mean <= 31.0,
        f"20 instances (n=100, m=430): mean unsat weight {mean:.2f} (<= 31)",
    )


# 7. convergence on one hard large instance -----------------------------------

def test_7_convergence_trace():
    inst = make_instance(250, 1065, 7001)
    res = solve(inst, SolveConfig(seed=7001))
    task_trace = [lb.task for lb in res.loss_trace]
    best_so_far = np.minimum.accumulate(task_trace)
    monotone = bool(np.all(np.diff(best_so_far) <= 0))
    final = res.final_loss.task
    ok = res.epochs_run <= 300 and 35.0 <= final <= 75.0 and monotone
    report(
        "7 convergence trace",
        ok,
        f"n=250 m=1065: {res.epochs_run} epochs (<= 300), final task loss "
        f"{final:.2f} (in [35, 75]), best-so-far nonincreasing: {monotone}",
    )


# 8. ablation ordering --------------------------------------------------------

ABLATIONS = (
    ("variable", dict(mode="variable", use_transformer=False, lam=0.0)),
    ("plain", dict(use_transformer=False, lam=0.0)),
    ("transformer", dict(lam=0.0)),
    ("srcl", dict(use_transformer=False)),
    ("full", dict()),
)


def _c8_one(task):
    i, name, overrides = task
    inst = make_instance(250, 1065, 600 + i)
    return name, solve(inst, SolveConfig(seed=600 + i, **overrides)).unsat_weight


def test_8_ablation_ordering():
    tasks = [(i, name, ov) for i in range(10) for name, ov in ABLATIONS]
    with Pool(WORKERS) as pool:
        rows = pool.map(_c8_one, tasks)
    means = {
        name: float(np.mean([w for nm, w in rows if nm == name]))
        for name, _ in ABLATIONS
    }
    strict = (
        means["variable"] > means["plain"]
        and means["plain"] > means["transformer"]
        and means["transformer"] > means["srcl"]
    )
    final_ok = means["srcl"] >= means["full"] or (
        abs(means["srcl"] - means["full"]) <= 0.05 * means["full"]
    )
    detail = " > ".join(
        f"{name} {means[name]:.1f}" for name, _ in ABLATIONS
    )
    report(
        "8 ablation ordering",
        strict and final_ok,
        f"mean unsat weight over 10 instances: {detail} "
        "(first three gaps strict, last within 5%)",
    )


# 9. benchmark determinism ----------------------------------------------------

def _read_rows_no_walltime(path):
    with open(path, newline="") as fh:
        return [
            {k: v for k, v in row.items() if k != "wall_time_ms"}
            for row in csv.DictReader(fh)
        ]


def test_9_bench_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(
        [
            "gen", "--n", "20", "--m", "70", "--count", "3",
            "--seed", "9", "--out-dir", str(data),
        ]
    ) == 0
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(
            [
                "bench", "--dataset-dir", str(data),
                "--methods", "hypersat,local-search",
                "--seeds", "0,1", "--workers", "4", "--out", str(out),
            ]
        ) == 0
        outs.append(_read_rows_no_walltime(out))
    identical = outs[0] == outs[1]
    report(
        "9 bench determinism",
        identical,
        f"two runs, {len(outs[0])} rows each, identical modulo wall time: "
        f"{identical}",
    )
