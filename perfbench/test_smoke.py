"""Smoke test of the benchmark on tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_harness  # noqa: E402
import bench_trace  # noqa: E402
from bench_workloads import LS_SEEDS, WORKLOADS, Workload, generate  # noqa: E402
from hypersat import autodiff, evaluate, local_search, parse_wcnf, solver  # noqa: E402

TINY = Workload("tiny", n=30, m=40, mixed_arity=True, weight_hi=50, epochs=3,
                instances=2, ls_steps=50, warmup_epochs=1, stream=9)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_main(capsys, trace: int) -> dict:
    code = bench_harness.main(
        ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workloads={"tiny": TINY},
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, trace, key):
    result = run_main(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_checks_reject_corrupted_results():
    inst = generate(TINY, 0)[0]
    parsed = parse_wcnf(inst.text)
    good = solver.solve(parsed, solver.SolveConfig(max_epochs=2))
    assert bench_harness.solve_errors(inst, good) == []
    flipped = next(  # an assignment whose unsat weight differs
        a for a in (good.assignment ^ np.eye(TINY.n, dtype=np.int8)[i]
                    for i in range(TINY.n))
        if inst.unsat_weight(a) != good.unsat_weight
    )
    for bad in (
        dataclasses.replace(good, unsat_weight=good.unsat_weight + 1),
        dataclasses.replace(good, sat_weight=good.sat_weight - 1),
        dataclasses.replace(good, assignment=flipped),
        dataclasses.replace(good, assignment=good.assignment[:-1]),
        dataclasses.replace(good, assignment=good.assignment * 2),
        dataclasses.replace(good, probabilities=good.probabilities + 1.5),
    ):
        assert bench_harness.solve_errors(inst, bad)

    ls = local_search(parsed, max_steps=20, seed=1)
    assert bench_harness.local_search_errors(inst, ls, 20) == []
    for bad in (
        dataclasses.replace(ls, best_unsat_weight=ls.best_unsat_weight + 1),
        dataclasses.replace(ls, steps=21),
    ):
        assert bench_harness.local_search_errors(inst, bad, 20)


def test_corrupted_solve_is_counted_as_failed(capsys, monkeypatch):
    real_solve = solver.solve

    def corrupted(instance, config):
        res = real_solve(instance, config)
        return dataclasses.replace(res, unsat_weight=res.unsat_weight + 1)

    monkeypatch.setattr(solver, "solve", corrupted)
    result = run_main(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == TINY.instances
    assert result["attempted"] == (1 + LS_SEEDS) * TINY.instances


def test_tracing_restores_every_patched_attribute(capsys):
    def snapshot():
        attrs = {
            (mod.__name__, name): value
            for mod in bench_trace.hypersat_modules()
            for name, value in vars(mod).items()
        }
        attrs["Tensor.__init__"] = autodiff.Tensor.__dict__["__init__"]
        return attrs

    before = snapshot()
    metrics = run_main(capsys, 1)["metrics"]
    after = snapshot()
    assert metrics["solver.epoch_count"]["value"] == TINY.epochs
    assert metrics["trace.self_sum_ratio"]["value"] > 0.95
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_parse_to_what_the_benchmark_evaluates(name):
    w = WORKLOADS[name]
    first, second = generate(w, 5)[:2], generate(w, 5)[:2]
    assert [i.text for i in first] == [i.text for i in second]
    rng = np.random.default_rng(0)
    for inst in first:
        parsed = parse_wcnf(inst.text)
        assert (parsed.num_vars, parsed.num_clauses) == (w.n, w.m)
        a = rng.integers(0, 2, size=w.n)
        assert evaluate(parsed, a).unsat_weight == inst.unsat_weight(a)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-3sat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
