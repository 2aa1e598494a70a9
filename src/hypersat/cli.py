"""Command-line interface: instance generation, solving, benchmarking,
classical oracles, and gradient checking.

All commands honor ``--seed`` (default from the HYPERSAT_SEED environment
variable, else 0).  Apart from wall-time fields their output repeats for a
fixed seed and a fixed BLAS thread count: OpenBLAS splits the attention
GEMMs by thread count, so a solve rounds differently on one thread than on
two.  Set ``OPENBLAS_NUM_THREADS=1``, as ``perfbench/run.py`` does, for
results that repeat across machines.  The oracles use no BLAS.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob
import json
import os
import statistics
import sys
import time
from multiprocessing import Pool
from pathlib import Path

from .oracle import exhaustive_optimum, local_search
from .rng import stable_name_hash
from .solver import SolveConfig, gradient_errors, solve
from .wcnf import (
    WcnfInstance,
    assign_random_weights,
    generate_random_3sat,
    parse_cnf,
    parse_wcnf,
    write_wcnf,
)

CSV_HEADER = [
    "dataset",
    "instance",
    "method",
    "seed",
    "unsat_weight",
    "sat_weight",
    "epochs",
    "wall_time_ms",
]

METHOD_CONFIGS = {
    "hypersat": {},
    "hypersat-variable": {"mode": "variable", "use_transformer": False, "lam": 0.0},
    "hypersat-plain": {"use_transformer": False, "lam": 0.0},
    "hypersat-transformer": {"lam": 0.0},
    "hypersat-srcl": {"use_transformer": False},
}


def _default_seed() -> int:
    return int(os.environ.get("HYPERSAT_SEED", "0"))


def _load_instance(path: str) -> WcnfInstance:
    text = Path(path).read_text()
    name = Path(path).name
    if path.endswith(".wcnf"):
        return parse_wcnf(text, name=name)
    return parse_cnf(text, name=name)


def _expand_inputs(patterns: list[str]) -> list[str]:
    paths: list[str] = []
    for pat in patterns:
        hits = sorted(glob.glob(pat))
        paths.extend(hits if hits else [pat])
    return paths


def cmd_gen(args) -> int:
    if args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        derived = args.seed + i
        try:
            inst = generate_random_3sat(args.n, args.m, seed=derived)
            inst = assign_random_weights(
                inst, seed=derived, lo=args.weight_lo, hi=args.weight_hi
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = out_dir / f"w3sat_n{args.n}_m{args.m}_{i:03d}.wcnf"
        path.write_text(write_wcnf(inst))
        print(f"wrote {path}")
    return 0


def _solve_config(args, seed: int) -> SolveConfig:
    overrides = {}
    if args.variable_nodes:
        overrides["mode"] = "variable"
    if args.no_transformer or args.variable_nodes:
        overrides["use_transformer"] = False
    return SolveConfig(
        max_epochs=args.epochs,
        learning_rate=args.lr,
        lam=args.lam,
        num_samples=args.samples,
        seed=seed,
        **overrides,
    )


def cmd_solve(args) -> int:
    try:
        config = _solve_config(args, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths, records = _expand_inputs(args.inputs), []
    # without --out the records go to the null device
    with open(args.out or os.devnull, "w") as out:
        for path in paths:
            try:
                result = solve(_load_instance(path), config)
            except (OSError, ValueError, FloatingPointError) as exc:
                # a file that fails to load or whose training diverges
                # must not lose the instances after it
                print(f"error: {path}: {exc}", file=sys.stderr)
                continue
            rec = result.to_dict()
            records.append(rec)
            line = json.dumps(rec)
            print(line)
            out.write(line + "\n")
    if not records:
        print("no instances solved", file=sys.stderr)
        return 1
    mean_unsat = sum(r["unsat_weight"] for r in records) / len(records)
    print(
        f"summary: instances={len(records)} mean_unsat_weight={mean_unsat:.4f}"
    )
    return 0 if len(records) == len(paths) else 1


# A file's tasks run one after another (in a pool, mostly in one worker),
# so one cached instance parses each file into its clause arrays and builds
# its occurrence lists once for all its methods and seeds.
_bench_instance = functools.lru_cache(maxsize=1)(_load_instance)


def _bench_one(task) -> dict:
    path, method, seed = task
    inst = _bench_instance(path)
    derived = seed ^ stable_name_hash(inst.name)
    start = time.perf_counter()
    if method == "exhaustive":
        res = exhaustive_optimum(inst)
        unsat, epochs = res.best_unsat_weight, 0
    elif method == "local-search":
        res = local_search(inst, max_steps=100_000, seed=derived)
        unsat, epochs = res.best_unsat_weight, res.steps
    elif method in METHOD_CONFIGS:
        config = SolveConfig(seed=derived, **METHOD_CONFIGS[method])
        result = solve(inst, config)
        unsat, epochs = result.unsat_weight, result.epochs_run
    else:
        raise ValueError(f"unknown method {method!r}")
    wall_ms = (time.perf_counter() - start) * 1000.0
    return {
        "dataset": Path(path).parent.name,
        "instance": inst.name,
        "method": method,
        "seed": seed,
        "unsat_weight": int(unsat),
        "sat_weight": int(inst.total_weight() - unsat),
        "epochs": int(epochs),
        "wall_time_ms": f"{wall_ms:.3f}",
    }


def _bench_task(task) -> tuple[dict | None, str | None]:
    """(row, None), or (None, message) if the task raised: one failing task
    must not lose the rows of the others."""
    try:
        return _bench_one(task), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def cmd_bench(args) -> int:
    if args.limit < 0:
        print(f"error: --limit must be >= 0 (0 runs every file), got "
              f"{args.limit}", file=sys.stderr)
        return 1
    paths = sorted(glob.glob(str(Path(args.dataset_dir) / "*.wcnf")))
    paths += sorted(glob.glob(str(Path(args.dataset_dir) / "*.cnf")))
    if args.limit:
        paths = paths[: args.limit]
    if not paths:
        print(f"no instances in {args.dataset_dir}", file=sys.stderr)
        return 1
    methods = args.methods.split(",")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        print(f"error: --seeds {args.seeds!r} is not a comma list of "
              "integers", file=sys.stderr)
        return 1
    tasks = [(p, m, s) for p in paths for m in methods for s in seeds]
    _bench_instance.cache_clear()  # a file may have changed since a last run
    if args.workers > 1:
        with Pool(args.workers) as pool:
            outcomes = pool.map(_bench_task, tasks)
    else:
        outcomes = [_bench_task(t) for t in tasks]
    rows = [row for row, _ in outcomes if row is not None]
    rows.sort(key=lambda r: (r["method"], r["instance"], r["seed"]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    failures = [
        (task, error) for task, (_, error) in zip(tasks, outcomes) if error
    ]
    for (path, method, seed), error in failures:
        print(f"error: {path} {method} seed={seed}: {error}", file=sys.stderr)
    print(f"instances={len(paths)} rows={len(rows)} -> {args.out}")
    for method in methods:
        vals = [r["unsat_weight"] for r in rows if r["method"] == method]
        if not vals:
            continue
        mean = statistics.mean(vals)
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        print(f"{method}: mean_unsat={mean:.4f} std={std:.4f} n={len(vals)}")
    return 1 if failures else 0


def cmd_oracle(args) -> int:
    try:
        inst = _load_instance(args.input)
        if args.method == "exhaustive":
            res = exhaustive_optimum(inst)
        else:
            res = local_search(inst, max_steps=args.max_steps, seed=args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "instance": inst.name,
                "method": args.method,
                "best_unsat_weight": res.best_unsat_weight,
                "assignment": [int(v) for v in res.best_assignment],
                "steps": res.steps,
            }
        )
    )
    return 0


def cmd_gradcheck(args) -> int:
    if not 3 <= args.n <= 12:
        print("error: gradcheck supports 3 <= n <= 12", file=sys.stderr)
        return 1
    inst = generate_random_3sat(args.n, round(4.3 * args.n), seed=args.seed)
    inst = assign_random_weights(inst, seed=args.seed)
    errors = gradient_errors(inst, args.seed)
    for name, err in errors.items():
        print(f"{name}: max_rel_err={err:.3e} {'ok' if err < 1e-4 else 'FAIL'}")
    return 1 if max(errors.values()) >= 1e-4 else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersat",
        description="Weighted MaxSAT neural solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random weighted 3-SAT files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--weight-lo", type=int, default=1)
    p.add_argument("--weight-hi", type=int, default=10)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve WCNF/CNF files with the network")
    p.add_argument("inputs", nargs="+", help="files or globs")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=7e-2)
    p.add_argument("--lambda", dest="lam", type=float, default=2e-3)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--no-transformer", action="store_true")
    p.add_argument("--variable-nodes", action="store_true")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", help="write JSON records to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run methods over a dataset dir, emit CSV")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument(
        "--methods",
        default="hypersat",
        help="comma list: "
        + ",".join(list(METHOD_CONFIGS) + ["local-search", "exhaustive"]),
    )
    p.add_argument("--seeds", default="0", help="comma list of seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="classical reference solvers")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--method", choices=["exhaustive", "local-search"], default="exhaustive"
    )
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
