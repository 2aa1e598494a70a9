"""Command-line interface: generation, solving, benchmarking, oracles,
and the gradient report."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersat
from hypersat import autodiff as ad
from hypersat import cli
from hypersat.cli import CSV_HEADER, build_parser, main
from hypersat.wcnf import parse_wcnf


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dataset(tmp_path, n=12, m=40, count=3, seed=5):
    out = tmp_path / "data"
    code = main(
        [
            "gen",
            "--n", str(n),
            "--m", str(m),
            "--count", str(count),
            "--seed", str(seed),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("gen", "solve", "bench", "oracle", "gradcheck"):
        assert cmd in text


def test_gen_writes_parseable_deterministic_files(tmp_path, capsys):
    d1 = gen_dataset(tmp_path / "a")
    d2 = gen_dataset(tmp_path / "b")
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2
    assert len(files1) == 3
    for name in files1:
        t1 = (d1 / name).read_text()
        assert t1 == (d2 / name).read_text()
        inst = parse_wcnf(t1)
        assert inst.num_vars == 12 and inst.num_clauses == 40
        assert (inst.weight > 1).any()


def test_gen_different_seeds_differ(tmp_path, capsys):
    d1 = gen_dataset(tmp_path / "a", seed=1)
    d2 = gen_dataset(tmp_path / "b", seed=2)
    name = sorted(p.name for p in d1.iterdir())[0]
    assert (d1 / name).read_text() != (d2 / name).read_text()


def test_solve_emits_json_records_and_summary(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=2)
    capsys.readouterr()
    out_file = tmp_path / "records.jsonl"
    code, out, _ = run(
        [
            "solve",
            str(data / "*.wcnf"),
            "--epochs", "25",
            "--seed", "3",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("{")]
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert set(rec) >= {"instance", "unsat_weight", "epochs_run", "assignment"}
    assert "summary:" in out
    saved = out_file.read_text().splitlines()
    assert [json.loads(l)["instance"] for l in saved] == [
        json.loads(l)["instance"] for l in lines
    ]


def test_solve_reports_missing_file(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.wcnf")], capsys)
    assert code == 1
    assert "nope.wcnf" in err


def test_solve_rejects_bad_settings(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=1)
    capsys.readouterr()
    for flag, value, name in (
        ("--lambda", "-1", "lam"),
        ("--lr", "0", "learning_rate"),
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--epochs", "0", "max_epochs"),
        ("--epochs", "-5", "max_epochs"),
    ):
        code, out, err = run(
            ["solve", str(data / "*.wcnf"), flag, value], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("flag, value", [("--lr", "1e300"), ("--lambda", "1e308")])
def test_solve_goes_on_past_a_diverging_instance(tmp_path, capsys, flag, value):
    # both settings overflow the loss within two epochs on every file
    data = gen_dataset(tmp_path, n=20, m=85, count=2)
    capsys.readouterr()
    out_file = tmp_path / "records.jsonl"
    code, out, err = run(
        ["solve", str(data / "*.wcnf"), flag, value, "--epochs", "5",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert out_file.read_text() == ""
    errors = err.splitlines()
    for path, line in zip(sorted(data.glob("*.wcnf")), errors):
        assert line.startswith(f"error: {path}: non-finite loss at epoch ")
    assert errors[2:] == ["no instances solved"]


@pytest.mark.parametrize("lr", ["1e300", "1e100"])
@pytest.mark.parametrize("n", [20, 600], ids=["inline", "threaded"])
def test_diverging_solve_prints_only_its_error(tmp_path, capsys, n, lr):
    # a diverging run overflows on its way to a non-finite loss, and only
    # the error may reach stderr.  From LARGE_CELLS score cells the
    # attention's second direction runs on the solve's worker thread, which
    # keeps a numpy error state of its own; at lr 1e100 it overflows there
    assert (n * n >= ad.LARGE_CELLS) == (n == 600)
    data = gen_dataset(tmp_path, n=n, m=round(4.26 * n), count=1)
    env = dict(os.environ)
    src = str(Path(hypersat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "hypersat.cli", "solve", str(data / "*.wcnf"),
         "--lr", lr, "--epochs", "5"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    (path,) = data.glob("*.wcnf")
    error, last = done.stderr.splitlines()
    assert error.startswith(f"error: {path}: non-finite loss at epoch ")
    assert last == "no instances solved"


def test_solve_fails_when_one_instance_fails(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=1)
    capsys.readouterr()
    code, out, err = run(
        ["solve", str(data / "*.wcnf"), str(tmp_path / "nope.wcnf"),
         "--epochs", "5"],
        capsys,
    )
    assert code == 1
    assert "summary: instances=1" in out
    assert err.startswith(f"error: {tmp_path / 'nope.wcnf'}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--n", "2", "--m", "5"], "need n >= 3 for 3-SAT clauses"),
        (["gen", "--n", "5", "--m", "5", "--weight-lo", "0"],
         "invalid weight range [0, 10]"),
        (["gen", "--n", "5", "--m", "0"], "instance must have at least one clause"),
        (["bench", "--seeds", "a"], "--seeds 'a' is not a comma list of integers"),
        (["gen", "--n", "5", "--m", "5", "--count", "0"],
         "--count must be >= 1, got 0"),
    ],
)
def test_bad_arguments_print_an_error(tmp_path, capsys, argv, message):
    if argv[0] == "gen":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    else:
        data = gen_dataset(tmp_path, count=1)
        argv = argv + ["--dataset-dir", str(data), "--out", str(tmp_path / "b.csv")]
    capsys.readouterr()
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_exhaustive_json(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=1)
    capsys.readouterr()
    path = next(data.glob("*.wcnf"))
    code, out, _ = run(["oracle", "--input", str(path)], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "exhaustive"
    assert rec["best_unsat_weight"] >= 0
    assert len(rec["assignment"]) == 12


def test_oracle_local_search_json(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=1)
    capsys.readouterr()
    path = next(data.glob("*.wcnf"))
    code, out, _ = run(
        [
            "oracle",
            "--input", str(path),
            "--method", "local-search",
            "--max-steps", "500",
            "--seed", "4",
        ],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "local-search"
    assert rec["steps"] <= 500


def test_oracle_reports_a_bad_file(tmp_path, capsys):
    path = tmp_path / "dup.wcnf"
    path.write_text("p wcnf 2 1\n3 1 1 0\n")
    code, out, err = run(["oracle", "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: line 2: duplicate literal")


def test_oracle_reports_an_instance_over_the_exhaustive_cap(tmp_path, capsys):
    data = gen_dataset(tmp_path, n=30, m=128, count=1)
    capsys.readouterr()
    path = next(data.glob("*.wcnf"))
    code, out, err = run(
        ["oracle", "--input", str(path), "--method", "exhaustive"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: n=30 exceeds exhaustive cap 26\n"


def bench(tmp_path, data, out_name, capsys, workers=1, seeds="0",
          methods="hypersat,local-search"):
    out = tmp_path / out_name
    code, stdout, _ = run(
        [
            "bench",
            "--dataset-dir", str(data),
            "--methods", methods,
            "--seeds", seeds,
            "--workers", str(workers),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    return out, stdout


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER
        return list(reader)


def strip_wall_time(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]


def test_bench_csv_roundtrip_and_summary(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=2)
    out, stdout = bench(tmp_path, data, "bench.csv", capsys, seeds="0,1")
    rows = read_rows(out)
    # 2 instances x 2 methods x 2 seeds
    assert len(rows) == 8
    for row in rows:
        assert int(row["unsat_weight"]) + int(row["sat_weight"]) > 0
        assert float(row["wall_time_ms"]) > 0
    # printed per-method means must match a recomputation from the CSV
    for method in ("hypersat", "local-search"):
        vals = [int(r["unsat_weight"]) for r in rows if r["method"] == method]
        mean = sum(vals) / len(vals)
        assert f"{method}: mean_unsat={mean:.4f}" in stdout


def test_bench_deterministic_modulo_wall_time(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=2)
    out1, _ = bench(tmp_path, data, "b1.csv", capsys)
    out2, _ = bench(tmp_path, data, "b2.csv", capsys)
    assert strip_wall_time(read_rows(out1)) == strip_wall_time(read_rows(out2))


def test_bench_parallel_equals_serial(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=2)
    out1, _ = bench(tmp_path, data, "serial.csv", capsys, workers=1)
    out2, _ = bench(tmp_path, data, "par.csv", capsys, workers=4)
    assert strip_wall_time(read_rows(out1)) == strip_wall_time(read_rows(out2))


def test_bench_parses_each_file_once(tmp_path, capsys, monkeypatch):
    data = gen_dataset(tmp_path, count=2)
    parsed = []
    parse = cli.parse_wcnf

    def counting_parse(text, name=""):
        parsed.append(name)
        return parse(text, name=name)

    monkeypatch.setattr(cli, "parse_wcnf", counting_parse)
    first, last = sorted(data.glob("*.wcnf"))
    out, _ = bench(
        tmp_path, data, "once.csv", capsys,
        seeds="0,1,2", methods="local-search,exhaustive",
    )
    assert len(read_rows(out)) == 12
    assert parsed == [first.name, last.name]
    # a later run reads its files again, the one parsed last too, because
    # the dataset may have changed in between
    first.unlink()
    out, _ = bench(tmp_path, data, "again.csv", capsys, seeds="0,1")
    assert len(read_rows(out)) == 4
    assert parsed == [first.name, last.name, last.name]


def test_bench_ablation_methods_run(tmp_path, capsys):
    data = gen_dataset(tmp_path, count=1)
    out, _ = bench(
        tmp_path, data, "abl.csv", capsys,
        methods="hypersat-variable,hypersat-plain,hypersat-srcl",
    )
    rows = read_rows(out)
    assert {r["method"] for r in rows} == {
        "hypersat-variable", "hypersat-plain", "hypersat-srcl"
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_keeps_rows_when_a_task_fails(tmp_path, capsys, workers):
    # n = 30 is over the exhaustive oracle's cap, so every exhaustive task
    # raises; the other method's rows must still be written
    data = gen_dataset(tmp_path, n=30, m=128, count=2)
    out = tmp_path / "bench.csv"
    code, stdout, err = run(
        [
            "bench",
            "--dataset-dir", str(data),
            "--methods", "hypersat-plain,exhaustive",
            "--seeds", "0,1",
            "--workers", str(workers),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 1
    rows = read_rows(out)
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"hypersat-plain"}
    failures = err.strip().splitlines()
    assert len(failures) == 4
    for path in sorted(data.glob("*.wcnf")):
        for seed in (0, 1):
            line = f"error: {path} exhaustive seed={seed}: ValueError: "
            assert any(f.startswith(line) for f in failures), line
    assert all("exceeds exhaustive cap" in f for f in failures)
    assert "hypersat-plain: mean_unsat=" in stdout
    assert "exhaustive:" not in stdout


def test_bench_rejects_a_negative_limit(tmp_path, capsys):
    # a negative limit once sliced files off the end of the list
    data = gen_dataset(tmp_path, count=2)
    capsys.readouterr()
    out = tmp_path / "b.csv"
    code, stdout, err = run(
        ["bench", "--dataset-dir", str(data), "--methods", "local-search",
         "--limit", "-1", "--workers", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert err == "error: --limit must be >= 0 (0 runs every file), got -1\n"
    assert not out.exists()


def test_bench_empty_dir_fails(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code, _, err = run(
        ["bench", "--dataset-dir", str(tmp_path / "empty"), "--out",
         str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("case", ["bench", "solve", "gen-file", "gen-under-file"])
def test_an_unwritable_output_fails_before_any_work(
    tmp_path, capsys, monkeypatch, case
):
    # each once did its work first and then died in a traceback, losing
    # what it had computed
    data = gen_dataset(tmp_path, count=1)
    capsys.readouterr()
    afile = tmp_path / "file"
    afile.write_text("")
    missing = tmp_path / "missing" / "out"
    argv, path, reason = {
        "bench": (["bench", "--dataset-dir", str(data), "--methods",
                   "local-search", "--workers", "1", "--out", str(missing)],
                  missing, "No such file or directory"),
        "solve": (["solve", str(data / "*.wcnf"), "--out", str(missing)],
                  missing, "No such file or directory"),
        "gen-file": (["gen", "--n", "5", "--m", "5", "--out-dir", str(afile)],
                     afile, "File exists"),
        "gen-under-file": (["gen", "--n", "5", "--m", "5", "--out-dir",
                            str(afile / "sub")], afile / "sub", "Not a directory"),
    }[case]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    for name in ("solve", "local_search", "generate_random_3sat"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", f"error: {path}: {reason}\n")


def test_gradcheck_passes_on_small_instance(capsys):
    code, out, _ = run(["gradcheck", "--n", "6", "--seed", "2"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "embed" in out and "conv2" in out


def test_gradcheck_rejects_large_n(capsys):
    # n = 2 has too few variables for the 3-SAT instance gradcheck draws
    for n in ("40", "2"):
        code, _, err = run(["gradcheck", "--n", n], capsys)
        assert code == 1
        assert err == "error: gradcheck supports 3 <= n <= 12\n"
