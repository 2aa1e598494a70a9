"""Command-line interface: generation, solving, benchmarking, oracles,
and the gradient report."""

import csv
import json
from pathlib import Path

import pytest

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
        assert any(cl.weight > 1 for cl in inst.clauses)


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


def test_bench_empty_dir_fails(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code, _, err = run(
        ["bench", "--dataset-dir", str(tmp_path / "empty"), "--out",
         str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 1


def test_gradcheck_passes_on_small_instance(capsys):
    code, out, _ = run(["gradcheck", "--n", "6", "--seed", "2"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "embed" in out and "conv2" in out


def test_gradcheck_rejects_large_n(capsys):
    code, _, err = run(["gradcheck", "--n", "40"], capsys)
    assert code == 1
