import importlib
import json
from collections import defaultdict
from dataclasses import asdict

import numpy as np
import pytest

from lplr.cli import main
from lplr.factor import low_rank
from lplr.lowner import LevelSet
from lplr.matio import load_matrix, store_matrix
from lplr.report import evaluate, report_from_json, reports_equal_modulo_time
from lplr.synth import SyntheticSpec, generate_synthetic

cli_module = importlib.import_module("lplr.cli")


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "a.lplr"
    code = main(
        [
            "synth", "--n", "200", "--d", "16", "--k-true", "4",
            "--outliers", "0.05", "--seed", "7", "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_synth_creates_matrix(synth_file):
    a = load_matrix(synth_file)
    assert a.shape == (200, 16)


def test_factorize_report_respects_bound(tmp_path, synth_file):
    rep_path = tmp_path / "rep.json"
    code = main(
        [
            "factorize", "--input", str(synth_file), "--p", "1", "--rank", "8",
            "--method", "lowner",
            "--out-left", str(tmp_path / "l.lplr"), "--out-right", str(tmp_path / "r.lplr"),
            "--report", str(rep_path),
        ]
    )
    assert code == 0
    rep = json.loads(rep_path.read_text())
    assert rep["error_pp"] <= rep["bound_upper"] * 1.1 ** rep["p"]
    left = load_matrix(tmp_path / "l.lplr")
    right = load_matrix(tmp_path / "r.lplr")
    assert left.shape == (200, 8) and right.shape == (8, 16)
    recon = left @ right
    a = load_matrix(synth_file)
    assert np.sum(np.abs(a - recon)) == pytest.approx(rep["error_pp"], rel=1e-9)


def test_rank_zero_is_usage_error(synth_file, capsys):
    code = main(["factorize", "--input", str(synth_file), "--rank", "0", "--p", "1"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(synth_file):
    assert main(["factorize", "--input", str(synth_file), "--bogus", "1"]) == 1


@pytest.mark.parametrize("flag,field", [("--noise", "noise_sigma"), ("--outlier-scale", "outlier_scale")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_spec_fails_without_writing(tmp_path, capsys, flag, field, value):
    # A NaN noise would otherwise add no noise and exit 0.
    path = tmp_path / "a.lplr"
    code = main(["synth", "--n", "40", "--d", "6", "--k-true", "2", flag, value, "--out", str(path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not path.exists()


def test_numerical_failure_exit_code(tmp_path):
    path = tmp_path / "flat.lplr"
    main(["synth", "--n", "40", "--d", "6", "--k-true", "2", "--noise", "0", "--seed", "1", "--out", str(path)])
    code = main(["factorize", "--input", str(path), "--p", "1", "--rank", "3"])
    assert code == 2


def test_baseline_matches_sigma_tail(tmp_path, synth_file):
    rep_path = tmp_path / "rep.json"
    assert main(["baseline", "--input", str(synth_file), "--rank", "4", "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    a = load_matrix(synth_file)
    s = np.linalg.svd(a, compute_uv=False)
    assert rep["error_pp"] == pytest.approx(float(np.sum(s[4:] ** 2)), rel=1e-8)
    assert rep["method"] == "svd"


def test_sweep_merges_sorted_reports(tmp_path):
    path = tmp_path / "a.lplr"
    main(["synth", "--n", "60", "--d", "6", "--k-true", "2", "--outliers", "0.05", "--seed", "3", "--out", str(path)])
    rep_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--input", str(path), "--ks", "2,4", "--ps", "1,2",
            "--methods", "lowner,svd", "--report", str(rep_path), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    reports = json.loads(rep_path.read_text())
    assert len(reports) == 8
    keys = [(r["k"], r["p"], r["method"]) for r in reports]
    assert keys == sorted(keys)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("k,p,method") and len(lines) == 9


def test_sweep_parallel_matches_serial(tmp_path):
    path = tmp_path / "a.lplr"
    main(["synth", "--n", "50", "--d", "5", "--k-true", "2", "--outliers", "0.1", "--seed", "9", "--out", str(path)])
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["sweep", "--input", str(path), "--ks", "2,3", "--ps", "1", "--methods", "lowner,svd"]
    assert main(args + ["--report", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--report", str(out2), "--workers", "3"]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    for a, b in zip(r1, r2):
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert r1 == r2


def test_sweep_of_tall_input_matches_across_workers(tmp_path):
    # 3000 rows: the conditioner, its probes and the sandwich check stream A in row chunks.
    path = tmp_path / "a.lplr"
    spec = SyntheticSpec(n=3000, d=6, k_true=2, outlier_fraction=0.05, noise_sigma=0.01, outlier_scale=20.0, seed=4)
    store_matrix(path, generate_synthetic(spec))
    args = ["sweep", "--input", str(path), "--ks", "2,4", "--ps", "1,1.5,4", "--methods", "randomized,svd",
            "--seed", "6"]
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"s{workers}.json"
        assert main(args + ["--report", str(out), "--workers", workers]) == 0
        reports.append(json.loads(out.read_text()))
    assert len(reports[0]) == 12
    for rows in reports:
        for row in rows:
            assert row.pop("wall_time_ms") >= 0.0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("p", ["1", "2"])
def test_check_passes_on_healthy_input(tmp_path, capsys, monkeypatch, p):
    # At p = 2 no cut runs, so the det(F) check passes on an empty trace.
    path = tmp_path / "a.lplr"
    main(["synth", "--n", "50", "--d", "5", "--k-true", "2", "--noise", "0.2", "--seed", "2", "--out", str(path)])
    built = []
    validate = LevelSet.__post_init__

    def counting(level):
        built.append(level)
        validate(level)

    monkeypatch.setattr(LevelSet, "__post_init__", counting)
    assert main(["check", "--input", str(path), "--p", p]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out
    # check hands its level set to lowner, so the rank SVD runs once
    assert len(built) == 1


def test_cli_determinism_modulo_wall_time(tmp_path, synth_file):
    reps = []
    for name in ("r1.json", "r2.json"):
        rep_path = tmp_path / name
        assert main(
            [
                "factorize", "--input", str(synth_file), "--p", "1.5", "--rank", "6",
                "--method", "randomized", "--seed", "123", "--report", str(rep_path),
            ]
        ) == 0
        reps.append(report_from_json(rep_path.read_text()))
    assert reports_equal_modulo_time(reps[0], reps[1])


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def _sweep_rows(tmp_path, a, workers, methods="lowner,randomized,svd"):
    path, rep_path = tmp_path / "in.lplr", tmp_path / f"sweep{workers}.json"
    store_matrix(path, a)
    code = main(
        [
            "sweep", "--input", str(path), "--ks", "2,5", "--ps", "1,2",
            "--methods", methods, "--seed", "5",
            "--workers", str(workers), "--report", str(rep_path),
        ]
    )
    assert code == 0
    return json.loads(rep_path.read_text())


@pytest.fixture(scope="module")
def tall_matrix():
    # With this seed the wide case's sandwich ratios round differently on the
    # transposed view and on a contiguous copy, so the test sees which one a
    # sweep reads.
    spec = SyntheticSpec(n=40, d=9, k_true=2, outlier_fraction=0.05, noise_sigma=0.01, outlier_scale=20.0, seed=9)
    return generate_synthetic(spec)


def _oriented(tall_matrix, orientation):
    return tall_matrix if orientation == "tall" else np.ascontiguousarray(tall_matrix.T)


@pytest.mark.parametrize("methods", ["lowner,randomized,svd", "randomized", "lowner,randomized"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("orientation", ["tall", "wide"])
def test_sweep_rows_equal_evaluate(tmp_path, tall_matrix, orientation, workers, methods):
    # The sweep shares one SVD, its error sums and the Gaussian sandwich
    # numerators across all rows, with or without svd rows of its own; every
    # row must still be the report evaluate() gives for the same (k, p, method).
    a = _oriented(tall_matrix, orientation)
    rows = _sweep_rows(tmp_path, a, workers, methods)
    assert len(rows) == 4 * len(methods.split(","))
    for row in rows:
        approx = low_rank(a, row["k"], row["p"], row["method"])
        expected = asdict(evaluate(a, approx, row["p"], seed=5))
        expected.pop("wall_time_ms")
        assert row.pop("wall_time_ms") >= 0.0
        assert row["error_l2_baseline"] == expected["error_l2_baseline"]
        assert row == expected
        if row["method"] == "svd":
            assert row["error_pp"] == row["error_l2_baseline"]


def _counted_sweep(monkeypatch, tmp_path, a, wrapped):
    """Rows of a --workers 1 randomized,svd sweep at p in {1, 2, 4}.

    ``wrapped`` maps (module, function name) to a recorder that sees the
    arguments of every call of that function.
    """
    for (module_name, name), record in wrapped.items():
        module = importlib.import_module(module_name)
        real = getattr(module, name)

        def counting(*args, _real=real, _record=record, **kwargs):
            _record(*args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    path, rep_path = tmp_path / "in.lplr", tmp_path / "sweep.json"
    store_matrix(path, a)
    argv = ["sweep", "--input", str(path), "--ks", "2,3,5", "--ps", "1,2,4", "--methods", "randomized,svd",
            "--workers", "1", "--report", str(rep_path)]
    assert main(argv) == 0
    return json.loads(rep_path.read_text())


@pytest.mark.parametrize("orientation", ["tall", "wide"])
def test_sweep_runs_one_input_svd(monkeypatch, tmp_path, tall_matrix, orientation):
    # Every row's baseline and every svd row come from one SVD of the
    # oriented input; the conditioner's d x d SVDs of R are not the input's.
    shapes = []
    record = lambda m: shapes.append(m.shape)  # noqa: E731
    _counted_sweep(monkeypatch, tmp_path, _oriented(tall_matrix, orientation),
                   {("lplr.factor", "svd"): record, ("lplr.lpsvd", "svd"): record})
    assert sorted(shapes) == [(9, 9)] * 3 + [(40, 9)]


def test_sweep_makes_one_gaussian_pass_per_p(monkeypatch, tmp_path, tall_matrix):
    # The sandwich check's 1000 Gaussian numerators depend only on A and p:
    # one pass over them per p, in direction blocks.  The 2d axis directions
    # belong to each factorization: one pass per (p, method).
    gaussian, axes = defaultdict(int), []
    _counted_sweep(monkeypatch, tmp_path, tall_matrix, {
        ("lplr.lpsvd", "_norm_pass"): lambda a, p, points: gaussian.__setitem__(p, gaussian[p] + len(points)),
        ("lplr.lpsvd", "pnorms"): lambda a, p, points: axes.append((p, len(points))),
    })
    assert gaussian == {1.0: 1000, 2.0: 1000, 4.0: 1000}
    assert sorted(axes) == sorted([(p, 18) for p in (1.0, 2.0, 4.0)] * 2)


def test_sweep_sums_each_error_once(monkeypatch, tmp_path, tall_matrix):
    # A randomized row sums its own error; its baseline is the svd row's
    # error at the same (k, p), summed once for both.
    calls = []
    rows = _counted_sweep(monkeypatch, tmp_path, tall_matrix,
                          {("lplr.report", "entrywise_pnorm_pow"): lambda m, p: calls.append(p)})
    assert len(rows) == len(calls) == 18
    svd = {(r["k"], r["p"]): r["error_pp"] for r in rows if r["method"] == "svd"}
    assert all(r["error_l2_baseline"] == svd[r["k"], r["p"]] for r in rows)


@pytest.mark.parametrize("orientation", ["tall", "wide"])
def test_svd_rows_sum_their_error_once(monkeypatch, tmp_path, tall_matrix, orientation):
    # An svd row's approximation is its own baseline, so its error is summed
    # once and reported twice: one entrywise_pnorm_pow call per row.
    a = tall_matrix if orientation == "tall" else np.ascontiguousarray(tall_matrix.T)
    path, rep_path = tmp_path / "in.lplr", tmp_path / "sweep.json"
    store_matrix(path, a)
    report_module = importlib.import_module("lplr.report")
    real = report_module.entrywise_pnorm_pow
    calls = []

    def counting(m, p):
        calls.append(p)
        return real(m, p)

    monkeypatch.setattr(report_module, "entrywise_pnorm_pow", counting)
    argv = ["sweep", "--input", str(path), "--ks", "2,3,5", "--ps", "1,2,4", "--methods", "svd",
            "--report", str(rep_path)]
    assert main(argv) == 0
    rows = json.loads(rep_path.read_text())
    assert len(rows) == len(calls) == 9
    assert all(row["error_pp"] == row["error_l2_baseline"] for row in rows)


@pytest.mark.parametrize("orientation", ["tall", "wide"])
@pytest.mark.parametrize(
    "argv",
    [
        ["factorize", "--method", "lowner", "--p", "1.5", "--rank", "3"],
        ["factorize", "--method", "randomized", "--p", "1", "--rank", "4"],
        ["factorize", "--method", "svd", "--p", "4", "--rank", "5"],
        ["baseline", "--p", "1", "--rank", "3"],
    ],
)
def test_single_reports_equal_library(tmp_path, tall_matrix, orientation, argv):
    # factorize and baseline build their report through the sweep's job: the
    # report must still be evaluate() of the library's approximation, and the
    # factor files its factor pair.
    a = tall_matrix if orientation == "tall" else np.ascontiguousarray(tall_matrix.T)
    path, rep_path = tmp_path / "in.lplr", tmp_path / "rep.json"
    left_path, right_path = tmp_path / "l.lplr", tmp_path / "r.lplr"
    store_matrix(path, a)
    code = main(
        argv + [
            "--input", str(path), "--seed", "5", "--report", str(rep_path),
            "--out-left", str(left_path), "--out-right", str(right_path),
        ]
    )
    assert code == 0
    opts = dict(zip(argv[1::2], argv[2::2]))
    p = float(opts["--p"])
    approx = low_rank(a, int(opts["--rank"]), p, opts.get("--method", "svd"))
    expected = asdict(evaluate(a, approx, p, seed=5))
    expected.pop("wall_time_ms")
    row = json.loads(rep_path.read_text())
    assert row.pop("wall_time_ms") >= 0.0
    assert row == expected
    np.testing.assert_array_equal(load_matrix(left_path), approx.left)
    np.testing.assert_array_equal(load_matrix(right_path), approx.right)


@pytest.mark.parametrize("value", ["0.5", "nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["factorize", "baseline", "sweep", "check"])
def test_exponent_outside_domain_is_usage_error(tmp_path, synth_file, capsys, command, value):
    rep_path = tmp_path / "rep.json"
    if command == "sweep":
        argv = ["sweep", "--input", str(synth_file), "--ks", "2", "--ps", f"2,{value}",
                "--methods", "svd", "--report", str(rep_path)]
    elif command == "check":
        argv = ["check", "--input", str(synth_file), "--p", value]
    else:
        argv = [command, "--input", str(synth_file), "--rank", "2", "--p", value, "--report", str(rep_path)]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not rep_path.exists()


@pytest.mark.parametrize("command", ["factorize", "check"])
def test_contraction_flag_is_gone(tmp_path, synth_file, capsys, command):
    # The vertex contraction is fixed at 1/d; its former flag, even at the
    # old default, is an unknown argument.
    rep_path = tmp_path / "rep.json"
    argv = [command, "--input", str(synth_file), "--p", "1", "--contraction", "inv-d"]
    if command == "factorize":
        argv += ["--rank", "2", "--report", str(rep_path)]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not rep_path.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_workers_below_one_is_usage_error(tmp_path, synth_file, workers):
    rep_path = tmp_path / "rep.json"
    argv = ["sweep", "--input", str(synth_file), "--ks", "2", "--ps", "2", "--methods", "svd",
            "--workers", workers, "--report", str(rep_path)]
    assert main(argv) == 1
    assert not rep_path.exists()


@pytest.mark.parametrize("flag,value", [("--ks", ","), ("--ks", ""), ("--ps", ","), ("--methods", ",")])
def test_sweep_empty_grid_is_usage_error(tmp_path, synth_file, capsys, flag, value):
    rep_path = tmp_path / "rep.json"
    opts = {"--ks": "2", "--ps": "1", "--methods": "svd", flag: value}
    argv = ["sweep", "--input", str(synth_file), "--report", str(rep_path)]
    for name, text in opts.items():
        argv += [name, text]
    assert main(argv) == 1
    assert f"usage error: {flag}" in capsys.readouterr().err
    assert not rep_path.exists()


def test_sweep_unknown_method_is_usage_error(tmp_path, synth_file, capsys):
    rep_path = tmp_path / "rep.json"
    argv = ["sweep", "--input", str(synth_file), "--ks", "2", "--ps", "1", "--methods", "svd,bogus",
            "--report", str(rep_path)]
    assert main(argv) == 1
    assert "one of lowner, randomized, svd" in capsys.readouterr().err
    assert not rep_path.exists()


def _recorded_jobs(monkeypatch, synth_file, tmp_path, ks, ps, methods):
    """(ks, p, method) of every sweep job, in the order the sweep starts them.

    Only non-svd (p, method) pairs are jobs: the svd rows are the parent's.
    """
    jobs = []

    def record(payload):
        a, job_ks, p, method = payload
        jobs.append((job_ks, p, method.value))
        d = a.shape[1]
        return cli_module._Part(p, method, np.ones(d), np.eye(d), {}, [])

    monkeypatch.setattr(cli_module, "_sweep_job", record)
    argv = ["sweep", "--input", str(synth_file), "--ks", ks, "--ps", ps, "--methods", methods,
            "--report", str(tmp_path / "rep.json")]
    assert main(argv) == 0
    return jobs


def test_sweep_starts_costliest_jobs_first(monkeypatch, synth_file, tmp_path):
    jobs = _recorded_jobs(monkeypatch, synth_file, tmp_path, "2", "1,2,4,1.5,3", "svd,randomized,lowner")
    order = [4.0, 3.0, 1.5, 1.0, 2.0]
    assert [(p, m) for _, p, m in jobs] == [(p, m) for m in ("lowner", "randomized") for p in order]


def test_sweep_drops_duplicate_grid_values(monkeypatch, synth_file, tmp_path):
    jobs = _recorded_jobs(monkeypatch, synth_file, tmp_path, "4,2,2", "1,1.0,2", "randomized,randomized")
    assert jobs == [([2, 4], 1.0, "randomized"), ([2, 4], 2.0, "randomized")]


def test_sweep_duplicates_write_each_row_once(tmp_path, synth_file):
    rows = {}
    for name, ks, ps in (("dup", "2,2", "1,1"), ("single", "2", "1")):
        rep_path = tmp_path / f"{name}.json"
        argv = ["sweep", "--input", str(synth_file), "--ks", ks, "--ps", ps, "--methods", "svd",
                "--report", str(rep_path)]
        assert main(argv) == 0
        rows[name] = json.loads(rep_path.read_text())
        for row in rows[name]:
            row.pop("wall_time_ms")
    assert len(rows["dup"]) == 1 and rows["dup"] == rows["single"]
