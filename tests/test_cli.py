import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subclust import cli, dataio, metrics, oos
from subclust.cli import RunConfig, build_parser, main, run_pipeline
from subclust.errors import UnassignableSampleError


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_files(tmp_path):
    data = tmp_path / "data.csv"
    rc = run_cli(
        "synth", "--k", "2", "--ambient", "50", "--dims", "4,4",
        "--points", "40,40", "--seed", "3", "--out", str(data),
    )
    assert rc == 0
    return data, data.with_suffix(".labels")


# --- synth ------------------------------------------------------------------


def test_synth_writes_expected_counts(tmp_path):
    data = tmp_path / "d.csv"
    rc = run_cli(
        "synth", "--k", "2", "--ambient", "50", "--dims", "4,4",
        "--points", "40,40", "--seed", "0", "--out", str(data),
    )
    assert rc == 0
    assert len(data.read_text().splitlines()) == 80
    assert len(data.with_suffix(".labels").read_text().splitlines()) == 80


def test_synth_deterministic_bytes(tmp_path):
    out = []
    for name in ("a", "b"):
        data = tmp_path / f"{name}.csv"
        run_cli(
            "synth", "--k", "2", "--ambient", "30", "--dims", "3,3",
            "--points", "20,20", "--seed", "11", "--out", str(data),
        )
        out.append((data.read_bytes(), data.with_suffix(".labels").read_bytes()))
    assert out[0] == out[1]


SYNTH_FLAGS = ["--k", "2", "--ambient", "10", "--dims", "2,2", "--points", "5,5", "--seed", "0"]
BENCH_FLAGS = ["--n", "100", "--p", "20", "--ambient", "30"]


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("synth", ["--dims", "a,b"], "--dims"),
        ("synth", ["--ambient", "5", "--dims", "4,4"], "--dims"),
        ("synth", ["--k", "3", "--dims", "2,2"], "--dims"),
        ("synth", ["--noise-sigma", "nan"], "--noise-sigma"),
        ("synth", ["--noise-sigma", "inf"], "--noise-sigma"),
        ("synth", ["--noise-sigma", "-1"], "--noise-sigma"),
        ("synth", ["--noise-sigma", "1e308"], "--noise-sigma"),
        ("synth", ["--noise-sigma", "-1e-3"], "--noise-sigma"),
        ("synth", ["--corrupt-frac", "2"], "--corrupt-frac"),
        ("synth", ["--seed", "-1"], "--seed"),
        ("synth", ["--dims", ",2"], "--dims"),
        ("bench", ["--k", "0"], "--k"),
        ("bench", ["--ambient", "8", "--k", "4", "--dim", "3"], "--dim"),
        ("bench", ["--dim", "0"], "--dim"),
        ("bench", ["--n", "10", "--p", "4", "--k", "4", "--dim", "5"], "--n"),
        ("bench", ["--repeats", "0"], "--repeats"),
        ("bench", ["--seed", "-1"], "--seed"),
    ],
    ids=[
        "synth-dims-not-integers", "synth-dims-above-ambient", "synth-dims-not-k",
        "synth-noise-nan", "synth-noise-inf", "synth-noise-negative", "synth-noise-overflows",
        "synth-noise-negative-exponent",
        "synth-corrupt-above-1",
        "synth-seed-negative", "synth-dims-empty-entry", "bench-k-0", "bench-dims-above-ambient",
        "bench-dim-0", "bench-points-below-dim", "bench-repeats-0", "bench-seed-negative",
    ],
)
def test_synth_and_bench_bad_flags_are_usage_errors(tmp_path, capsys, command, flags, named):
    # later flags win, so ``flags`` overrides the valid defaults before it
    defaults = {"synth": SYNTH_FLAGS + ["--out", str(tmp_path / "d.csv")], "bench": BENCH_FLAGS}
    rc = run_cli(command, *defaults[command], *flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error:")
    assert named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--labels-out"])
def test_synth_output_in_missing_directory_fails_before_writing(tmp_path, capsys, flag):
    paths = {"--out": tmp_path / "d.csv", "--labels-out": tmp_path / "d.labels"}
    paths[flag] = tmp_path / "missing" / paths[flag].name
    rc = run_cli(
        "synth", *SYNTH_FLAGS, *(x for k, v in paths.items() for x in (k, str(v))),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"subclust: data error: {flag}") and "missing" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_out_named_like_its_labels_is_usage_error(tmp_path, capsys):
    # the default labels path of --out d.labels is d.labels itself
    rc = run_cli("synth", *SYNTH_FLAGS, "--out", str(tmp_path / "d.labels"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error: --labels-out and --out are the same file")
    assert list(tmp_path.iterdir()) == []


def test_synth_marks_corrupted_with_minus_one(tmp_path):
    data = tmp_path / "c.csv"
    run_cli(
        "synth", "--k", "2", "--ambient", "30", "--dims", "3,3",
        "--points", "40,40", "--corrupt-frac", "0.1", "--seed", "5",
        "--out", str(data),
    )
    labels = [int(x) for x in data.with_suffix(".labels").read_text().split()]
    assert sum(1 for x in labels if x == -1) == 8


# --- cluster -----------------------------------------------------------------


def test_cluster_sssc_exact_on_clean_data(tmp_path, synth_files, capsys):
    data, labels = synth_files
    report_path = tmp_path / "report.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--labels", str(labels), "--k", "2", "--p", "40", "--seed", "3",
        "--output", str(report_path),
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["accuracy"] == 1.0
    assert report["nmi"] == 1.0
    assert report["converged"] is True
    label_lines = (tmp_path / "report.labels").read_text().splitlines()
    assert len(label_lines) == 80


def test_cluster_slrr_exact_on_clean_data(tmp_path, synth_files):
    data, labels = synth_files
    report_path = tmp_path / "slrr.json"
    rc = run_cli(
        "cluster", "--algorithm", "slrr", "--input", str(data),
        "--labels", str(labels), "--k", "2", "--p", "40", "--seed", "3",
        "--output", str(report_path),
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["accuracy"] == 1.0


def test_cluster_slrr_sparse_coding_ignores_the_lrr_weight(tmp_path):
    # under slrr --lambda weighs the LRR error term (default 1.0); as the l1
    # weight it zeroes every sparse code, and every point then ties on class 0
    data = tmp_path / "data.csv"
    assert run_cli(
        "synth", "--k", "2", "--ambient", "30", "--dims", "3,3",
        "--points", "100,100", "--seed", "1", "--out", str(data),
    ) == 0
    report_path = tmp_path / "report.json"
    assert run_cli(
        "cluster", "--algorithm", "slrr", "--input", str(data),
        "--labels", str(data.with_suffix(".labels")), "--k", "2", "--p", "60",
        "--seed", "0", "--oos-coding", "sparse", "--output", str(report_path),
    ) == 0
    assert json.loads(report_path.read_text())["accuracy"] == 1.0


def test_cluster_full_sample_matches_whole_data_mode(tmp_path, synth_files):
    data, labels = synth_files
    for sampled, whole in (
        (["sssc", "--p", "80"], ["ssc"]),
        (["slrr", "--p", "80"], ["lrr"]),
        (["sssc", "--p", "80"], ["ssc", "--p", "40"]),  # ssc takes p = n over --p
    ):
        outputs = []
        for name, (algorithm, *extra) in (("sampled", sampled), ("whole", whole)):
            out = tmp_path / f"{name}.json"
            rc = run_cli(
                "cluster", "--algorithm", algorithm, "--input", str(data),
                "--k", "2", "--seed", "3", "--output", str(out), *extra,
            )
            assert rc == 0
            assert json.loads(out.read_text())["p"] == 80, whole  # the p used: n
            outputs.append(out.with_suffix(".labels").read_bytes())
        assert outputs[0] == outputs[1], whole  # p = n: no out-of-sample stage


def test_cluster_deterministic_outputs(tmp_path, synth_files):
    data, labels = synth_files
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.json"
        rc = run_cli(
            "cluster", "--algorithm", "sssc", "--input", str(data),
            "--k", "2", "--p", "40", "--seed", "9", "--output", str(out),
        )
        assert rc == 0
        outputs.append(out.with_suffix(".labels").read_bytes())
    assert outputs[0] == outputs[1]


def test_cluster_stage_times_account_for_total(tmp_path, synth_files):
    data, labels = synth_files
    out = tmp_path / "times.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--k", "2", "--p", "40", "--seed", "3", "--output", str(out),
    )
    assert rc == 0
    report = json.loads(out.read_text())
    stage_sum = sum(report["stage_seconds"].values())
    assert stage_sum >= 0.9 * report["total_seconds"]
    assert all(v >= 0 for v in report["stage_seconds"].values())


def test_cluster_labels_preserve_input_order(tmp_path, synth_files):
    data, labels = synth_files
    out = tmp_path / "o.json"
    run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--labels", str(labels), "--k", "2", "--p", "40", "--seed", "3",
        "--output", str(out),
    )
    pred = [int(x) for x in out.with_suffix(".labels").read_text().split()]
    truth = [int(x) for x in labels.read_text().split()]
    # exact clustering: predicted labels are a bijective relabeling in order
    mapping = {}
    for p_lab, t_lab in zip(pred, truth):
        assert mapping.setdefault(t_lab, p_lab) == p_lab


def test_cluster_config_file_precedence(tmp_path, synth_files):
    data, labels = synth_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 2, "p": 40, "seed": 3, "gamma": 0.5}))
    out = tmp_path / "cfg_run.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--config", str(cfg_path), "--gamma", "1e-6",
        "--output", str(out),
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["p"] == 40  # from the config file
    assert report["parameters"]["gamma"] == 1e-6  # flag beats file


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cluster_header_row_is_skipped_end_to_end(tmp_path, synth_files, source):
    data, _ = synth_files
    headed = tmp_path / "headed.csv"
    columns = ",".join(f"x{i}" for i in range(50))
    headed.write_text(columns + "\n" + data.read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"has_header": True}))
    header = ["--has-header"] if source == "flag" else ["--config", str(cfg_path)]
    labels = []
    for name, path, extra in (("plain", data, []), ("headed", headed, header)):
        out = tmp_path / f"{name}.json"
        rc = run_cli(
            "cluster", "--algorithm", "sssc", "--input", str(path), "--k", "2",
            "--p", "40", "--seed", "3", "--output", str(out), *extra,
        )
        assert rc == 0
        labels.append(out.with_suffix(".labels").read_bytes())
    assert labels[0] == labels[1]


def test_cluster_requires_seed(tmp_path, synth_files):
    data, _ = synth_files
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--k", "2", "--p", "40", "--output", str(tmp_path / "x.json"),
    )
    assert rc == 1


def test_cluster_bad_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(bad),
        "--k", "2", "--p", "1", "--seed", "0",
        "--output", str(tmp_path / "x.json"),
    )
    assert rc == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cluster_non_finite_csv_is_data_error(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1,2\n3,4\n5,{cell}\n")
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(bad),
        "--k", "2", "--p", "2", "--seed", "0",
        "--output", str(tmp_path / "x.json"),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "row 3, column 2" in err


@pytest.mark.parametrize("algorithm", ["sssc", "slrr"])
def test_cluster_unassignable_point_names_its_data_row(tmp_path, capsys, algorithm):
    # a zero row has a zero ridge code, so every regularized residual is +inf;
    # at seed 0 the first out-of-sample point is data row 6 (1-based)
    data = tmp_path / "data.csv"
    assert run_cli(
        "synth", "--k", "2", "--ambient", "20", "--dims", "3,3",
        "--points", "30,30", "--seed", "0", "--out", str(data),
    ) == 0
    rows = data.read_text().splitlines()
    rows[5] = ",".join(["0"] * 20)
    data.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(data),
        "--k", "2", "--p", "30", "--seed", "0", "--output", str(tmp_path / "x.json"),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "subclust: error: no class produced a finite residual for data row(s) 6\n"


def _cluster_scaled_gaussian(tmp_path, algorithm, scale):
    """``cluster`` at default knobs on a 40 x 6 Gaussian CSV times ``scale``."""
    data = tmp_path / "scaled.csv"
    X = np.random.default_rng(0).standard_normal((40, 6)) * scale
    np.savetxt(data, X, fmt="%.17g", delimiter=",")
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(data),
        "--k", "2", "--p", "20", "--seed", "0", "--output", str(out),
    )
    return rc, out


@pytest.mark.parametrize("algorithm", ["sssc", "slrr"])
@pytest.mark.parametrize(
    "scale, message", [(1e160, "sum of squares")], ids=["sum-of-squares-overflow"],
)
def test_cluster_badly_scaled_data_is_data_error(tmp_path, capsys, scale, message, algorithm):
    rc, out = _cluster_scaled_gaussian(tmp_path, algorithm, scale)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: data error:")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["sssc", "slrr"])
def test_cluster_large_data_runs_at_default_gamma(tmp_path, algorithm):
    # at this scale gamma = 1e-6 is below the rounding of X^T X, which the
    # ridge projector must therefore never form
    rc, out = _cluster_scaled_gaussian(tmp_path, algorithm, 1e5)
    assert rc == 0
    assert len(out.with_suffix(".labels").read_text().split()) == 40


@pytest.mark.parametrize("dims", ["4,4", "3,5"])
def test_sssc_labels_invariant_under_data_scaling(tmp_path, dims):
    # scaling the data by s scales (1/2)||y - Dc||^2 and the ridge fit by s^2
    # and the residual by s; scaling lambda and gamma by s^2 and delta by s
    # leaves every code, and so every label, as it was; lambda = 1e-2 suits
    # the noise, so the labels compared are the right ones
    data = tmp_path / "data.csv"
    assert run_cli(
        "synth", "--k", "2", "--ambient", "30", "--dims", dims, "--points", "40,40",
        "--noise-sigma", "0.01", "--seed", "1", "--out", str(data),
    ) == 0
    X = np.loadtxt(data, delimiter=",")
    labels = []
    for s in (1.0, 2.0**-17, 1e5, 2.0**17):
        scaled = tmp_path / f"scaled-{s!r}.csv"
        np.savetxt(scaled, X * s, fmt="%.17g", delimiter=",")
        out = tmp_path / f"scaled-{s!r}.json"
        rc = run_cli(
            "cluster", "--algorithm", "sssc", "--input", str(scaled),
            "--labels", str(data.with_suffix(".labels")),
            "--k", "2", "--p", "30", "--seed", "0", "--output", str(out),
            "--lambda", repr(1e-2 * s * s), "--delta", repr(1e-3 * s),
            "--gamma", repr(1e-6 * s * s),
        )
        assert rc == 0, s
        assert json.loads(out.read_text())["accuracy"] == 1.0, s
        labels.append(out.with_suffix(".labels").read_bytes())
    assert labels[1:] == labels[:1] * 3


def _cluster_labels(path, values, algorithm):
    """Write ``values`` (samples as columns) to ``path`` as a CSV and return
    the labels ``cluster`` gives it, k = 3, p = 60, seed 0."""
    np.savetxt(path, values.T, fmt="%.17g", delimiter=",")
    out = path.with_suffix(".json")
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(path), "--k", "3",
        "--p", "60", "--seed", "0", "--output", str(out),
    )
    assert rc == 0
    return np.loadtxt(out.with_suffix(".labels"), dtype=int)


PERMUTATION_DATA = dict(k=3, ambient=30, dim_per=[3, 3, 3], points_per=[60, 60, 60], seed=2)


@pytest.mark.parametrize("algorithm", ["sssc", "slrr"])
def test_permuting_out_of_sample_rows_permutes_their_labels(tmp_path, algorithm):
    # the in-sample rows keep their places, so the fitted model is the same
    # and each out-of-sample row keeps its label wherever it moves
    values = dataio.synth_subspaces(**PERMUTATION_DATA).data
    n = values.shape[1]
    _, out = dataio.uniform_split(n, 60, 0)
    perm = np.arange(n)
    perm[out] = np.random.default_rng(7).permutation(out)
    labels = _cluster_labels(tmp_path / "a.csv", values, algorithm)
    permuted = _cluster_labels(tmp_path / "b.csv", values[:, perm], algorithm)
    assert not np.array_equal(perm, np.arange(n))
    np.testing.assert_array_equal(permuted, labels[perm])


@pytest.mark.parametrize("algorithm", ["ssc", "lrr"])
def test_permuting_all_rows_permutes_labels_up_to_relabelling(tmp_path, algorithm):
    # k-means++ draws row indices, so the cluster ids may differ
    values = dataio.synth_subspaces(**PERMUTATION_DATA).data
    perm = np.random.default_rng(7).permutation(values.shape[1])
    labels = _cluster_labels(tmp_path / "a.csv", values, algorithm)
    permuted = _cluster_labels(tmp_path / "b.csv", values[:, perm], algorithm)
    score = metrics.accuracy(permuted, labels[perm])
    assert score == 1.0


@pytest.mark.parametrize("which", ["input", "labels", "config"])
def test_non_utf8_file_is_data_error(tmp_path, synth_files, capsys, which):
    data, labels = synth_files
    files = {"input": data, "labels": labels, "config": tmp_path / "cfg.json"}
    files["config"].write_text("{}")
    bad = files[which]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(files["input"]),
        "--labels", str(files["labels"]), "--config", str(files["config"]),
        "--k", "2", "--p", "40", "--seed", "0", "--output", str(out),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: data error:")
    assert str(bad) in err and "not UTF-8" in err
    assert not out.exists()


def _fresh_python(code, *args):
    """Standard output of ``code`` run in a new interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_solver_modules_import_without_scipy():
    code = (
        "import sys, subclust.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code).strip() == "[]"


def test_cluster_and_eval_load_only_stdlib_numpy_and_subclust(tmp_path, synth_files):
    # every module imported after start-up; a lazy import that slips back
    # onto the dense-eigh path fails here. numpy.random's Cython modules
    # also register spec-less bookkeeping entries (cython_runtime,
    # _cython_<version>) that no import loads, so those are skipped
    data, labels = synth_files
    runs = [
        [
            "cluster", "--algorithm", algorithm, "--input", str(data),
            "--labels", str(labels), "--k", "2", "--p", "40", "--seed", "0",
            "--output", str(tmp_path / f"{algorithm}.json"),
        ]
        for algorithm in ("sssc", "slrr")
    ]
    runs.append(["eval", "--pred", str(tmp_path / "sssc.labels"), "--truth", str(labels)])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import json\n"
        "from subclust.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "new = set(sys.modules) - before\n"
        "loaded = {m.split('.')[0] for m in new if sys.modules[m].__spec__}\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'subclust'}\n"
        "print(json.dumps(sorted(loaded - allowed)))\n"
    )
    out = _fresh_python(code, json.dumps(runs))
    assert json.loads(out.splitlines()[-1]) == []
    assert json.loads(out.splitlines()[-2])["accuracy"] == 1.0


@pytest.mark.parametrize("algorithm", ["sssc", "ssc"])
def test_cluster_one_sample_is_data_error(tmp_path, capsys, algorithm):
    one = tmp_path / "one.csv"
    one.write_text("1,2,3\n")
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(one),
        "--k", "1", "--p", "1", "--seed", "0", "--output", str(out),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "subclust: data error: clustering needs at least 2 samples, got 1\n"
    assert not out.exists()


def test_cluster_output_in_missing_directory_fails_before_the_run(
    tmp_path, synth_files, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("entered after a bad --output")

    monkeypatch.setattr(cli, "run_pipeline", never)
    monkeypatch.setattr(dataio, "load_csv", never)
    data, _ = synth_files
    out = tmp_path / "missing" / "o.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--k", "2", "--p", "40", "--seed", "0", "--output", str(out),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: data error: --output") and "missing" in err


@pytest.mark.parametrize(
    "output, extra, named",
    [
        ("r.labels", [], "the labels file of --output and --output"),
        ("data.csv", [], "--output and --input"),
        ("data.json", ["--labels", "data.labels"], "the labels file of --output and --labels"),
    ],
    ids=["report-is-its-labels", "report-is-input", "labels-are-truth"],
)
def test_cluster_output_that_is_another_file_is_usage_error(
    tmp_path, synth_files, capsys, output, extra, named
):
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(tmp_path / "data.csv"),
        "--k", "2", "--p", "40", "--seed", "0", "--output", str(tmp_path / output),
        *(str(tmp_path / x) if x.startswith("data") else x for x in extra),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"subclust: error: {named} are the same file")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_cluster_k_above_p_is_usage_error(tmp_path, synth_files, capsys):
    data, _ = synth_files
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--k", "3", "--p", "2", "--seed", "0", "--output", str(out),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--k" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "algorithm, flags",
    [
        ("slrr", ["--lambda", "-1"]),
        ("sssc", ["--lambda", "-1e-5"]),
        ("sssc", ["--lambda", "0"]),
        ("sssc", ["--lambda", "inf"]),
        ("slrr", ["--lambda", "inf"]),
        ("sssc", ["--lambda", "nan"]),
        ("sssc", ["--gamma", "-1"]),
        ("sssc", ["--gamma", "inf"]),
        ("sssc", ["--pca-energy", "1.5"]),
        ("sssc", ["--delta", "-1"]),
        ("slrr", ["--p", "1", "--k", "1"]),
        ("sssc", ["--p", "1", "--k", "1"]),
        ("sssc", ["--seed", "-1"]),
    ],
    ids=[
        "lambda-negative", "lambda-negative-exponent", "lambda-zero", "lambda-inf-sssc", "lambda-inf-slrr", "lambda-nan",
        "gamma", "gamma-inf", "pca-energy", "delta", "slrr-p-1", "sssc-p-1", "seed-negative",
    ],
)
def test_cluster_bad_solver_knob_is_usage_error(tmp_path, synth_files, capsys, algorithm, flags):
    data, _ = synth_files
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(data),
        "--k", "2", "--p", "40", "--seed", "0", "--output", str(out), *flags,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error:")
    assert not out.exists()


CLUSTER_FLAGS = {"algorithm": "sssc", "k": "2", "p": "40", "seed": "0"}


@pytest.mark.parametrize(
    "bad",
    [
        {"oos_coding": "foo"},
        {"lambda": "x"},
        {"k": [2]},
        {"has_header": "false"},
        {"lasso_max_iterations": 2.7},
        {"error_norm": "bogus"},
        {"seed": 1.5},
        {"pca_energy": "x"},
        {"gamma": 10**400},
        pytest.param({"seed": -1}, id="seed-negative"),
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_cluster_bad_config_value_is_usage_error(tmp_path, synth_files, capsys, bad):
    data, _ = synth_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    (key,) = bad
    flags = [x for k, v in CLUSTER_FLAGS.items() if k != key for x in (f"--{k}", v)]
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--input", str(data), "--config", str(cfg_path),
        "--output", str(out), *flags,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error:")
    assert repr(key) in err
    assert "Traceback" not in err
    assert not out.exists()


BOUND_WORDING = {"minimum": ">=", "above": ">", "maximum": "<="}
# one value on the wrong side of every range bound that RunConfig declares
OUT_OF_RANGE = [
    ("seed", "minimum", -1),
    ("lam", "above", 0.0),
    ("delta", "minimum", -1e-3),
    ("gamma", "above", 0.0),
    ("lasso_max_iterations", "minimum", 0),
    ("lrr_max_iterations", "minimum", 0),
    ("pca_energy", "above", 0.0),
    ("pca_energy", "maximum", 1.5),
]
# the solver schedules that were knobs admit no value now: the values that
# fell outside their ranges are still refused, as an unknown flag or key
REMOVED_OUT_OF_RANGE = [
    ("restarts", "minimum", 0),
    ("kkt_tol", "above", 0.0),
    ("constraint_tol", "above", 0.0),
    ("mu_init", "above", 0.0),
    ("rho", "above", 1.0),
    ("mu_max", "above", 0.0),
    ("mu_init", "mu_max", 1e11),
]


def test_out_of_range_cases_cover_every_declared_bound():
    declared = {
        (f.name, bound)
        for f in dataclasses.fields(RunConfig) for bound in BOUND_WORDING if bound in f.metadata
    }
    assert declared == {(name, bound) for name, bound, _ in OUT_OF_RANGE}


@pytest.fixture(scope="module")
def range_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("range") / "data.csv"
    rc = run_cli(
        "synth", "--k", "2", "--ambient", "20", "--dims", "3,3",
        "--points", "15,15", "--seed", "3", "--out", str(data),
    )
    assert rc == 0
    return data


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
@pytest.mark.parametrize(
    "name, bound, value",
    OUT_OF_RANGE + REMOVED_OUT_OF_RANGE,
    ids=[f"{name}-{bound}" for name, bound, _ in OUT_OF_RANGE + REMOVED_OUT_OF_RANGE],
)
def test_cluster_value_outside_its_range_is_usage_error(
    tmp_path, range_data, capsys, algorithm, source, name, bound, value
):
    # every bound holds under every algorithm, whether the value comes from
    # a flag or from the config file
    f = next((f for f in dataclasses.fields(RunConfig) if f.name == name), None)
    key = name if f is None else _key(f)
    given = {"algorithm": algorithm, "k": "2", "p": "20", "seed": "0"}
    out = tmp_path / "x.json"
    argv = ["--input", str(range_data), "--output", str(out)]
    if source == "flag":
        given[key] = str(value)
        where = "--" + key.replace("_", "-")
    else:
        given.pop(key, None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg_path)]
        where = repr(key)
    argv += [x for k, v in given.items() for x in ("--" + k.replace("_", "-"), v)]
    rc = run_cli("cluster", *argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error:")
    assert where in err
    if f is not None:
        assert f"must be {BOUND_WORDING[bound]} {f.metadata[bound]}, got" in err
    assert not out.exists() and not out.with_suffix(".labels").exists()


IO_FIELDS = {"input", "labels", "output", "has_header"}
IDENTITY_FIELDS = {"algorithm", "k", "p", "seed"}
# a valid, non-default value for every RunConfig field outside I/O
NON_DEFAULT = {
    "algorithm": "sssc", "k": 2, "p": 30, "seed": 5, "lam": 2e-5,
    "delta": 2e-3, "gamma": 2e-6, "error_norm": "l1", "lasso_max_iterations": 15000,
    "lrr_max_iterations": 400, "oos_coding": "sparse", "pca_energy": 1.0,
}


def _key(f):
    return f.metadata.get("key", f.name)


def test_every_knob_has_one_flag_one_config_key_and_a_report_entry(tmp_path, synth_files):
    data, _ = synth_files
    knobs = [f for f in dataclasses.fields(RunConfig) if f.name not in IO_FIELDS]
    assert {f.name for f in knobs} == set(NON_DEFAULT)
    assert all(NON_DEFAULT[f.name] != f.default for f in knobs)
    # every numeric knob states its range, except k and p, whose ranges
    # depend on the data
    for f in knobs:
        hint = typing.get_type_hints(RunConfig)[f.name]
        numeric = {int, float} & {hint, *typing.get_args(hint)}
        if numeric and f.name not in ("k", "p"):
            assert set(BOUND_WORDING) & set(f.metadata), f.name

    cluster = build_parser()._subparsers._group_actions[0].choices["cluster"]
    for f in knobs:
        assert [a.dest for a in cluster._actions].count(f.name) == 1, f.name

    flags = []
    for f in knobs:
        flags += ["--" + _key(f).replace("_", "-"), str(NON_DEFAULT[f.name])]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({_key(f): NON_DEFAULT[f.name] for f in knobs}))
    reports = []
    for name, argv in (("flags", flags), ("file", ["--config", str(cfg_path)])):
        out = tmp_path / f"{name}.json"
        rc = run_cli("cluster", "--input", str(data), "--output", str(out), *argv)
        assert rc == 0
        reports.append(json.loads(out.read_text()))
    by_flags, by_file = reports
    for f in knobs:
        where = by_flags if f.name in IDENTITY_FIELDS else by_flags["parameters"]
        assert where[_key(f)] == NON_DEFAULT[f.name], f.name
    assert len(by_flags["parameters"]) == len(knobs) - len(IDENTITY_FIELDS)
    for report in reports:
        del report["stage_seconds"], report["total_seconds"], report["labels_file"]
    assert by_flags == by_file


def _wrong_values(f):
    """Config-file values of the wrong JSON type for field ``f``, or outside its choices."""
    hint = typing.get_type_hints(RunConfig)[f.name]
    base = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    containers = st.one_of(
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    )
    if base is bool:
        wrong = st.one_of(st.text(max_size=5), st.integers(-2, 2), containers)
    elif base is int:
        wrong = st.one_of(
            st.text(max_size=5), st.booleans(), containers,
            st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
        )
    elif base is float:
        non_finite = st.sampled_from([float("inf"), float("-inf"), float("nan")])
        wrong = st.one_of(st.text(max_size=5), st.booleans(), containers, non_finite)
    else:
        choices = f.metadata.get("choices")
        text = st.text(max_size=5).filter(lambda x: x not in choices) if choices else st.nothing()
        wrong = st.one_of(text, st.integers(), st.booleans(), st.floats(allow_nan=False), containers)
    if type(None) not in typing.get_args(hint):
        wrong = st.one_of(wrong, st.none())
    return wrong


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_bad_config_values_never_end_in_a_traceback(tmp_path_factory, data):
    f = data.draw(st.sampled_from(dataclasses.fields(RunConfig)))
    value = data.draw(_wrong_values(f))
    work = tmp_path_factory.mktemp("cfg")
    csv = work / "data.csv"
    csv.write_text("1,0\n0,1\n1,1\n2,1\n")
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps({_key(f): value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run_cli(
            "cluster", "--algorithm", "sssc", "--input", str(csv), "--k", "2",
            "--p", "3", "--seed", "0", "--output", str(work / "x.json"),
            "--config", str(cfg_path),
        )
    assert rc in (1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == 1


def _ends_in_one_line_at_most(*argv):
    """Run the CLI; it must exit 0 in silence, or 1 or 2 with one stderr line
    (an exception or a warning, which the suite turns into one, fails it)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_cli(*argv)
    assert rc in (0, 1, 2)
    assert err.getvalue().count("\n") == (rc != 0)


def _ints(lo, hi, size=None):
    """Flag values: one integer in [lo, hi], or a list of ``size`` of them
    (any size up to 4 when ``size`` is 0)."""
    if size is None:
        return st.integers(lo, hi).map(lambda v: [str(v)])
    lists = st.lists(st.integers(lo, hi), min_size=size, max_size=size or 4)
    return lists.map(lambda vs: [",".join(map(str, vs))])


def _flags(data, valid: dict, broken: str | None, whole) -> list:
    """Each flag drawn from its ``valid`` values, except ``broken``, drawn
    from ``whole``, its bounded full range; an empty draw leaves the flag out.
    One value goes as ``--flag=value``, so that "-1e+300" reads as a value."""
    argv = []
    for flag, values in valid.items():
        drawn = data.draw(whole if flag == broken else values)
        if len(drawn) == 1:
            argv.append(f"{flag}={drawn[0]}")
        elif drawn:
            argv += [flag, *drawn]
    return argv


EXTREMES = [1e308, -1e308, float("inf"), float("-inf"), float("nan")]
REALS = st.one_of(st.sampled_from(EXTREMES), st.floats()).map(lambda v: [str(v)])
FRACTIONS = st.floats(0, 1).map(lambda v: [str(v)])
SYNTH_RANGES = {
    "--k": _ints(-1, 5), "--ambient": _ints(-2, 200), "--dims": _ints(-1, 60, 0),
    "--points": _ints(-1, 100, 0), "--noise-sigma": REALS, "--corrupt-frac": REALS,
    "--seed": _ints(-2, 10**6),
}
BENCH_NS = st.lists(st.integers(40, 200), min_size=1, max_size=2).map(lambda ns: [*map(str, ns)])
BENCH_RANGES = {
    "--n": st.lists(st.integers(-2, 300), min_size=1, max_size=3).map(lambda ns: [*map(str, ns)]),
    "--p": _ints(-2, 80), "--k": _ints(-1, 5), "--ambient": _ints(-2, 100),
    "--dim": _ints(-1, 10), "--repeats": _ints(-1, 2), "--seed": _ints(-2, 10**6),
    "--lambda": REALS,
}


@pytest.mark.parametrize("broken", [None, *SYNTH_RANGES])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_synth_flag_values_never_end_in_a_traceback(tmp_path_factory, broken, data):
    k = data.draw(st.integers(1, 4))
    valid = {
        "--k": st.just([str(k)]), "--ambient": _ints(40, 120), "--dims": _ints(1, 10, k),
        "--points": _ints(10, 60, k), "--noise-sigma": FRACTIONS,
        "--corrupt-frac": FRACTIONS, "--seed": _ints(0, 10**6),
    }
    argv = _flags(data, valid, broken, SYNTH_RANGES.get(broken))
    out = tmp_path_factory.mktemp("synth") / "d.csv"
    _ends_in_one_line_at_most("synth", *argv, "--out", str(out))


@pytest.mark.parametrize("broken", [None, *BENCH_RANGES])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_bench_flag_values_never_end_in_a_traceback(broken, data):
    valid = {
        "--n": BENCH_NS, "--p": _ints(4, 40), "--k": _ints(1, 4), "--ambient": _ints(20, 100),
        "--dim": _ints(1, 5), "--repeats": _ints(1, 2), "--seed": _ints(0, 10**6),
        "--algorithm": st.sampled_from([["sssc"], ["slrr"]]), "--lambda": st.just([]),
    }
    _ends_in_one_line_at_most("bench", *_flags(data, valid, broken, BENCH_RANGES.get(broken)))


def test_cluster_non_convergence_exits_3_with_report(tmp_path, synth_files):
    # the iteration caps alone stop either solver short of its tolerance
    data, _ = synth_files
    for algorithm, caps in [
        ("sssc", ["--delta", "0", "--lasso-max-iterations", "5"]),
        ("slrr", ["--lrr-max-iterations", "3"]),
    ]:
        out = tmp_path / f"nc-{algorithm}.json"
        rc = run_cli(
            "cluster", "--algorithm", algorithm, "--input", str(data),
            "--k", "2", "--p", "40", "--seed", "3", "--output", str(out), *caps,
        )
        assert rc == 3, algorithm
        report = json.loads(out.read_text())
        assert report["converged"] is False
        if algorithm == "slrr":
            assert report["solver"]["iterations"] == 3
        assert out.with_suffix(".labels").exists()


# the solver schedules that are constants of their modules, not knobs:
# (config key, flag, the value it is fixed at)
REMOVED_KNOBS = [
    ("mu_init", "--mu-init", 1e-2),
    ("rho", "--rho", 1.5),
    ("mu_max", "--mu-max", 1e10),
    ("constraint_tol", "--constraint-tol", 1e-7),
    ("kkt_tol", "--kkt-tol", 1e-4),
    ("restarts", "--restarts", 20),
    ("row_normalize", "--row-normalize", True),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, flag, value", REMOVED_KNOBS, ids=[k for k, _, _ in REMOVED_KNOBS])
def test_removed_solver_knob_is_usage_error(
    tmp_path, synth_files, capsys, key, flag, value, source
):
    # each was accepted, at the value it is now fixed at, while it was a knob
    data, _ = synth_files
    out = tmp_path / "x.json"
    argv = ["--algorithm", "slrr", "--input", str(data), "--k", "2", "--p", "40",
            "--seed", "0", "--output", str(out)]
    if source == "flag":
        argv += [flag] if value is True else [flag, str(value)]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg_path)]
    rc = run_cli("cluster", *argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert (flag if source == "flag" else repr(key)) in err
    assert not out.exists() and not out.with_suffix(".labels").exists()


def test_usage_error_exit_code():
    assert run_cli("cluster", "--algorithm", "nope") == 1


# --- assign --------------------------------------------------------------------


def _fitted(mode, n_queries, algorithm="sssc", p=40, ambient=30):
    """A model fitted on clean data whose out-of-sample split has
    ``n_queries`` points. Its l1 weight 1e-2 gives sparse codes that are
    not all zero."""
    dataset = dataio.synth_subspaces(
        k=2, ambient=ambient, dim_per=[3, 3],
        points_per=[(p + n_queries) // 2, (p + n_queries + 1) // 2], seed=5,
    )
    cfg = RunConfig(
        algorithm=algorithm, k=2, p=p, seed=0, lam=1e-2, oos_coding=mode,
        input=None, output=None,
    )
    return cli.fit(cfg, dataset.data), dataset.data


@pytest.mark.parametrize("mode", cli.CODING_MODES)
def test_assign_streams_blocks_like_one_batch(monkeypatch, mode):
    # a small block keeps the sparse case's per-query lassos few; assign
    # reads the block size at call time
    monkeypatch.setattr(oos, "QUERY_CHUNK", 16)
    built = []
    build = oos.lasso_dictionary

    def counting(X):
        built.append(X)
        return build(X)

    monkeypatch.setattr(oos, "lasso_dictionary", counting)
    q = 2 * oos.QUERY_CHUNK + 7
    model, values = _fitted(mode, q)
    out = model.out_of_sample
    assert out.size == q
    # fit builds what the coding rule uses, once per model, not once per block
    assert len(built) == (1 if mode == "sparse" else 0)
    assert (model.dictionary.projector is None) == (mode == "sparse")
    streamed, seconds = cli.assign(model, values, out)
    assert len(built) == (1 if mode == "sparse" else 0)
    assert set(seconds) == {"coding", "classifying"}
    Xbar = values[:, out]
    whole = oos.classify_codes(model.dictionary, Xbar, oos.code_batch(model.dictionary, Xbar))
    np.testing.assert_array_equal(streamed, whole)
    assert set(streamed) == {0, 1}


def _queries(model, values, extra):
    """The model's out-of-sample points followed by ``extra`` Gaussian
    points, which lie near no class subspace and so have small margins."""
    rng = np.random.default_rng(0)
    return np.hstack([values[:, model.out_of_sample],
                      rng.standard_normal((values.shape[0], extra))])


@pytest.mark.parametrize("mode", cli.CODING_MODES)
def test_assign_gives_a_duplicated_point_its_twins_label(monkeypatch, mode):
    monkeypatch.setattr(oos, "QUERY_CHUNK", 16)
    model, values = _fitted(mode, 20)
    V = _queries(model, values, 20)
    twins = [0, 19, 20, 39]  # in-subspace and Gaussian, first and later blocks
    V = np.hstack([V, V[:, twins]])
    labels = cli.assign(model, V, np.arange(V.shape[1]))[0]
    np.testing.assert_array_equal(labels[-len(twins):], labels[twins])


@pytest.mark.parametrize("mode", cli.CODING_MODES)
def test_assign_permuted_queries_get_permuted_labels(monkeypatch, mode):
    monkeypatch.setattr(oos, "QUERY_CHUNK", 16)
    model, values = _fitted(mode, 20)
    V = _queries(model, values, 20)
    columns = np.arange(V.shape[1])
    perm = np.random.default_rng(1).permutation(columns.size)
    labels = cli.assign(model, V, columns)[0]
    np.testing.assert_array_equal(cli.assign(model, V, columns[perm])[0], labels[perm])


@pytest.mark.parametrize("scale", [2.0**-10, 2.0**10])
def test_assign_ridge_labels_invariant_under_query_scaling(scale):
    model, values = _fitted("ridge", 20)
    V = _queries(model, values, 200)
    columns = np.arange(V.shape[1])
    labels = cli.assign(model, V, columns)[0]
    np.testing.assert_array_equal(cli.assign(model, scale * V, columns)[0], labels)


def test_assign_reports_unassignable_columns_of_every_block():
    q = 2 * oos.QUERY_CHUNK + 7
    model, values = _fitted("ridge", q)
    out = model.out_of_sample
    zeroed = [1, oos.QUERY_CHUNK, q - 1]  # first block, second block, last block
    values = values.copy()
    values[:, out[zeroed]] = 0.0
    Xbar = values[:, out]
    with pytest.raises(UnassignableSampleError) as whole:
        oos.classify_codes(model.dictionary, Xbar, oos.code_batch(model.dictionary, Xbar))
    assert whole.value.columns == zeroed
    with pytest.raises(UnassignableSampleError) as streamed:
        cli.assign(model, values, out)
    assert streamed.value.columns == out[zeroed].tolist()
    rows = ", ".join(str(c + 1) for c in out[zeroed])
    assert str(streamed.value).endswith(f"data row(s) {rows}")


def test_assign_memory_does_not_grow_with_the_number_of_queries():
    # p = 200 and m = 100: one p x q code matrix at q = 20000 is 30.5 MiB;
    # slrr fits this dictionary faster than sssc
    p, q = 200, 20_000
    model, values = _fitted("ridge", q, algorithm="slrr", p=p, ambient=100)
    out = model.out_of_sample
    cli.assign(model, values, out[:10])  # first-call set-up stays out of the peaks
    peaks = {}
    tracemalloc.start()
    try:
        for n_queries in (2_000, q):
            tracemalloc.reset_peak()
            cli.assign(model, values, out[:n_queries])
            peaks[n_queries] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks[q] < 0.25 * p * q * 8, peaks
    assert peaks[q] <= 1.25 * peaks[2_000], peaks


# --- eval ---------------------------------------------------------------------


def test_eval_identical_files(tmp_path, capsys):
    f = tmp_path / "a.txt"
    f.write_text("0\n0\n1\n1\n2\n")
    rc = run_cli("eval", "--pred", str(f), "--truth", str(f))
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out == {"accuracy": 1.0, "nmi": 1.0}


def test_eval_relabeled_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n0\n1\n1\n")
    b.write_text("5\n5\n2\n2\n")
    rc = run_cli("eval", "--pred", str(a), "--truth", str(b))
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["accuracy"] == 1.0


def test_eval_orthogonal_partitions(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n0\n1\n1\n")
    b.write_text("0\n1\n0\n1\n")
    rc = run_cli("eval", "--pred", str(a), "--truth", str(b))
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["nmi"] == 0.0


def test_eval_length_mismatch(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n1\n")
    b.write_text("0\n1\n0\n")
    assert run_cli("eval", "--pred", str(a), "--truth", str(b)) == 2


# --- bench -----------------------------------------------------------------------


def test_bench_single_n_has_no_slope(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = run_cli(
        "bench", "--n", "400", "--p", "60", "--k", "2", "--ambient", "30",
        "--dim", "3", "--repeats", "1", "--seed", "0", "--output", str(out),
    )
    assert rc == 0
    result = json.loads(out.read_text())
    assert len(result["runs"]) == 1
    assert result["classification_slope"] is None


def test_bench_output_in_missing_directory_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran after a bad --output")

    monkeypatch.setattr(cli, "run_pipeline", never)
    out = tmp_path / "missing" / "b.json"
    rc = run_cli(
        "bench", "--n", "100", "200", "--p", "20", "--ambient", "30", "--repeats", "1",
        "--output", str(out),
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("subclust: data error: --output") and "missing" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_bench_rejects_p_above_smallest_n(tmp_path):
    rc = run_cli("bench", "--n", "300", "600", "--p", "400", "--seed", "0")
    assert rc == 1


def test_bench_scaling_runs(tmp_path):
    out = tmp_path / "bench.json"
    rc = run_cli(
        "bench", "--n", "300", "600", "--p", "50", "--k", "2",
        "--ambient", "30", "--dim", "3", "--repeats", "2", "--seed", "1",
        "--output", str(out),
    )
    assert rc == 0
    result = json.loads(out.read_text())
    assert len(result["runs"]) == 2
    assert result["classification_slope"] is not None
    assert all(r["accuracy"] == 1.0 for r in result["runs"])


def test_bench_solves_the_in_sample_problem_once_per_n(monkeypatch):
    calls = []
    solve = cli.sparse_self_representation

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "sparse_self_representation", counting)
    rc = run_cli(
        "bench", "--n", "300", "600", "--p", "50", "--k", "2", "--ambient", "30",
        "--dim", "3", "--repeats", "3", "--seed", "0",
    )
    assert rc == 0
    assert len(calls) == 2


def test_bench_accuracy_matches_run_pipeline(tmp_path):
    out = tmp_path / "bench.json"
    rc = run_cli(
        "bench", "--n", "300", "--p", "40", "--k", "3", "--ambient", "30",
        "--dim", "3", "--repeats", "2", "--seed", "2", "--algorithm", "slrr",
        "--output", str(out),
    )
    assert rc == 0
    (run,) = json.loads(out.read_text())["runs"]
    dataset = dataio.synth_subspaces(
        k=3, ambient=30, dim_per=[3] * 3, points_per=[100] * 3, seed=2
    )
    cfg = RunConfig(algorithm="slrr", k=3, p=40, seed=2, input=None, output=None)
    report = run_pipeline(cfg, dataset.data, dataset.truth)
    assert run["accuracy"] == report.accuracy
