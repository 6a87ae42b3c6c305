import contextlib
import dataclasses
import io
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subclust import cli, dataio
from subclust.cli import RunConfig, build_parser, main, run_pipeline


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
    "command, flags",
    [
        ("synth", ["--dims", "a,b"]),
        ("synth", ["--ambient", "5", "--dims", "4,4"]),
        ("synth", ["--k", "3", "--dims", "2,2"]),
        ("bench", ["--k", "0"]),
        ("bench", ["--ambient", "8", "--k", "4", "--dim", "3"]),
        ("bench", ["--n", "10", "--p", "4", "--k", "4", "--dim", "5"]),
        ("bench", ["--repeats", "0"]),
    ],
    ids=[
        "synth-dims-not-integers", "synth-dims-above-ambient", "synth-dims-not-k",
        "bench-k-0", "bench-dims-above-ambient", "bench-points-below-dim", "bench-repeats-0",
    ],
)
def test_synth_and_bench_bad_flags_are_usage_errors(tmp_path, capsys, command, flags):
    # later flags win, so ``flags`` overrides the valid defaults before it
    defaults = {"synth": SYNTH_FLAGS + ["--out", str(tmp_path / "d.csv")], "bench": BENCH_FLAGS}
    rc = run_cli(command, *defaults[command], *flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: error:")


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
@pytest.mark.parametrize(
    "scale, message",
    [(1e5, "--gamma"), (1e160, "sum of squares")],
    ids=["ridge-not-positive-definite", "sum-of-squares-overflow"],
)
def test_cluster_badly_scaled_data_is_data_error(tmp_path, capsys, scale, message, algorithm):
    # at 1e5, gamma = 1e-6 is below the rounding of X^T X; at 1e160 the
    # squares overflow
    data = tmp_path / "scaled.csv"
    X = np.random.default_rng(0).standard_normal((40, 6)) * scale
    np.savetxt(data, X, fmt="%.17g", delimiter=",")
    out = tmp_path / "x.json"
    rc = run_cli(
        "cluster", "--algorithm", algorithm, "--input", str(data),
        "--k", "2", "--p", "20", "--seed", "0", "--output", str(out),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("subclust: data error:")
    assert message in err
    assert not out.exists()


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
        ("slrr", ["--rho", "1.0"]),
        ("slrr", ["--lambda", "-1"]),
        ("sssc", ["--lambda", "0"]),
        ("sssc", ["--lambda", "inf"]),
        ("slrr", ["--lambda", "inf"]),
        ("sssc", ["--lambda", "nan"]),
        ("sssc", ["--gamma", "-1"]),
        ("sssc", ["--gamma", "inf"]),
        ("slrr", ["--rho", "nan"]),
        ("sssc", ["--pca-energy", "1.5"]),
        ("sssc", ["--restarts", "0"]),
        ("sssc", ["--delta", "-1"]),
        ("sssc", ["--kkt-tol", "0"]),
        ("slrr", ["--p", "1", "--k", "1"]),
        ("sssc", ["--p", "1", "--k", "1"]),
        ("sssc", ["--seed", "-1"]),
    ],
    ids=[
        "rho", "lambda-negative", "lambda-zero", "lambda-inf-sssc",
        "lambda-inf-slrr", "lambda-nan", "gamma", "gamma-inf", "rho-nan", "pca-energy",
        "restarts", "delta", "kkt-tol", "slrr-p-1", "sssc-p-1", "seed-negative",
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
        {"row_normalize": "false"},
        {"restarts": 2.7},
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


IO_FIELDS = {"input", "labels", "output", "has_header"}
IDENTITY_FIELDS = {"algorithm", "k", "p", "seed"}
# a valid, non-default value for every RunConfig field outside I/O
NON_DEFAULT = {
    "algorithm": "sssc", "k": 2, "p": 30, "seed": 5, "lam": 2e-5,
    "delta": 2e-3, "gamma": 2e-6, "error_norm": "l1", "restarts": 3,
    "kkt_tol": 2e-4, "lasso_max_iterations": 15000, "lrr_max_iterations": 400,
    "constraint_tol": 2e-7, "oos_coding": "sparse", "row_normalize": False,
    "pca_energy": 1.0, "mu_init": 2e-2, "rho": 1.6, "mu_max": 1e9,
}


def _key(f):
    return f.metadata.get("key", f.name)


def test_every_knob_has_one_flag_one_config_key_and_a_report_entry(tmp_path, synth_files):
    data, _ = synth_files
    knobs = [f for f in dataclasses.fields(RunConfig) if f.name not in IO_FIELDS]
    assert {f.name for f in knobs} == set(NON_DEFAULT)
    assert all(NON_DEFAULT[f.name] != f.default for f in knobs)

    cluster = build_parser()._subparsers._group_actions[0].choices["cluster"]
    for f in knobs:
        assert [a.dest for a in cluster._actions].count(f.name) == 1, f.name

    flags = []
    for f in knobs:
        value = NON_DEFAULT[f.name]
        flag = "--" + _key(f).replace("_", "-")
        if isinstance(value, bool):
            flags.append(flag if value else flag.replace("--", "--no-", 1))
        else:
            flags += [flag, str(value)]
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


def test_cluster_non_convergence_exits_3_with_report(tmp_path, synth_files):
    data, _ = synth_files
    out = tmp_path / "nc.json"
    rc = run_cli(
        "cluster", "--algorithm", "sssc", "--input", str(data),
        "--k", "2", "--p", "40", "--seed", "3", "--output", str(out),
        "--delta", "0", "--kkt-tol", "1e-15", "--lasso-max-iterations", "5",
    )
    assert rc == 3
    report = json.loads(out.read_text())
    assert report["converged"] is False
    assert out.with_suffix(".labels").exists()


def test_usage_error_exit_code():
    assert run_cli("cluster", "--algorithm", "nope") == 1


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
