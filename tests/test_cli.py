import json

import numpy as np
import pytest

from subclust.cli import main


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
    paths = {}
    for name, algorithm, extra in (
        ("sssc", "sssc", ["--p", "80"]),
        ("ssc", "ssc", []),
    ):
        out = tmp_path / f"{name}.json"
        rc = run_cli(
            "cluster", "--algorithm", algorithm, "--input", str(data),
            "--k", "2", "--seed", "3", "--output", str(out), *extra,
        )
        assert rc == 0
        paths[name] = out.with_suffix(".labels").read_text()
    assert paths["sssc"] == paths["ssc"]  # p = n: no out-of-sample stage


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
        ("sssc", ["--gamma", "-1"]),
        ("sssc", ["--pca-energy", "1.5"]),
        ("sssc", ["--restarts", "0"]),
        ("sssc", ["--delta", "-1"]),
        ("sssc", ["--kkt-tol", "0"]),
        ("slrr", ["--p", "1", "--k", "1"]),
        ("sssc", ["--p", "1", "--k", "1"]),
    ],
    ids=[
        "rho", "lambda-negative", "lambda-zero", "gamma", "pca-energy",
        "restarts", "delta", "kkt-tol", "slrr-p-1", "sssc-p-1",
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


def test_cluster_full_mode_cap(tmp_path, synth_files):
    data, _ = synth_files
    rc = run_cli(
        "cluster", "--algorithm", "ssc", "--input", str(data),
        "--k", "2", "--seed", "0", "--max-full-n", "10",
        "--output", str(tmp_path / "x.json"),
    )
    assert rc == 1


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
