"""The benchmark's traced mode wraps library functions by name; keep them there."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from subclust import oos
from subclust.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

# spans the benchmark's per-layer numbers are read from; one a run never
# records would read as 0 seconds instead of failing
PIPELINE_SPANS = {
    "cli.sparse_self_representation",
    "cli.solve_lrr",
    "cli.outlier_columns",
    "oos.build_dictionary",
    "oos.code_batch",
    "oos.classify_codes",
}


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)  # imports only; main runs under __main__
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in traced_cli.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_traced_runs_record_every_pipeline_span(tmp_path):
    data = tmp_path / "data.csv"
    assert main([
        "synth", "--k", "2", "--ambient", "30", "--dims", "3,3",
        "--points", "40,40", "--seed", "0", "--out", str(data),
    ]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    recorded = set()
    for algorithm in ("sssc", "slrr"):
        trace = tmp_path / f"{algorithm}.trace.json"
        proc = subprocess.run(
            [
                sys.executable, str(TRACED_CLI), str(trace), "cluster",
                "--algorithm", algorithm, "--input", str(data), "--k", "2",
                "--p", "30", "--seed", "0", "--output", str(tmp_path / f"{algorithm}.json"),
            ],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        recorded |= {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert PIPELINE_SPANS <= recorded, PIPELINE_SPANS - recorded


def test_traced_lasso_spans_match_the_report(tmp_path):
    # the benchmark's cross-check: one sparse_coding.solve_lasso span per
    # in-sample column, one oos.solve_lasso span per out-of-sample point;
    # its oos.code_s and oos.classify_s are the code_batch and classify_codes
    # spans, one of each per query block
    data = tmp_path / "data.csv"
    assert main([
        "synth", "--k", "2", "--ambient", "30", "--dims", "3,3",
        "--points", "40,40", "--seed", "0", "--out", str(data),
    ]) == 0
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, str(TRACED_CLI), str(trace), "cluster",
            "--algorithm", "sssc", "--input", str(data), "--k", "2", "--p", "30",
            "--seed", "0", "--oos-coding", "sparse", "--output", str(report),
        ],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(trace.read_text())["spans"]]
    solver = json.loads(report.read_text())["solver"]
    assert names.count("sparse_coding.solve_lasso") == solver["columns"] == 30
    assert names.count("oos.solve_lasso") == 80 - 30
    assert names.count("oos.build_dictionary") == 1
    blocks = math.ceil((80 - 30) / oos.QUERY_CHUNK)
    assert names.count("oos.code_batch") == names.count("oos.classify_codes") == blocks
