"""End-to-end benchmark of ``subclust cluster``, with a per-layer traced mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its workload with ``subclust synth`` from ``--seed``,
then runs ``python -m subclust.cli cluster`` as a fresh process, one
invocation at a time (a closed loop with one client), until ``--seconds``
have passed. Every invocation goes through the correctness gate. The child
sees only ``src/`` of this checkout and one BLAS thread.

``--trace 0`` reports the end-to-end metrics in BENCHMARK.json. ``--trace 1``
alternates untraced invocations with invocations of ``traced_cli.py``, which
wraps each layer's entry points from outside and calls the same
``subclust.cli.main``, and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Lines before it give each metric with its unit and the
environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

K = 4
DIM = 5
SETUP_REPS = 3  # set-up is timed this many times per run; the median is reported
MIN_SAMPLES = 3  # timed invocations per run, however long each takes
# about ten times a normal call; with MIN_SAMPLES it keeps a run that hangs under 180 s
INVOCATION_TIMEOUT_S = 30.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    ambient: int
    n: int
    p: int
    algorithm: str
    corrupt_frac: float = 0.0
    oos_coding: str = "ridge"


# Why each workload exists is recorded in BENCHMARK.json. Sizes keep one
# invocation near 3 s on one core, so a 16 s run holds five to seven samples.
WORKLOADS = {
    # per-column lasso on the Gram path (p <= 2m) dominates; no lowrank
    "sssc_insample": Workload(ambient=300, n=2000, p=400, algorithm="sssc"),
    # inexact ALM with a p x p SVD per iteration; corruption exercises the
    # l21 prox and dictionary outlier exclusion; no sparse_coding
    "slrr_wide": Workload(ambient=60, n=6000, p=400, algorithm="slrr", corrupt_frac=0.05),
    # CSV ingest dominates; ridge coding of many queries, long label file
    "tall_ingest": Workload(ambient=100, n=20000, p=200, algorithm="sssc"),
    # one lasso per query over a fixed dictionary (no zero diagonal)
    "sssc_l1_oos": Workload(ambient=100, n=1600, p=200, algorithm="sssc", oos_coding="sparse"),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "accuracy": "ratio",
    "nmi": "ratio",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "dataio.load_csv_s": "s",
    "dataio.load_csv_mb_per_s": "MB/s",
    "dataio.load_labels_s": "s",
    "sparse_coding.self_rep_s": "s",
    "sparse_coding.lasso_calls": "count",
    "sparse_coding.lasso_s": "s",
    "sparse_coding.lasso_iterations": "count",
    "sparse_coding.lipschitz_calls": "count",
    "sparse_coding.lipschitz_s": "s",
    "sparse_coding.converged_ratio": "ratio",
    "lowrank.solve_s": "s",
    "lowrank.iterations": "count",
    "lowrank.s_per_iteration": "s",
    "lowrank.excluded_columns": "count",
    "spectral.affinity_s": "s",
    "spectral.laplacian_s": "s",
    "spectral.eigensolve_s": "s",
    "spectral.kmeans_s": "s",
    "oos.build_dictionary_s": "s",
    "oos.code_s": "s",
    "oos.classify_s": "s",
    "oos.queries_per_s": "1/s",
    "oos.lasso_calls": "count",
    "metrics.score_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.untimed_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here: no program to measure, or it broke."""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    report: dict | None
    labels: bytes | None
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_THREADS)
    return env


def spawn(argv: list, workdir: Path) -> tuple:
    """Run one child to completion; return (wall seconds, peak RSS MiB, exit code, stderr)."""
    err_path = workdir / "child.err"
    with open(workdir / "child.out", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def cli_argv(name: str, seed: int, workdir: Path) -> list:
    w = WORKLOADS[name]
    return [
        "cluster", "--algorithm", w.algorithm, "--input", str(workdir / "data.csv"),
        "--labels", str(workdir / "data.labels"), "--k", str(K), "--p", str(w.p),
        "--seed", str(seed), "--output", str(workdir / "report.json"),
        "--oos-coding", w.oos_coding, "--error-norm", "l21",
    ]


def invoke(argv: list, workdir: Path) -> Invocation:
    report_path, labels_path = workdir / "report.json", workdir / "report.labels"
    for stale in (report_path, labels_path):
        stale.unlink(missing_ok=True)
    wall, rss, code, stderr = spawn(argv, workdir)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    labels = labels_path.read_bytes() if labels_path.exists() else None
    return Invocation(wall, rss, code, report, labels, stderr)


def synth(name: str, seed: int, workdir: Path) -> float:
    w = WORKLOADS[name]
    points = [w.n // K + (i < w.n % K) for i in range(K)]
    argv = [
        sys.executable, "-m", "subclust.cli", "synth", "--k", str(K),
        "--ambient", str(w.ambient), "--dims", ",".join([str(DIM)] * K),
        "--points", ",".join(map(str, points)), "--noise-sigma", "0",
        "--corrupt-frac", repr(w.corrupt_frac), "--seed", str(seed),
        "--out", str(workdir / "data.csv"),
    ]
    wall, _, code, stderr = spawn(argv, workdir)
    if code != 0:
        raise BenchmarkError(f"subclust synth exited {code}: {stderr.strip()[-500:]}")
    return wall


def parse_labels(raw: bytes) -> list:
    return [int(line) for line in raw.split()]


def clean_accuracy(pred: list, truth: list) -> float:
    """Best-matching accuracy over points whose truth is >= 0 (not corrupted)."""
    pairs = Counter((t, p) for t, p in zip(truth, pred) if t >= 0)
    total = sum(pairs.values())
    best = max(
        sum(pairs[(t, perm[t])] for t in range(K)) for perm in itertools.permutations(range(K))
    )
    return best / total


def gate(inv: Invocation, reference: bytes | None, truth: list) -> list:
    """Reasons this invocation is wrong; empty when it passes.

    The paper's exact-assignment property on independent subspaces demands
    every clean point be labelled correctly, and a fixed seed demands
    byte-identical labels from run to run.
    """
    if inv.returncode != 0:
        return [f"exit code {inv.returncode}: {inv.stderr.strip()[-300:]}"]
    if inv.report is None or inv.labels is None:
        return ["no report or labels file written"]
    reasons = []
    if inv.report.get("converged") is not True:
        reasons.append("solver did not converge")
    if reference is not None and inv.labels != reference:
        reasons.append("labels differ from the first invocation at this seed")
    pred = parse_labels(inv.labels)
    if len(pred) != len(truth):
        return reasons + [f"{len(pred)} labels for {len(truth)} points"]
    accuracy = clean_accuracy(pred, truth)
    if accuracy < 1.0:
        reasons.append(f"clean-point accuracy {accuracy:.6f} < 1")
    return reasons


def self_check(planted_exit: Invocation, good: Invocation | None, truth: list, workdir: Path) -> None:
    """The gate must fail a nonzero exit and, given a passing invocation,
    a copy of its labels file with one clean point relabelled."""
    planted = [planted_exit]
    if good is not None:
        wrong = parse_labels(good.labels)
        clean = next(i for i, t in enumerate(truth) if t >= 0)
        wrong[clean] = (wrong[clean] + 1) % K
        wrong_path = workdir / "wrong.labels"
        wrong_path.write_text("".join(f"{v}\n" for v in wrong))
        planted.append(
            Invocation(good.wall_s, good.peak_rss_mb, 0, good.report, wrong_path.read_bytes(), "")
        )
    counted = sum(bool(gate(inv, good.labels if good else None, truth)) for inv in planted)
    if counted != len(planted):
        raise BenchmarkError(f"self-check: the gate counted {counted} of {len(planted)} planted failures")
    print(f"self-check: gate counted {counted} of {len(planted)} planted failures")


def environment(name: str, workdir: Path) -> dict:
    probe = """if True:
        import json, platform, numpy, scipy
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # numpy < 1.26 has no dict form
            blas = {}
        print(json.dumps({
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
        }))
    """
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
        timeout=INVOCATION_TIMEOUT_S, check=True,
    )
    env = json.loads(out.stdout)
    env.update(
        blas_threads=BLAS_THREADS,
        nproc=len(os.sched_getaffinity(0)),
        workload=name,
        csv_bytes=(workdir / "data.csv").stat().st_size,
    )
    return env


def set_up(name: str, seed: int, workdir: Path, reps: int) -> tuple:
    """Generate the workload ``reps`` times; return (set-up times, problems)."""
    times, digests = [], set()
    for _ in range(reps):
        times.append(synth(name, seed, workdir))
        digests.add(hashlib.sha256((workdir / "data.csv").read_bytes()).digest())
    problems = [] if len(digests) == 1 else ["subclust synth is not deterministic in its seed"]
    return times, problems


def span_totals(trace: dict) -> tuple:
    """Per span name: (calls, seconds), plus the self time of ``cli.main``."""
    calls, seconds = Counter(), Counter()
    child_seconds = Counter()
    for name, parent, start, end in trace["spans"]:
        calls[name] += 1
        seconds[name] += end - start
        if parent >= 0:
            child_seconds[parent] += end - start
    main_index = next(i for i, span in enumerate(trace["spans"]) if span[0] == "cli.main")
    main_self = seconds["cli.main"] - child_seconds[main_index]
    return calls, seconds, main_self


def layer_metrics(trace: dict, report: dict, name: str, csv_bytes: int) -> dict:
    w = WORKLOADS[name]
    calls, sec, main_self = span_totals(trace)
    counts = trace["counts"]
    lasso_calls = calls["sparse_coding.solve_lasso"]
    lrr_iterations = calls["lowrank.l21_shrink"]
    oos_busy = sec["oos.code_batch"] + sec["oos.classify_codes"]
    return {
        "dataio.load_csv_s": sec["dataio.load_csv"],
        "dataio.load_csv_mb_per_s": csv_bytes / 1e6 / sec["dataio.load_csv"],
        "dataio.load_labels_s": sec["dataio.load_labels"],
        "sparse_coding.self_rep_s": sec["cli.sparse_self_representation"],
        "sparse_coding.lasso_calls": lasso_calls,
        "sparse_coding.lasso_s": sec["sparse_coding.solve_lasso"],
        "sparse_coding.lasso_iterations": counts["sparse_coding.lasso_iterations"],
        "sparse_coding.lipschitz_calls": calls["sparse_coding.spectral_norm_sq"],
        "sparse_coding.lipschitz_s": sec["sparse_coding.spectral_norm_sq"],
        # 0 when the workload solves no in-sample lasso
        "sparse_coding.converged_ratio": (
            counts["sparse_coding.lasso_converged"] / lasso_calls if lasso_calls else 0.0
        ),
        "lowrank.solve_s": sec["cli.solve_lrr"],
        "lowrank.iterations": lrr_iterations,
        "lowrank.s_per_iteration": (
            sec["cli.solve_lrr"] / lrr_iterations if lrr_iterations else 0.0
        ),
        "lowrank.excluded_columns": counts["lowrank.flagged_columns"],
        "spectral.affinity_s": sec["spectral.build_affinity"],
        "spectral.laplacian_s": sec["spectral.normalized_laplacian"],
        "spectral.eigensolve_s": sec["spectral.smallest_eigenvectors"],
        "spectral.kmeans_s": sec["spectral.kmeans"],
        "oos.build_dictionary_s": sec["oos.build_dictionary"],
        "oos.code_s": sec["oos.code_batch"],
        "oos.classify_s": sec["oos.classify_codes"],
        "oos.queries_per_s": (w.n - w.p) / oos_busy if oos_busy else 0.0,
        "oos.lasso_calls": calls["oos.solve_lasso"],
        "metrics.score_s": sec["metrics.accuracy"] + sec["metrics.nmi"],
        "cli.import_s": trace["import_s"],
        "cli.self_s": main_self,
        "cli.untimed_s": sec["cli.main"] - report["total_seconds"],
    }


def cross_check(layers: dict, report: dict, name: str) -> list:
    """Traced counts that must equal the report's solver statistics."""
    w = WORKLOADS[name]
    solver = report["solver"]
    expected = {"oos.lasso_calls": w.n - w.p if w.oos_coding == "sparse" else 0}
    if solver["type"] == "lasso":
        expected["sparse_coding.lasso_calls"] = solver["columns"]
    else:
        expected["lowrank.iterations"] = solver["iterations"]
    return [
        f"traced {key} = {layers[key]}, report says {value}"
        for key, value in expected.items()
        if layers[key] != value
    ]


def score(inv: Invocation, key: str) -> float:
    """The report's score against the truth sidecar; 0 when there is none."""
    return float((inv.report or {}).get(key) or 0.0)


def median_of(rows: list, key: str) -> float:
    return statistics.median(row[key] for row in rows)


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "subclust" / "cli.py").is_file():
        raise BenchmarkError(f"no subclust sources under {SRC}")
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times, problems = set_up(name, seed, workdir, 1 if traced else SETUP_REPS)
    truth = parse_labels((workdir / "data.labels").read_bytes())
    env = environment(name, workdir)
    print("env " + json.dumps(env, sort_keys=True))

    argv = cli_argv(name, seed, workdir)
    plain = [sys.executable, "-m", "subclust.cli", *argv]
    trace_path = workdir / "trace.json"
    tracing = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *argv]

    # a planted failure (missing input file) for the self-check; it also
    # compiles bytecode, which users do not pay on every call, before timing
    planted = cli_argv(name, seed, workdir)
    planted[planted.index("--input") + 1] = str(workdir / "missing.csv")
    planted_exit = invoke([sys.executable, "-m", "subclust.cli", *planted], workdir)

    untraced, passed, traced_rows, attempted, failed = [], [], [], 0, 0
    reference = None  # labels of the first invocation at this seed
    deadline = time.perf_counter() + seconds
    while True:
        for is_traced in ((False, True) if traced else (False,)):
            trace_path.unlink(missing_ok=True)
            inv = invoke(tracing if is_traced else plain, workdir)
            attempted += 1
            reasons = gate(inv, reference, truth)
            reference = reference or inv.labels
            if is_traced and not reasons:
                layers = layer_metrics(
                    json.loads(trace_path.read_text()), inv.report, name, env["csv_bytes"]
                )
                reasons = cross_check(layers, inv.report, name)
                layers["wall_s"] = inv.wall_s
                traced_rows.append(layers)
            if reasons:
                failed += 1
                problems.extend(reasons)
                print(f"invocation {attempted} failed: {'; '.join(reasons)}", file=sys.stderr)
            if not is_traced:
                untraced.append(inv)
                if not reasons:
                    passed.append(inv)
        if time.perf_counter() >= deadline and attempted >= MIN_SAMPLES:
            break
    if traced and not traced_rows:
        raise BenchmarkError(f"no traced invocation passed the gate: {problems[:3]}")
    self_check(planted_exit, passed[0] if passed else None, truth, workdir)

    # timings come from the invocations that passed; if none did, the run
    # still reports what it measured, with correct false
    timed = passed or untraced
    wall = statistics.median(inv.wall_s for inv in timed)
    print(f"samples {len(timed)} untraced, {len(traced_rows)} traced; attempted {attempted}, "
          f"failed {failed} (failed_frac {failed / attempted:.4f})")
    print("untraced walls " + " ".join(f"{inv.wall_s:.3f}" for inv in timed))
    if traced:
        metrics = {key: median_of(traced_rows, key) for key in PER_LAYER_UNITS if key in traced_rows[0]}
        metrics["bench.trace_overhead_frac"] = median_of(traced_rows, "wall_s") / wall - 1.0
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "points_per_s": WORKLOADS[name].n / wall,
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in timed),
            "setup_s": statistics.median(setup_times),
            "accuracy": statistics.median(score(inv, "accuracy") for inv in timed),
            "nmi": statistics.median(score(inv, "nmi") for inv in timed),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
