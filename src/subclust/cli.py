"""Command-line front end: synth, cluster, bench, eval.

The clustering pipeline runs "sampling, clustering, coding, classifying":
split the data, cluster the in-sample part with SSC or LRR plus spectral
clustering, then assign every out-of-sample point by linear coding over the
in-sample dictionary and minimal regularized residual. ``ssc`` and ``lrr``
run the whole-data pipelines instead (only feasible at small n).

For ``sssc``/``ssc`` the --lambda flag is the l1 weight of the coding
objective (1/2)||y - Dc||^2 + lambda ||c||_1; for ``slrr``/``lrr`` it
balances the error term of the low-rank program. Exit codes: 0 success,
1 usage error, 2 data error, 3 solver non-convergence (report still
written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, metrics, oos, spectral
from .errors import DataFormatError, SubclustError
from .lowrank import LrrConfig, outlier_columns, solve_lrr
from .sparse_coding import SparseSelfRepConfig, sparse_self_representation
from .types import ClusterAssignment, DataMatrix

ALGORITHMS = ("sssc", "slrr", "ssc", "lrr")

DEFAULTS = {
    "delta": 1e-3,
    "gamma": 1e-6,
    "error_norm": "l21",
    "restarts": 20,
    "kkt_tol": 1e-4,
    "lasso_max_iterations": 20000,
    "lrr_max_iterations": 500,
    "constraint_tol": 1e-7,
    "mu_init": 1e-2,
    "rho": 1.5,
    "mu_max": 1e10,
    "oos_coding": "ridge",
    "row_normalize": True,
    "pca_energy": None,
    "max_full_n": 3000,
    "has_header": False,
}
# --lambda defaults depend on the algorithm (sparse weight vs. LRR balance)
LAMBDA_DEFAULTS = {"sssc": 1e-5, "ssc": 1e-5, "slrr": 1.0, "lrr": 1.0}


class UsageError(SubclustError, ValueError):
    """Bad flag combinations discovered after parsing."""


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    k: int
    p: int | None
    seed: int
    lam: float
    delta: float
    gamma: float
    error_norm: str
    restarts: int
    kkt_tol: float
    lasso_max_iterations: int
    lrr_max_iterations: int
    constraint_tol: float
    mu_init: float
    rho: float
    mu_max: float
    oos_coding: str
    row_normalize: bool
    pca_energy: float | None
    max_full_n: int
    input: str | None
    labels: str | None
    output: str | None
    has_header: bool


@dataclass
class RunReport:
    labels: ClusterAssignment
    stage_seconds: dict
    total_seconds: float
    converged: bool
    solver: dict
    config: RunConfig
    accuracy: float | None = None
    nmi: float | None = None
    excluded_columns: list | None = None

    def to_json_dict(self, labels_file=None) -> dict:
        cfg = self.config
        return {
            "schema": "subclust-report-v1",
            "algorithm": cfg.algorithm,
            "n": self.labels.n,
            "k": cfg.k,
            "p": cfg.p,
            "seed": cfg.seed,
            "parameters": {
                "lambda": cfg.lam,
                "delta": cfg.delta,
                "gamma": cfg.gamma,
                "error_norm": cfg.error_norm,
                "restarts": cfg.restarts,
                "kkt_tol": cfg.kkt_tol,
                "lasso_max_iterations": cfg.lasso_max_iterations,
                "lrr_max_iterations": cfg.lrr_max_iterations,
                "constraint_tol": cfg.constraint_tol,
                "oos_coding": cfg.oos_coding,
                "row_normalize": cfg.row_normalize,
                "pca_energy": cfg.pca_energy,
            },
            "stage_seconds": self.stage_seconds,
            "total_seconds": self.total_seconds,
            "converged": self.converged,
            "solver": self.solver,
            "excluded_dictionary_columns": self.excluded_columns or [],
            "accuracy": self.accuracy,
            "nmi": self.nmi,
            "labels_file": str(labels_file) if labels_file else None,
        }


def _lasso_config(cfg: RunConfig) -> SparseSelfRepConfig:
    # the CLI lambda is the effective l1 weight; the solver takes the
    # fidelity weight of lam*||y - Dc||^2 + ||c||_1, i.e. 1/(2*lambda)
    return SparseSelfRepConfig(
        lam=1.0 / (2.0 * cfg.lam),
        delta=cfg.delta,
        max_iterations=cfg.lasso_max_iterations,
        kkt_tol=cfg.kkt_tol,
    )


def _lrr_config(cfg: RunConfig) -> LrrConfig:
    return LrrConfig(
        lam=cfg.lam,
        error_norm=cfg.error_norm,
        mu_init=cfg.mu_init,
        rho=cfg.rho,
        mu_max=cfg.mu_max,
        constraint_tol=cfg.constraint_tol,
        max_iterations=cfg.lrr_max_iterations,
    )


def run_pipeline(cfg: RunConfig, data: DataMatrix, truth: ClusterAssignment | None = None) -> RunReport:
    """Run the configured pipeline on an in-memory matrix."""
    # solver knobs are checked before any solve, so a bad value is a
    # one-line usage error instead of a traceback from deep inside a solver
    if not cfg.lam > 0:
        raise UsageError(f"--lambda must be positive, got {cfg.lam}")
    try:
        lasso_cfg = _lasso_config(cfg)
        lrr_cfg = _lrr_config(cfg) if cfg.algorithm in ("slrr", "lrr") else None
    except ValueError as exc:
        raise UsageError(f"invalid solver setting: {exc}") from None
    if not cfg.gamma > 0:
        raise UsageError(f"--gamma must be positive, got {cfg.gamma}")
    if cfg.restarts < 1:
        raise UsageError(f"--restarts must be >= 1, got {cfg.restarts}")
    if cfg.pca_energy is not None:
        if not 0.0 < cfg.pca_energy <= 1.0:
            raise UsageError(f"--pca-energy must lie in (0, 1], got {cfg.pca_energy}")
        data = dataio.pca_retain_energy(data, cfg.pca_energy)
    n = data.n
    full_data = cfg.algorithm in ("ssc", "lrr")
    if full_data:
        if n > cfg.max_full_n:
            raise UsageError(
                f"{cfg.algorithm} clusters the whole data set and is capped at "
                f"n <= {cfg.max_full_n} (got n={n}); use {'s' + cfg.algorithm} "
                f"with --p, or raise --max-full-n"
            )
        p = n
    else:
        if cfg.p is None:
            raise UsageError(f"--p is required for algorithm {cfg.algorithm}")
        p = cfg.p
        if not 1 <= p <= n:
            raise UsageError(f"--p must lie in [1, {n}], got {p}")
    if p < 2:
        raise UsageError(f"self-representation needs at least 2 in-sample points, got {p}")
    if not 1 <= cfg.k <= p:
        raise UsageError(
            f"--k must lie in [1, {p}], the number of in-sample points, got {cfg.k}"
        )

    t0 = time.perf_counter()
    split = dataio.uniform_split(n, p, cfg.seed)
    t_sampling = time.perf_counter()

    X = DataMatrix(data.values[:, split.in_sample])
    solver: dict = {}
    excluded: list = []
    lrr_error = None
    if cfg.algorithm in ("sssc", "ssc"):
        C, reports = sparse_self_representation(X, lasso_cfg, return_reports=True)
        n_conv = sum(r.converged for r in reports)
        solver = {
            "type": "lasso",
            "columns": len(reports),
            "converged_columns": n_conv,
            "mean_iterations": float(np.mean([r.iterations for r in reports])),
            "max_residual": float(max(r.residual_norm for r in reports)),
        }
        converged = n_conv == len(reports)
    else:
        solution = solve_lrr(X, lrr_cfg)
        C = solution.C
        lrr_error = solution.E
        solver = {
            "type": "lrr",
            "iterations": solution.report.iterations,
            "objective": solution.report.objective,
            "residual": solution.report.residual_norm,
        }
        converged = solution.report.converged
    labels_in = spectral.spectral_cluster(
        C, cfg.k, restarts=cfg.restarts, seed=cfg.seed,
        row_normalize=cfg.row_normalize,
    )
    t_insample = time.perf_counter()

    labels = np.empty(n, dtype=int)
    labels[split.in_sample] = labels_in.labels
    t_coding = t_insample
    t_classifying = t_insample
    if split.out_of_sample.size:
        keep = np.arange(p)
        if cfg.algorithm == "slrr" and lrr_error is not None:
            # drop corrupted in-sample columns from the dictionary; the floor
            # keeps solver noise from flagging columns on clean data
            floor = 1e-3 * float(np.median(np.linalg.norm(X.values, axis=0)))
            flagged = outlier_columns(lrr_error, floor=floor)
            if 0 < flagged.size < p:
                keep = np.setdiff1d(keep, flagged)
                excluded = split.in_sample[flagged].tolist()
        dictionary = oos.build_dictionary(
            DataMatrix(X.values[:, keep]),
            ClusterAssignment(labels_in.labels[keep], cfg.k),
            gamma=cfg.gamma,
        )
        Xbar = data.values[:, split.out_of_sample]
        regularized = cfg.oos_coding == "ridge"
        codes = oos.code_batch(
            dictionary, Xbar, mode=cfg.oos_coding,
            delta=cfg.delta, cfg=lasso_cfg,
        )
        t_coding = time.perf_counter()
        labels_out = oos.classify_codes(dictionary, Xbar, codes, regularized=regularized)
        t_classifying = time.perf_counter()
        labels[split.out_of_sample] = labels_out.labels

    assignment = ClusterAssignment(labels, cfg.k)
    total = time.perf_counter() - t0
    report = RunReport(
        labels=assignment,
        stage_seconds={
            "sampling": t_sampling - t0,
            "insample_clustering": t_insample - t_sampling,
            "coding": t_coding - t_insample,
            "classifying": t_classifying - t_coding,
        },
        total_seconds=total,
        converged=converged,
        solver=solver,
        config=cfg,
        excluded_columns=excluded,
    )
    if truth is not None:
        if truth.n != n:
            raise DataFormatError(
                f"truth has {truth.n} labels for {n} samples"
            )
        report.accuracy = metrics.accuracy(assignment, truth)
        report.nmi = metrics.nmi(assignment, truth)
    return report


# ---------------------------------------------------------------------------
# subcommands


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")


def cmd_synth(args) -> int:
    dims = [int(x) for x in args.dims.split(",")]
    points = [int(x) for x in args.points.split(",")]
    dataset = dataio.synth_subspaces(
        k=args.k, ambient=args.ambient, dim_per=dims, points_per=points,
        noise_sigma=args.noise_sigma, corrupt_frac=args.corrupt_frac,
        seed=args.seed,
    )
    out = Path(args.out)
    np.savetxt(out, dataset.data.values.T, fmt="%.17g", delimiter=",")
    labels = dataset.truth.labels.copy()
    labels[dataset.corrupted] = -1  # corrupted columns are marked -1
    labels_path = Path(args.labels_out) if args.labels_out else out.with_suffix(".labels")
    _write_labels(labels_path, labels)
    print(f"wrote {dataset.data.n} samples to {out} and labels to {labels_path}")
    return 0


def _merge_config(args) -> RunConfig:
    merged = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise DataFormatError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DataFormatError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS) - {
            "algorithm", "k", "p", "seed", "lambda", "input", "labels", "output",
        }
        if unknown:
            raise UsageError(f"unknown config file keys: {sorted(unknown)}")
        merged.update(file_cfg)

    # explicit flags win over the config file
    for key in (
        "algorithm", "k", "p", "seed", "delta", "gamma", "error_norm",
        "restarts", "kkt_tol", "lasso_max_iterations", "lrr_max_iterations",
        "constraint_tol", "mu_init", "rho", "mu_max", "oos_coding",
        "row_normalize", "pca_energy", "max_full_n", "input", "labels",
        "output", "has_header",
    ):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "lam", None) is not None:
        merged["lambda"] = args.lam

    for key in ("algorithm", "k", "seed", "input", "output"):
        if merged.get(key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    if merged["algorithm"] not in ALGORITHMS:
        raise UsageError(f"algorithm must be one of {ALGORITHMS}")
    if "lambda" not in merged or merged["lambda"] is None:
        merged["lambda"] = LAMBDA_DEFAULTS[merged["algorithm"]]

    return RunConfig(
        algorithm=merged["algorithm"],
        k=int(merged["k"]),
        p=int(merged["p"]) if merged.get("p") is not None else None,
        seed=int(merged["seed"]),
        lam=float(merged["lambda"]),
        delta=float(merged["delta"]),
        gamma=float(merged["gamma"]),
        error_norm=str(merged["error_norm"]),
        restarts=int(merged["restarts"]),
        kkt_tol=float(merged["kkt_tol"]),
        lasso_max_iterations=int(merged["lasso_max_iterations"]),
        lrr_max_iterations=int(merged["lrr_max_iterations"]),
        constraint_tol=float(merged["constraint_tol"]),
        mu_init=float(merged["mu_init"]),
        rho=float(merged["rho"]),
        mu_max=float(merged["mu_max"]),
        oos_coding=str(merged["oos_coding"]),
        row_normalize=bool(merged["row_normalize"]),
        pca_energy=(
            float(merged["pca_energy"]) if merged["pca_energy"] is not None else None
        ),
        max_full_n=int(merged["max_full_n"]),
        input=str(merged["input"]),
        labels=str(merged["labels"]) if merged.get("labels") else None,
        output=str(merged["output"]),
        has_header=bool(merged["has_header"]),
    )


def cmd_cluster(args) -> int:
    cfg = _merge_config(args)
    data = dataio.load_csv(cfg.input, has_header=cfg.has_header)
    truth = None
    if cfg.labels:
        raw = dataio.load_labels(cfg.labels)
        if raw.size != data.n:
            raise DataFormatError(
                f"label file has {raw.size} entries for {data.n} samples"
            )
        truth = dataio.labels_to_assignment(raw)

    report = run_pipeline(cfg, data, truth)

    out = Path(cfg.output)
    labels_path = out.with_suffix(".labels")
    _write_labels(labels_path, report.labels.labels)
    with open(out, "w") as fh:
        json.dump(report.to_json_dict(labels_file=labels_path), fh, indent=2)
        fh.write("\n")
    summary = {
        "accuracy": report.accuracy,
        "nmi": report.nmi,
        "total_seconds": round(report.total_seconds, 4),
        "converged": report.converged,
    }
    print(json.dumps(summary))
    if not report.converged:
        print("warning: solver did not converge; report written anyway", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args) -> int:
    """Time each stage of the sampled pipeline across problem sizes.

    ``classification_seconds`` is the per-query work (coding + residual
    classification), excluding the n-independent dictionary factorization;
    the log-log slope of that time against n checks the linear-in-n claim.
    The stage is re-timed ``--repeats`` times and the minimum is kept.
    """
    ns = sorted(set(args.n))
    if args.p > min(ns):
        raise UsageError(f"--p {args.p} exceeds the smallest n {min(ns)}")
    if args.k > args.p:
        raise UsageError("--k cannot exceed --p")
    lam = args.lam if args.lam is not None else LAMBDA_DEFAULTS[args.algorithm]

    runs = []
    for n in ns:
        points = [n // args.k] * args.k
        for i in range(n - sum(points)):
            points[i] += 1
        dataset = dataio.synth_subspaces(
            k=args.k, ambient=args.ambient, dim_per=[args.dim] * args.k,
            points_per=points, seed=args.seed,
        )
        data = dataset.data

        t0 = time.perf_counter()
        split = dataio.uniform_split(n, args.p, args.seed)
        t_split = time.perf_counter()
        X = DataMatrix(data.values[:, split.in_sample])
        if args.algorithm == "sssc":
            cfg = SparseSelfRepConfig(
                lam=1.0 / (2.0 * lam), delta=DEFAULTS["delta"],
                kkt_tol=DEFAULTS["kkt_tol"],
            )
            C = sparse_self_representation(X, cfg)
        else:
            C = solve_lrr(X, LrrConfig(lam=lam)).C
        labels_in = spectral.spectral_cluster(C, args.k, seed=args.seed)
        t_insample = time.perf_counter()
        dictionary = oos.build_dictionary(X, labels_in, gamma=DEFAULTS["gamma"])
        t_build = time.perf_counter()
        Xbar = data.values[:, split.out_of_sample]
        codes = oos.code_batch(dictionary, Xbar)
        labels_out = oos.classify_codes(dictionary, Xbar, codes)
        t_classify = time.perf_counter()

        classification = t_classify - t_build
        for _ in range(max(args.repeats - 1, 0)):
            t1 = time.perf_counter()
            codes = oos.code_batch(dictionary, Xbar)
            oos.classify_codes(dictionary, Xbar, codes)
            classification = min(classification, time.perf_counter() - t1)

        labels = np.empty(n, dtype=int)
        labels[split.in_sample] = labels_in.labels
        labels[split.out_of_sample] = labels_out.labels
        acc = metrics.accuracy(ClusterAssignment(labels, args.k), dataset.truth)
        runs.append(
            {
                "n": n,
                "accuracy": acc,
                "sampling_seconds": t_split - t0,
                "insample_seconds": t_insample - t_split,
                "dictionary_seconds": t_build - t_insample,
                "classification_seconds": classification,
                "total_seconds": t_classify - t0,
            }
        )

    slope = None
    if len(runs) >= 2:
        xs = np.log([r["n"] for r in runs])
        ys = np.log([max(r["classification_seconds"], 1e-9) for r in runs])
        slope = float(np.polyfit(xs, ys, 1)[0])

    result = {
        "schema": "subclust-bench-v1",
        "algorithm": args.algorithm,
        "p": args.p,
        "k": args.k,
        "ambient": args.ambient,
        "repeats": args.repeats,
        "runs": runs,
        "classification_slope": slope,
    }
    print(f"{'n':>8} {'in-sample(s)':>13} {'classify(s)':>12} {'total(s)':>10} {'acc':>6}")
    for r in runs:
        print(
            f"{r['n']:>8} {r['insample_seconds']:>13.4f} "
            f"{r['classification_seconds']:>12.4f} {r['total_seconds']:>10.4f} "
            f"{r['accuracy']:>6.3f}"
        )
    if slope is not None:
        print(f"log-log slope of classification time vs n: {slope:.3f}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_eval(args) -> int:
    pred_raw = dataio.load_labels(args.pred)
    truth_raw = dataio.load_labels(args.truth)
    if pred_raw.size != truth_raw.size:
        raise DataFormatError(
            f"label files have different lengths: {pred_raw.size} vs {truth_raw.size}"
        )
    pred = dataio.labels_to_assignment(pred_raw)
    truth = dataio.labels_to_assignment(truth_raw)
    print(
        json.dumps(
            {"accuracy": metrics.accuracy(pred, truth), "nmi": metrics.nmi(pred, truth)}
        )
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic union-of-subspaces CSV")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ambient", type=int, required=True)
    sp.add_argument("--dims", required=True, help="comma list of subspace dims")
    sp.add_argument("--points", required=True, help="comma list of points per subspace")
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--corrupt-frac", type=float, default=0.0)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--labels-out")
    sp.set_defaults(func=lambda a: cmd_synth(a))

    cl = sub.add_parser("cluster", help="cluster a CSV and write a JSON report")
    cl.add_argument("--algorithm", choices=ALGORITHMS)
    cl.add_argument("--input")
    cl.add_argument("--has-header", action=argparse.BooleanOptionalAction, default=None)
    cl.add_argument("--labels", help="optional truth sidecar for accuracy/NMI")
    cl.add_argument("--k", type=int)
    cl.add_argument("--p", type=int)
    cl.add_argument("--seed", type=int)
    cl.add_argument("--lambda", dest="lam", type=float)
    cl.add_argument("--delta", type=float)
    cl.add_argument("--gamma", type=float)
    cl.add_argument("--error-norm", choices=("l21", "l1", "fro"))
    cl.add_argument("--restarts", type=int)
    cl.add_argument("--kkt-tol", type=float)
    cl.add_argument("--lasso-max-iterations", type=int)
    cl.add_argument("--lrr-max-iterations", type=int)
    cl.add_argument("--constraint-tol", type=float)
    cl.add_argument("--mu-init", type=float)
    cl.add_argument("--rho", type=float)
    cl.add_argument("--mu-max", type=float)
    cl.add_argument("--oos-coding", choices=("ridge", "sparse"))
    cl.add_argument(
        "--row-normalize", action=argparse.BooleanOptionalAction, default=None
    )
    cl.add_argument("--pca-energy", type=float)
    cl.add_argument("--max-full-n", type=int)
    cl.add_argument("--config", help="JSON config file (flags override it)")
    cl.add_argument("--output")
    cl.set_defaults(func=lambda a: cmd_cluster(a))

    be = sub.add_parser("bench", help="classification-time scaling benchmark")
    be.add_argument("--n", type=int, nargs="+", required=True)
    be.add_argument("--p", type=int, required=True)
    be.add_argument("--k", type=int, default=4)
    be.add_argument("--ambient", type=int, default=500)
    be.add_argument("--dim", type=int, default=5)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--repeats", type=int, default=10)
    be.add_argument("--algorithm", choices=("sssc", "slrr"), default="sssc")
    be.add_argument("--lambda", dest="lam", type=float)
    be.add_argument("--output")
    be.set_defaults(func=lambda a: cmd_bench(a))

    ev = sub.add_parser("eval", help="accuracy and NMI between two label files")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.set_defaults(func=lambda a: cmd_eval(a))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"subclust: error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"subclust: data error: {exc}", file=sys.stderr)
        return 2
    except SubclustError as exc:
        print(f"subclust: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
