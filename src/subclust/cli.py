"""Command-line front end: synth, cluster, bench, eval.

The clustering pipeline runs "sampling, clustering, coding, classifying".
``fit`` splits the data, clusters the in-sample part with SSC or LRR plus
spectral clustering and builds the out-of-sample dictionary; ``assign``
codes points over it and labels each by its minimal regularized residual.
``run_pipeline`` is ``fit`` then ``assign``; ``cluster`` and ``bench`` run
it, and ``bench`` then times ``assign`` again on the same fit. ``ssc`` and
``lrr`` are ``sssc`` and ``slrr`` with p = n.

``RunConfig`` is the one list of knobs: the ``cluster`` flags, the config
file keys with their type and choice checks, and the report's
``parameters`` are derived from its fields. For ``sssc``/``ssc`` the
--lambda flag is the l1 weight of the coding objective
(1/2)||y - Dc||^2 + lambda ||c||_1, the same number the lasso solver takes;
for ``slrr``/``lrr`` it balances the error term of the low-rank program.
Exit codes: 0 success, 1 usage error, 2 data error, 3 solver
non-convergence (report still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import dataio, metrics, oos, spectral
from .errors import DataFormatError, SubclustError
from .lowrank import ERROR_NORMS, LrrConfig, outlier_columns, solve_lrr
from .sparse_coding import SparseSelfRepConfig, sparse_self_representation
from .types import ClusterAssignment, DataMatrix

ALGORITHMS = ("sssc", "slrr", "ssc", "lrr")
# --lambda defaults depend on the algorithm (sparse weight vs. LRR balance)
LAMBDA_DEFAULTS = {"sssc": 1e-5, "ssc": 1e-5, "slrr": 1.0, "lrr": 1.0}


class UsageError(SubclustError, ValueError):
    """Bad flag combinations discovered after parsing."""


def _knob(default=MISSING, **metadata):
    """A RunConfig field. ``metadata`` may hold ``key`` (the config-file key
    and flag name, when not the field name), ``choices``, ``minimum``,
    ``help``, and ``role``: "identity" fields head the report, "io" fields
    stay out of it, every other field is listed under ``parameters``."""
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Every knob of ``subclust cluster``, each with its default.

    The ``cluster`` flags, the config-file keys, their type and choice
    checks and the report's ``parameters`` are all derived from these
    fields. A field without a default must be given. ``lam`` left as None
    takes the per-algorithm default in LAMBDA_DEFAULTS.
    """

    algorithm: str = _knob(choices=ALGORITHMS, role="identity")
    k: int = _knob(role="identity")
    p: int | None = _knob(None, role="identity")
    seed: int = _knob(role="identity", minimum=0)
    lam: float | None = _knob(None, key="lambda")
    delta: float = 1e-3
    gamma: float = 1e-6
    error_norm: str = _knob("l21", choices=ERROR_NORMS)
    restarts: int = _knob(20, minimum=1)
    kkt_tol: float = 1e-4
    lasso_max_iterations: int = 20000
    lrr_max_iterations: int = 500
    constraint_tol: float = 1e-7
    oos_coding: str = _knob("ridge", choices=oos.CODING_MODES)
    row_normalize: bool = True
    pca_energy: float | None = None
    mu_init: float = 1e-2
    rho: float = 1.5
    mu_max: float = 1e10
    input: str | None = _knob(role="io")
    labels: str | None = _knob(None, role="io", help="optional truth sidecar for accuracy/NMI")
    output: str | None = _knob(role="io")
    has_header: bool = _knob(False, role="io")

    def __post_init__(self):
        if self.lam is None:
            object.__setattr__(self, "lam", LAMBDA_DEFAULTS[self.algorithm])


def _key(f) -> str:
    """The config-file key of a RunConfig field."""
    return f.metadata.get("key", f.name)


def _flag(f) -> str:
    """The ``cluster`` flag of a RunConfig field."""
    return "--" + _key(f).replace("_", "-")


_HINTS = get_type_hints(RunConfig)


def _kind(f) -> tuple:
    """(base type, whether None is allowed) of a RunConfig field."""
    hint = _HINTS[f.name]
    args = get_args(hint)
    base = next((t for t in args if t is not type(None)), hint)
    return base, type(None) in args


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _checked(f, value, name: str):
    """``value`` for field ``f``, checked against its type, choices and
    minimum; ``name`` says where it came from in the error message."""
    base, optional = _kind(f)
    if value is None and optional:
        return None
    if isinstance(value, bool) != (base is bool):  # bool is a subclass of int
        ok = False
    elif base is float:
        try:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
    else:
        ok = isinstance(value, base)
    if not ok:
        raise UsageError(f"{name} must be {_KIND_NAMES[base]}, got {value!r}")
    choices = f.metadata.get("choices")
    if choices and value not in choices:
        raise UsageError(f"{name} must be one of {choices}, got {value!r}")
    minimum = f.metadata.get("minimum")
    if minimum is not None and value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value!r}")
    return float(value) if base is float else value


@dataclass
class Model:
    """What ``fit`` learns from the in-sample points; ``assign`` labels
    further points against it. ``dictionary`` is None when p = n."""

    config: RunConfig
    split: dataio.SampleSplit
    labels: np.ndarray  # of the in-sample points, in split.in_sample order
    dictionary: oos.ClassDictionary | None
    lasso_cfg: SparseSelfRepConfig
    solver: dict
    converged: bool
    excluded_columns: list
    stage_seconds: dict


@dataclass
class RunReport:
    labels: ClusterAssignment
    stage_seconds: dict
    total_seconds: float
    model: Model
    accuracy: float | None = None
    nmi: float | None = None

    def to_json_dict(self, labels_file=None) -> dict:
        model = self.model
        cfg = model.config
        return {
            "schema": "subclust-report-v1",
            "algorithm": cfg.algorithm,
            "n": self.labels.n,
            "k": cfg.k,
            "p": model.split.p,
            "seed": cfg.seed,
            "parameters": {
                _key(f): getattr(cfg, f.name)
                for f in fields(RunConfig) if "role" not in f.metadata
            },
            "stage_seconds": self.stage_seconds,
            "total_seconds": self.total_seconds,
            "converged": model.converged,
            "solver": model.solver,
            "excluded_dictionary_columns": model.excluded_columns,
            "accuracy": self.accuracy,
            "nmi": self.nmi,
            "labels_file": str(labels_file) if labels_file else None,
        }


def fit(cfg: RunConfig, data: DataMatrix) -> Model:
    """Sample p columns of ``data``, cluster them and build the dictionary
    that the other n - p columns are assigned against."""
    # solver knobs are checked before any solve, so a bad value is a
    # one-line usage error instead of a traceback from deep inside a solver
    sparse = cfg.algorithm in ("sssc", "ssc")
    try:
        lasso_cfg = SparseSelfRepConfig(
            lam=cfg.lam,
            delta=cfg.delta,
            max_iterations=cfg.lasso_max_iterations,
            kkt_tol=cfg.kkt_tol,
        )
        lrr_cfg = None if sparse else LrrConfig(
            lam=cfg.lam,
            error_norm=cfg.error_norm,
            mu_init=cfg.mu_init,
            rho=cfg.rho,
            mu_max=cfg.mu_max,
            constraint_tol=cfg.constraint_tol,
            max_iterations=cfg.lrr_max_iterations,
        )
    except ValueError as exc:
        raise UsageError(f"invalid solver setting: {exc}") from None
    if not cfg.gamma > 0:
        raise UsageError(f"--gamma must be positive, got {cfg.gamma}")
    n = data.n
    # ssc and lrr are sssc and slrr on the whole data set
    p = n if cfg.algorithm in ("ssc", "lrr") else cfg.p
    if p is None:
        raise UsageError(f"--p is required for algorithm {cfg.algorithm}")
    if not 2 <= p <= n:  # self-representation needs two in-sample points
        raise UsageError(f"--p must lie in [2, {n}], got {p}")
    if not 1 <= cfg.k <= p:
        raise UsageError(
            f"--k must lie in [1, {p}], the number of in-sample points, got {cfg.k}"
        )

    t0 = time.perf_counter()
    split = dataio.uniform_split(n, p, cfg.seed)
    t_sampling = time.perf_counter()

    X = DataMatrix(data.values[:, split.in_sample])
    if sparse:
        C, reports = sparse_self_representation(X, lasso_cfg)
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
        solver = {
            "type": "lrr",
            "iterations": solution.report.iterations,
            "objective": solution.report.objective,
            "residual": solution.report.residual_norm,
        }
        converged = solution.report.converged
    labels = spectral.spectral_cluster(
        C, cfg.k, restarts=cfg.restarts, seed=cfg.seed,
        row_normalize=cfg.row_normalize,
    ).labels
    keep = np.arange(p)
    excluded: list = []
    if not sparse and split.out_of_sample.size:
        # drop corrupted in-sample columns from the dictionary; the floor
        # keeps solver noise from flagging columns on clean data
        floor = 1e-3 * float(np.median(np.linalg.norm(X.values, axis=0)))
        flagged = outlier_columns(solution.E, floor=floor)
        if 0 < flagged.size < p:
            keep = np.setdiff1d(keep, flagged)
            excluded = split.in_sample[flagged].tolist()
    t_insample = time.perf_counter()

    dictionary = None
    if split.out_of_sample.size:
        try:
            dictionary = oos.build_dictionary(
                DataMatrix(X.values[:, keep]),
                ClusterAssignment(labels[keep], cfg.k),
                gamma=cfg.gamma,
            )
        except np.linalg.LinAlgError:  # gamma is lost in the rounding of X^T X
            raise DataFormatError(
                f"the ridge system X^T X + gamma I is not positive definite at "
                f"--gamma {cfg.gamma}; raise --gamma or rescale the data"
            ) from None
    stage_seconds = {
        "sampling": t_sampling - t0,
        "insample_clustering": t_insample - t_sampling,
        "dictionary": time.perf_counter() - t_insample,
    }
    return Model(
        config=cfg, split=split, labels=labels, dictionary=dictionary,
        lasso_cfg=lasso_cfg, solver=solver, converged=converged,
        excluded_columns=excluded, stage_seconds=stage_seconds,
    )


def assign(model: Model, Xbar: np.ndarray) -> tuple[ClusterAssignment, dict]:
    """Code each column of ``Xbar`` over the model's dictionary and label it
    by its smallest class residual, without solving the in-sample problem
    again. Also returns the ``coding`` and ``classifying`` seconds."""
    cfg = model.config
    if model.dictionary is None:  # p = n leaves no point to assign
        return ClusterAssignment(np.empty(0, dtype=int), cfg.k), {"coding": 0.0, "classifying": 0.0}
    t0 = time.perf_counter()
    codes = oos.code_batch(model.dictionary, Xbar, mode=cfg.oos_coding, cfg=model.lasso_cfg)
    t_coding = time.perf_counter()
    regularized = cfg.oos_coding == "ridge"
    labels = oos.classify_codes(model.dictionary, Xbar, codes, regularized=regularized)
    t_classifying = time.perf_counter()
    return labels, {"coding": t_coding - t0, "classifying": t_classifying - t_coding}


def run_pipeline(cfg: RunConfig, data: DataMatrix, truth: ClusterAssignment | None = None) -> RunReport:
    """Run the configured pipeline on an in-memory matrix: PCA when asked
    for, ``fit`` on the in-sample points, then ``assign`` on the rest."""
    flat = data.values.ravel(order="K")
    with np.errstate(over="ignore"):  # the overflow is what is tested for
        sum_sq = np.dot(flat, flat)
    if not np.isfinite(sum_sq):
        raise DataFormatError("the sum of squares of the data overflows; rescale the data")
    if cfg.pca_energy is not None:
        if not 0.0 < cfg.pca_energy <= 1.0:
            raise UsageError(f"--pca-energy must lie in (0, 1], got {cfg.pca_energy}")
        data = dataio.pca_retain_energy(data, cfg.pca_energy)
    t0 = time.perf_counter()
    model = fit(cfg, data)
    out = model.split.out_of_sample
    labels_out, seconds = assign(model, data.values[:, out])
    labels = np.empty(data.n, dtype=int)
    labels[model.split.in_sample] = model.labels
    labels[out] = labels_out.labels
    assignment = ClusterAssignment(labels, cfg.k)
    report = RunReport(
        labels=assignment,
        stage_seconds={**model.stage_seconds, **seconds},
        total_seconds=time.perf_counter() - t0,
        model=model,
    )
    if truth is not None:
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
    try:
        dataset = dataio.synth_subspaces(
            k=args.k, ambient=args.ambient,
            dim_per=[int(x) for x in args.dims.split(",")],
            points_per=[int(x) for x in args.points.split(",")],
            noise_sigma=args.noise_sigma, corrupt_frac=args.corrupt_frac,
            seed=args.seed,
        )
    except ValueError as exc:  # a flag value the generator rejects
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    np.savetxt(out, dataset.data.values.T, fmt="%.17g", delimiter=",")
    labels = dataset.truth.labels.copy()
    labels[dataset.corrupted] = -1  # corrupted columns are marked -1
    labels_path = Path(args.labels_out) if args.labels_out else out.with_suffix(".labels")
    _write_labels(labels_path, labels)
    print(f"wrote {dataset.data.n} samples to {out} and labels to {labels_path}")
    return 0


def _merge_config(args) -> RunConfig:
    """Defaults, then the ``--config`` file, then explicit flags."""
    values = {}
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
        by_key = {_key(f): f for f in fields(RunConfig)}
        unknown = set(file_cfg) - set(by_key)
        if unknown:
            raise UsageError(f"unknown config file keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            values[by_key[key].name] = _checked(by_key[key], value, f"config key {key!r}")
    for f in fields(RunConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = _checked(f, flag, _flag(f))
        if f.default is MISSING and values.get(f.name) is None:
            raise UsageError(f"{_flag(f)} is required")
    return RunConfig(**values)


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
        "converged": report.model.converged,
    }
    print(json.dumps(summary))
    if not report.model.converged:
        print("warning: solver did not converge; report written anyway", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args) -> int:
    """Run the ``cluster`` pipeline on synthetic data across problem sizes.

    Each n runs ``run_pipeline`` once, then ``assign`` on the same model
    ``--repeats`` - 1 more times. ``classification_seconds`` is the minimum
    over the repeats of the per-query work (coding + classifying), which
    excludes the n-independent dictionary factorization; the log-log slope
    of that time against n checks the linear-in-n claim. Every other column
    comes from the ``run_pipeline`` call.
    """
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = RunConfig(
        algorithm=args.algorithm, k=args.k, p=args.p, seed=args.seed, lam=args.lam,
        input=None, output=None,
    )
    runs = []
    for n in sorted(set(args.n)):
        points = [n // args.k] * args.k
        for i in range(n - sum(points)):
            points[i] += 1
        try:
            dataset = dataio.synth_subspaces(
                k=args.k, ambient=args.ambient, dim_per=[args.dim] * args.k,
                points_per=points, seed=args.seed,
            )
        except ValueError as exc:  # a flag value the generator rejects
            raise UsageError(str(exc)) from None
        report = run_pipeline(cfg, dataset.data, dataset.truth)
        Xbar = dataset.data.values[:, report.model.split.out_of_sample]
        timings = [report.stage_seconds] + [
            assign(report.model, Xbar)[1] for _ in range(args.repeats - 1)
        ]
        runs.append(
            {
                "n": n,
                "accuracy": report.accuracy,
                "sampling_seconds": report.stage_seconds["sampling"],
                "insample_seconds": report.stage_seconds["insample_clustering"],
                "dictionary_seconds": report.stage_seconds["dictionary"],
                "classification_seconds": min(
                    t["coding"] + t["classifying"] for t in timings
                ),
                "total_seconds": report.total_seconds,
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
    for f in fields(RunConfig):
        base, _ = _kind(f)
        if base is bool:
            parse = {"action": argparse.BooleanOptionalAction}
        else:
            parse = {"type": base, "choices": f.metadata.get("choices")}
        cl.add_argument(_flag(f), dest=f.name, default=None, help=f.metadata.get("help"), **parse)
    cl.add_argument("--config", help="JSON config file (flags override it)")
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
