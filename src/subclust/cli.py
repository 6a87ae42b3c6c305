"""Command-line front end: synth, cluster, bench, eval.

The clustering pipeline runs "sampling, clustering, coding, classifying".
``fit`` splits the data, clusters the in-sample part with SSC or LRR plus
spectral clustering and builds the out-of-sample dictionary; ``assign``
codes points over it and labels each by its minimal class residual.
``run_pipeline`` is ``fit`` then ``assign``; ``cluster`` and ``bench`` run
it, and ``bench`` then times ``assign`` again on the same fit. ``cluster``
never holds its CSV whole: ``fit`` reads only the p sampled rows and
``assign`` one block of rows at a time. ``ssc`` and ``lrr`` are ``sssc``
and ``slrr`` with p = n.

``RunConfig`` is the one list of knobs: the method's parameters and the
iteration caps. The ``cluster`` flags, the config-file keys with their
checks and the report's ``parameters`` are derived from its fields; the
solver schedules (the LRR penalty schedule and tolerance, the lasso KKT
tolerance, the k-means restarts) are fixed in their modules. Each value
is checked once, where it enters, under every algorithm. For ``sssc``/``ssc``
--lambda is the l1 weight of (1/2)||y - Dc||^2 + lambda ||c||_1, the number
the lasso solver takes; for ``slrr``/``lrr`` it weighs the LRR error term.
Exit codes: 0 success, 1 usage error, 2 data error, 3 solver
non-convergence (report still written).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import operator
import os
import re
import stat
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import dataio, metrics, oos, spectral
from .errors import DataFormatError, SubclustError, UnassignableSampleError
from .lowrank import ERROR_NORMS, LrrConfig, outlier_columns, solve_lrr
from .sparse_coding import SparseSelfRepConfig, sparse_self_representation

ALGORITHMS = ("sssc", "slrr", "ssc", "lrr")
# out-of-sample coding modes, in the order the command line lists them
CODING_MODES = ("ridge", "sparse")
# --lambda defaults depend on the algorithm (sparse weight vs. LRR balance)
LAMBDA_DEFAULTS = {"sssc": SparseSelfRepConfig.lam, "ssc": SparseSelfRepConfig.lam,
                   "slrr": LrrConfig.lam, "lrr": LrrConfig.lam}
# labels written to the labels file per write call
LABEL_BLOCK = 4096


class UsageError(SubclustError, ValueError):
    """Bad flag combinations discovered after parsing."""


def _default(fn, name: str):
    """The default of ``fn``'s parameter ``name``, which ``fn`` alone writes."""
    return inspect.signature(fn).parameters[name].default


def _knob(default=MISSING, **metadata):
    """A RunConfig field. ``metadata`` may hold ``key`` (the config-file key
    and flag name, when not the field name), ``choices``, the range bounds
    ``minimum`` and ``maximum`` (inclusive) and ``above`` (exclusive lower
    bound), ``help``, and ``role``: "identity" fields head the report, "io"
    fields stay out of it, every other field is listed under
    ``parameters``."""
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Every knob of ``subclust cluster``, each with its default.

    The ``cluster`` flags, the config-file keys, their type, choice and
    range checks and the report's ``parameters`` are all derived from these
    fields. A field without a default must be given. ``lam`` left as None
    takes the per-algorithm default in LAMBDA_DEFAULTS; the other solver
    defaults are read from the configs and functions that take them.
    """

    algorithm: str = _knob(choices=ALGORITHMS, role="identity")
    k: int = _knob(role="identity")
    p: int | None = _knob(None, role="identity")
    seed: int = _knob(role="identity", minimum=0)
    lam: float | None = _knob(None, key="lambda", above=0)
    delta: float = _knob(SparseSelfRepConfig.delta, minimum=0)
    gamma: float = _knob(_default(oos.build_dictionary, "gamma"), above=0)
    error_norm: str = _knob(LrrConfig.error_norm, choices=ERROR_NORMS)
    lasso_max_iterations: int = _knob(SparseSelfRepConfig.max_iterations, minimum=1)
    lrr_max_iterations: int = _knob(LrrConfig.max_iterations, minimum=1)
    oos_coding: str = _knob("ridge", choices=CODING_MODES)
    pca_energy: float | None = _knob(None, above=0, maximum=1)
    input: str | None = _knob(role="io")
    labels: str | None = _knob(None, role="io", help="optional truth sidecar for accuracy/NMI")
    output: str | None = _knob(role="io")
    has_header: bool = _knob(_default(dataio.scan_csv, "has_header"), role="io")

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
_FIELDS = {f.name: f for f in fields(RunConfig)}


def _kind(f) -> tuple:
    """(base type, whether None is allowed) of a RunConfig field."""
    hint = _HINTS[f.name]
    args = get_args(hint)
    base = next((t for t in args if t is not type(None)), hint)
    return base, type(None) in args


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
# what a RunConfig field may declare of its valid values: (metadata key, test, wording)
_LIMITS = (
    ("choices", lambda value, choices: value in choices, "one of"),
    ("minimum", operator.ge, ">="), ("above", operator.gt, ">"), ("maximum", operator.le, "<="),
)


def _checked(f, value, name: str):
    """``value`` for field ``f``, checked against its type, its choices and
    its range bounds; ``name`` (the flag, or the config key) says where it
    came from in the error message."""
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
    for key, holds, wording in _LIMITS:
        limit = f.metadata.get(key)
        if limit is not None and not holds(value, limit):
            raise UsageError(f"{name} must be {wording} {limit}, got {value!r}")
    return float(value) if base is float else value


def _output_path(path, flag: str, taken: dict) -> Path:
    """``path`` as a Path, added to ``taken`` (name -> path); refused before any
    work when its directory is missing or it is the same file as one in ``taken``."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{flag} {path}: {path.parent} is not a directory")
    for name, other in taken.items():
        if other is not None and path.resolve() == Path(other).resolve():
            raise UsageError(f"{flag} and {name} are the same file {path}")
    taken[flag] = path
    return path


@dataclass
class Model:
    """What ``fit`` learns from the in-sample points; ``assign`` labels
    further points against it. ``in_sample`` and ``out_of_sample`` are the
    sorted column indices of ``dataio.uniform_split``. ``projection`` is
    ``dataio.pca_basis`` of the in-sample points under ``--pca-energy``,
    else None. ``dictionary`` is None when p = n."""

    config: RunConfig
    in_sample: np.ndarray
    out_of_sample: np.ndarray
    labels: np.ndarray  # of the in-sample points, in in_sample order
    projection: tuple | None
    dictionary: oos.ClassDictionary | None
    solver: dict
    converged: bool
    excluded_columns: list
    stage_seconds: dict


@dataclass
class RunReport:
    labels: np.ndarray
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
            "n": self.labels.size,
            "k": cfg.k,
            "p": model.in_sample.size,
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


def _chunks(indices: np.ndarray) -> list:
    """``indices`` in consecutive blocks of ``oos.QUERY_CHUNK``."""
    return [indices[s : s + oos.QUERY_CHUNK] for s in range(0, len(indices), oos.QUERY_CHUNK)]


def _data_rows(columns: list) -> str:
    """``columns`` of the data, at most ten of them, named as 1-based data rows."""
    rows = sorted(c + 1 for c in columns)
    more = f" and {len(rows) - 10} more" if len(rows) > 10 else ""
    return f"data row(s) {', '.join(map(str, rows[:10]))}{more}"


def _sample_size(cfg: RunConfig, n: int) -> int:
    """The p that ``cfg`` asks of n points; the usage and data errors that
    only need n."""
    if n < 2:  # self-representation needs two in-sample points
        raise DataFormatError(f"clustering needs at least 2 samples, got {n}")
    # ssc and lrr are sssc and slrr on the whole data set
    p = n if cfg.algorithm in ("ssc", "lrr") else cfg.p
    if p is None:
        raise UsageError(f"--p is required for algorithm {cfg.algorithm}")
    if not 2 <= p <= n:
        raise UsageError(f"--p must lie in [2, {n}], got {p}")
    if not 1 <= cfg.k <= p:
        raise UsageError(
            f"--k must lie in [1, {p}], the number of in-sample points, got {cfg.k}"
        )
    return p


def fit(cfg: RunConfig, data) -> Model:
    """Sample p columns of the (m, n) ``data`` (see ``dataio.column_blocks``),
    cluster them and build the dictionary that the other n - p columns are
    assigned against. Only the p sampled columns are read, and the
    ``--pca-energy`` projection is fitted on them alone. Raises
    DataFormatError when their sum of squares overflows."""
    sparse = cfg.algorithm in ("sssc", "ssc")
    # under slrr/lrr --lambda weighs the LRR error term, so sparse
    # out-of-sample coding takes the sssc default l1 weight instead
    lasso_cfg = SparseSelfRepConfig(
        lam=cfg.lam if sparse else LAMBDA_DEFAULTS["sssc"],
        delta=cfg.delta,
        max_iterations=cfg.lasso_max_iterations,
    )
    n = data.shape[1]
    p = _sample_size(cfg, n)

    t0 = time.perf_counter()
    in_sample, out_of_sample = dataio.uniform_split(n, p, cfg.seed)
    (X,) = dataio.column_blocks(data, [in_sample])
    # the step bound ||X||_2^2, the Gram matrix and the ALM need ||X||_F^2 finite
    flat = X.ravel(order="K")
    with np.errstate(over="ignore"):  # the overflow is what is tested for
        if not np.isfinite(np.dot(flat, flat)):
            raise DataFormatError("the sum of squares of the in-sample data overflows; rescale the data")
    projection = None
    if cfg.pca_energy is not None:
        projection = dataio.pca_basis(X, cfg.pca_energy)
        X = dataio.project(X, projection)
    t_sampling = time.perf_counter()

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
        lrr_cfg = LrrConfig(
            lam=cfg.lam, error_norm=cfg.error_norm, max_iterations=cfg.lrr_max_iterations,
        )
        solution = solve_lrr(X, lrr_cfg)
        C = solution.C
        solver = {
            "type": "lrr",
            "iterations": solution.report.iterations,
            "objective": solution.report.objective,
            "residual": solution.report.residual_norm,
        }
        converged = solution.report.converged
    labels = spectral.spectral_cluster(C, cfg.k, cfg.seed)
    # the dictionary takes X itself; a column it leaves out is labelled -1
    column_labels = labels
    excluded: list = []
    if not sparse and out_of_sample.size:
        # leave corrupted in-sample columns out of the dictionary; the floor
        # keeps solver noise from flagging columns on clean data
        floor = 1e-3 * float(np.median(np.linalg.norm(X, axis=0)))
        flagged = outlier_columns(solution.E, floor=floor)
        if 0 < flagged.size < p:
            column_labels = labels.copy()
            column_labels[flagged] = -1
            excluded = in_sample[flagged].tolist()
    t_insample = time.perf_counter()

    dictionary = None
    if out_of_sample.size:
        dictionary = oos.build_dictionary(
            X, column_labels, cfg.k,
            gamma=cfg.gamma,
            lasso_cfg=lasso_cfg if cfg.oos_coding == "sparse" else None,
        )
    stage_seconds = {
        "sampling": t_sampling - t0,
        "insample_clustering": t_insample - t_sampling,
        "dictionary": time.perf_counter() - t_insample,
    }
    return Model(
        config=cfg, in_sample=in_sample, out_of_sample=out_of_sample,
        labels=labels, projection=projection, dictionary=dictionary,
        solver=solver, converged=converged,
        excluded_columns=excluded, stage_seconds=stage_seconds,
    )


def assign(model: Model, values, columns: np.ndarray) -> tuple[np.ndarray, dict]:
    """Code the given sorted ``columns`` of ``values`` (see
    ``dataio.column_blocks``) over the model's dictionary and label each by
    its smallest class residual, without solving the in-sample problem
    again; the model's projection, if any, is applied as each block is
    read. Returns the labels, one per column, and the ``reading``,
    ``coding`` and ``classifying`` seconds.

    Queries are read ``oos.QUERY_CHUNK`` columns at a time, so no code
    matrix or copy of the queries larger than one block is formed. A block
    with columns whose squared norm overflows raises DataFormatError, which
    names them. Columns that no class can reconstruct are gathered over all
    blocks and raised as one UnassignableSampleError. Both errors name the
    columns as 1-based data rows.
    """
    seconds = {"coding": 0.0, "classifying": 0.0, "reading": 0.0}
    if model.dictionary is None:  # p = n leaves no point to assign
        return np.empty(0, dtype=int), seconds
    labels = np.empty(len(columns), dtype=int)
    bad: list = []
    blocks = _chunks(columns)
    reader = dataio.column_blocks(values, blocks)
    s = 0  # where the block's labels go
    for block in blocks:
        t_read = time.perf_counter()
        V = next(reader)
        with np.errstate(over="ignore"):  # the overflow is what is tested for
            overflows = ~np.isfinite(np.einsum("ij,ij->j", V, V))
        if overflows.any():
            rows = _data_rows(block[overflows].tolist())
            raise DataFormatError(f"the squared norm of {rows} overflows; rescale the data")
        if model.projection is not None:
            V = dataio.project(V, model.projection)
        t0 = time.perf_counter()
        seconds["reading"] += t0 - t_read
        codes = oos.code_batch(model.dictionary, V)
        t_coding = time.perf_counter()
        try:
            labels[s : s + block.size] = oos.classify_codes(model.dictionary, V, codes)
        except UnassignableSampleError as exc:
            bad.extend(block[exc.columns].tolist())
        seconds["coding"] += t_coding - t0
        seconds["classifying"] += time.perf_counter() - t_coding
        s += block.size
    if bad:
        raise UnassignableSampleError(bad, where=_data_rows(bad))
    return labels, seconds


def run_pipeline(cfg: RunConfig, data, truth: np.ndarray | None = None) -> RunReport:
    """Run the configured pipeline on the (m, n) ``data``: an in-memory
    array, or a ``dataio.CsvColumns`` whose rows are parsed as they are
    needed (see ``dataio.column_blocks``). ``fit`` on the in-sample points,
    then ``assign`` on the rest, so every column is read exactly once.
    ``truth``, labels in [0, k) one per column, is scored against when
    given."""
    t0 = time.perf_counter()
    model = fit(cfg, data)
    out = model.out_of_sample
    labels_out, seconds = assign(model, data, out)
    labels = np.empty(data.shape[1], dtype=int)
    labels[model.in_sample] = model.labels
    labels[out] = labels_out
    report = RunReport(
        labels=labels,
        stage_seconds={**model.stage_seconds, **seconds},
        total_seconds=time.perf_counter() - t0,
        model=model,
    )
    if truth is not None:
        report.accuracy = metrics.accuracy(labels, truth)
        report.nmi = metrics.nmi(labels, truth)
    return report


# ---------------------------------------------------------------------------
# subcommands


def _write_labels(path: Path, labels: np.ndarray) -> None:
    """One label per line, written a block at a time so that no string or
    list the size of ``labels`` is formed."""
    with open(path, "w") as fh:
        for s in range(0, labels.size, LABEL_BLOCK):
            fh.write("".join(f"{value}\n" for value in labels[s : s + LABEL_BLOCK].tolist()))


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} must be a comma list of integers, got {text!r}") from None


def _check_shape(ambient: int, dims: list, points: list, dim_flag: str, point_flag: str) -> None:
    """Refuse, naming the flags, the shapes ``dataio.synth_subspaces`` rejects."""
    if min(dims) < 1 or sum(dims) > ambient:
        raise UsageError(f"{dim_flag} must be >= 1 and sum to <= --ambient {ambient}, got {dims}")
    if any(c < d for c, d in zip(points, dims)):
        raise UsageError(f"{point_flag} must give each subspace >= {dim_flag} points, got {points}")


def cmd_synth(args) -> int:
    dims, points = _int_list(args.dims, "--dims"), _int_list(args.points, "--points")
    if not len(dims) == len(points) == args.k:
        raise UsageError(f"--dims and --points must each list --k {args.k} values")
    _check_shape(args.ambient, dims, points, "--dims", "--points")
    if not 0 <= args.noise_sigma < math.inf:
        raise UsageError(f"--noise-sigma must be finite and >= 0, got {args.noise_sigma}")
    if not 0 <= args.corrupt_frac <= 1:
        raise UsageError(f"--corrupt-frac must lie in [0, 1], got {args.corrupt_frac}")
    seed = _checked(_FIELDS["seed"], args.seed, "--seed")  # cluster's --seed rule
    taken: dict = {}
    out = _output_path(args.out, "--out", taken)
    labels_path = _output_path(args.labels_out or out.with_suffix(".labels"), "--labels-out", taken)
    try:
        with np.errstate(over="raise"):  # only the noise can overflow
            dataset = dataio.synth_subspaces(
                k=args.k, ambient=args.ambient, dim_per=dims, points_per=points,
                noise_sigma=args.noise_sigma, corrupt_frac=args.corrupt_frac, seed=seed,
            )
    except FloatingPointError:
        raise UsageError(f"--noise-sigma {args.noise_sigma} overflows the data") from None
    np.savetxt(out, dataset.data.T, fmt="%.17g", delimiter=",")
    labels = dataset.truth.copy()
    labels[dataset.corrupted] = -1  # corrupted columns are marked -1
    _write_labels(labels_path, labels)
    print(f"wrote {labels.size} samples to {out} and labels to {labels_path}")
    return 0


def _regular_file(path, flag: str) -> str:
    """``path``, refused unless it is a regular file: a pipe would be read
    empty by every scan after the first."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a missing file raises here
        raise DataFormatError(f"{flag} {path} is not a regular file; cluster reads it more than once")
    return path


def _merge_config(args) -> RunConfig:
    """Defaults, then the ``--config`` file, then explicit flags."""
    values = {}
    if args.config:
        try:
            file_cfg = json.loads(dataio.read_text(args.config))
        except OSError as exc:
            raise DataFormatError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DataFormatError("config file must hold a JSON object")
        by_key = {_key(f): f for f in _FIELDS.values()}
        unknown = set(file_cfg) - set(by_key)
        if unknown:
            raise UsageError(f"unknown config file keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            values[by_key[key].name] = _checked(by_key[key], value, f"config key {key!r}")
    for f in _FIELDS.values():
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = _checked(f, flag, _flag(f))
        if f.default is MISSING and values.get(f.name) is None:
            raise UsageError(f"{_flag(f)} is required")
    return RunConfig(**values)


def cmd_cluster(args) -> int:
    cfg = _merge_config(args)
    taken = {"--input": cfg.input, "--labels": cfg.labels, "--config": args.config}
    out = _output_path(cfg.output, "--output", taken)
    labels_path = _output_path(out.with_suffix(".labels"), "the labels file of --output", taken)
    data = dataio.scan_csv(_regular_file(cfg.input, "--input"), has_header=cfg.has_header)
    truth = None
    if cfg.labels:
        raw = dataio.load_labels(cfg.labels)
        if raw.size != data.shape[1]:
            raise DataFormatError(
                f"label file has {raw.size} entries for {data.shape[1]} samples"
            )
        truth = dataio.labels_to_assignment(raw)

    report = run_pipeline(cfg, data, truth)

    _write_labels(labels_path, report.labels)
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
    ``--repeats`` - 1 more times. Every n is fitted before any repeat, and
    the repeats go round-robin across n, so a spell of load on the host
    slows every n alike. ``classification_seconds`` is the minimum over the
    repeats of the per-query work (coding + classifying), which excludes the
    n-independent dictionary factorization; the log-log slope of that time
    against n checks the linear-in-n claim. Every other column comes from
    the ``run_pipeline`` call.
    """
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = RunConfig(
        algorithm=args.algorithm, k=args.k, p=args.p,
        seed=_checked(_FIELDS["seed"], args.seed, "--seed"),
        lam=_checked(_FIELDS["lam"], args.lam, "--lambda"),
        input=None, output=None,
    )
    if args.output:
        _output_path(args.output, "--output", {})
    fitted = []
    for n in sorted(set(args.n)):
        points = [n // args.k] * args.k
        for i in range(n - sum(points)):
            points[i] += 1
        _check_shape(args.ambient, [args.dim] * args.k, points, "--dim", "--n")
        dataset = dataio.synth_subspaces(
            k=args.k, ambient=args.ambient, dim_per=[args.dim] * args.k,
            points_per=points, seed=args.seed,
        )
        report = run_pipeline(cfg, dataset.data, dataset.truth)
        fitted.append((n, dataset.data, report, [report.stage_seconds]))
    for _ in range(args.repeats - 1):
        for _, data, report, timings in fitted:
            timings.append(assign(report.model, data, report.model.out_of_sample)[1])
    runs = [
        {
            "n": n,
            "accuracy": report.accuracy,
            "sampling_seconds": report.stage_seconds["sampling"],
            "insample_seconds": report.stage_seconds["insample_clustering"],
            "dictionary_seconds": report.stage_seconds["dictionary"],
            "classification_seconds": min(t["coding"] + t["classifying"] for t in timings),
            "total_seconds": report.total_seconds,
        }
        for n, _, report, timings in fitted
    ]

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-5" as a flag; as a negative number, it reaches
        # the range rule that names the flag
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # usage errors exit 1 with one line, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic union-of-subspaces CSV")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ambient", type=int, required=True)
    sp.add_argument("--dims", required=True, help="comma list of subspace dims")
    sp.add_argument("--points", required=True, help="comma list of points per subspace")
    for name in ("noise_sigma", "corrupt_frac"):
        sp.add_argument("--" + name.replace("_", "-"), type=float,
                        default=_default(dataio.synth_subspaces, name))
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
