"""Matrix ingestion, PCA preprocessing, seeded sampling, synthetic data.

CSV files are row-per-sample; internally samples are stored as columns.
All stochastic operations take one explicit integer seed.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .types import ClusterAssignment, DataMatrix


@dataclass(frozen=True)
class SampleSplit:
    """Deterministic partition of {0..n-1} into in-sample / out-of-sample."""

    in_sample: np.ndarray
    out_of_sample: np.ndarray

    def __post_init__(self):
        ins = np.asarray(self.in_sample, dtype=int)
        out = np.asarray(self.out_of_sample, dtype=int)
        merged = np.sort(np.concatenate([ins, out]))
        if not np.array_equal(merged, np.arange(merged.size)):
            raise ValueError("index sets must be disjoint and cover 0..n-1")
        object.__setattr__(self, "in_sample", ins)
        object.__setattr__(self, "out_of_sample", out)

    @property
    def p(self) -> int:
        return self.in_sample.size


@dataclass(frozen=True)
class LabeledDataset:
    """Data matrix plus ground truth and generator metadata.

    ``corrupted`` lists the columns that were replaced by outliers.
    """

    data: DataMatrix
    truth: ClusterAssignment
    subspace_dims: tuple
    corrupted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        if self.truth.n != self.data.n:
            raise ValueError(
                f"truth has {self.truth.n} labels for {self.data.n} samples"
            )
        if len(self.subspace_dims) != self.truth.k:
            raise ValueError("subspace_dims length must equal the cluster count")
        object.__setattr__(self, "subspace_dims", tuple(int(d) for d in self.subspace_dims))
        object.__setattr__(self, "corrupted", np.asarray(self.corrupted, dtype=int))


def load_csv(path, has_header: bool = False) -> DataMatrix:
    """Read a CSV of real numbers, one sample per row.

    Returns a DataMatrix whose columns are the file's rows, so the result
    has shape (file column count, file row count).

    Raises DataFormatError on text that is not UTF-8, ragged rows,
    non-numeric cells and non-finite values (nan, inf); the message names
    the offending byte, or data row (1-based, header excluded) and column.

    Well-formed files are read by ``numpy.loadtxt``. Anything it rejects,
    and any non-finite value, is re-read by the cell-by-cell parser, the
    only source of the row/column messages and of its laxer syntax (quoted
    cells, blank cells on blank lines, digit underscores).
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # an empty file is left to the parser, which names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, skiprows=int(has_header)
            )
    except ValueError:
        values = np.empty((0, 0))
    if values.size == 0 or not np.isfinite(values).all():
        values = _parse_csv(path, has_header)
    return DataMatrix(values.T)


def read_text(path) -> str:
    """The whole of a UTF-8 text file; DataFormatError, naming the file and
    the first bad byte, when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})"
        ) from None


def _parse_csv(path: Path, has_header: bool) -> np.ndarray:
    """Cell-by-cell CSV parse; raises DataFormatError naming row and column."""
    rows = []
    row_numbers = []
    expected = None
    reader = csv.reader(io.StringIO(read_text(path)))
    if has_header:
        next(reader, None)
    for i, row in enumerate(reader, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if expected is None:
            expected = len(row)
        elif len(row) != expected:
            raise DataFormatError(
                f"{path}: row {i} has {len(row)} fields, expected {expected}"
            )
        try:
            rows.append([float(cell) for cell in row])
            row_numbers.append(i)
        except ValueError:
            for j, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {i}, column {j}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    if not np.isfinite(values).all():
        r, j = np.argwhere(~np.isfinite(values))[0]
        raise DataFormatError(
            f"{path}: row {row_numbers[r]}, column {j + 1}: "
            f"{values[r, j]} is not a finite number"
        )
    return values


def load_labels(path) -> np.ndarray:
    """Read a label sidecar: one integer per line. Returns the raw integers."""
    labels = []
    for i, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            labels.append(int(line))
        except ValueError:
            raise DataFormatError(
                f"{path}: line {i}: could not parse {line!r} as an integer"
            ) from None
    if not labels:
        raise DataFormatError(f"{path}: no labels")
    return np.asarray(labels, dtype=int)


def labels_to_assignment(raw: np.ndarray) -> ClusterAssignment:
    """Map arbitrary integer labels (e.g. -1 corruption marks) to [0, k)."""
    values, dense = np.unique(np.asarray(raw, dtype=int), return_inverse=True)
    return ClusterAssignment(dense, len(values))


def pca_retain_energy(Y: DataMatrix, energy: float) -> DataMatrix:
    """Project onto the fewest principal directions holding `energy` of the
    squared singular-value mass of the column-centered data.

    Columns are centered by the mean sample before the SVD. The output has
    shape (d, n) with d the smallest count whose cumulative squared singular
    values reach energy * total.
    """
    centered = Y.values - Y.values.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(centered, full_matrices=False)
    power = s * s
    total = power.sum()
    if total <= 0.0:
        d = 1
    else:
        # tiny slack so energy=1.0 stops at the numerical rank
        target = energy * total * (1.0 - 1e-12)
        d = int(np.searchsorted(np.cumsum(power), target)) + 1
        d = min(max(d, 1), s.size)
    return DataMatrix(U[:, :d].T @ centered)


def uniform_split(n: int, p: int, seed: int) -> SampleSplit:
    """Draw p of n indices uniformly without replacement; deterministic in seed."""
    if p < 1 or p > n:
        raise ValueError(f"p must satisfy 1 <= p <= n, got p={p}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return SampleSplit(np.sort(perm[:p]), np.sort(perm[p:]))


def synth_subspaces(
    k: int,
    ambient: int,
    dim_per,
    points_per,
    noise_sigma: float = 0.0,
    corrupt_frac: float = 0.0,
    seed: int = 0,
) -> LabeledDataset:
    """Sample a union of k independent linear subspaces with ground truth.

    Each subspace gets an orthonormal basis occupying a disjoint coordinate
    block of a single random rotation, which makes the subspaces independent
    by construction. Points are unit-norm columns; isotropic Gaussian noise
    of scale ``noise_sigma`` is added afterwards, then a ``corrupt_frac``
    fraction of columns (rounded) is replaced by unit vectors drawn uniformly
    on the ambient sphere and flagged in ``corrupted``.
    """
    dim_per = [int(d) for d in dim_per]
    points_per = [int(c) for c in points_per]
    if len(dim_per) != k or len(points_per) != k:
        raise ValueError("dim_per and points_per must both have length k")
    if any(d < 1 for d in dim_per):
        raise ValueError("every subspace dimension must be >= 1")
    if sum(dim_per) > ambient:
        raise ValueError(
            f"sum of subspace dimensions {sum(dim_per)} exceeds ambient {ambient}"
        )
    for i, (d, c) in enumerate(zip(dim_per, points_per)):
        if c < d:
            raise ValueError(
                f"subspace {i}: points_per={c} is below its dimension {d}"
            )

    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((ambient, ambient)))
    Q = Q * np.sign(np.diag(R))  # deterministic orientation

    n = sum(points_per)
    data = np.empty((ambient, n))
    labels = np.empty(n, dtype=int)
    offset_dim = 0
    offset_col = 0
    for i, (d, c) in enumerate(zip(dim_per, points_per)):
        basis = Q[:, offset_dim : offset_dim + d]
        coeffs = rng.standard_normal((d, c))
        cols = basis @ coeffs
        cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        data[:, offset_col : offset_col + c] = cols
        labels[offset_col : offset_col + c] = i
        offset_dim += d
        offset_col += c

    if noise_sigma > 0:
        data = data + noise_sigma * rng.standard_normal(data.shape)

    n_corrupt = int(round(corrupt_frac * n))
    corrupted = np.sort(rng.choice(n, size=n_corrupt, replace=False))
    for j in corrupted:
        v = rng.standard_normal(ambient)
        data[:, j] = v / np.linalg.norm(v)

    return LabeledDataset(
        data=DataMatrix(data),
        truth=ClusterAssignment(labels, k),
        subspace_dims=tuple(dim_per),
        corrupted=corrupted,
    )
