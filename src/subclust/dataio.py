"""Matrix ingestion, PCA preprocessing, seeded sampling, synthetic data.

CSV files are row-per-sample; internally a data set is an (m, n) float
array whose columns are the samples, and labels are an int array with one
entry per column. All stochastic operations take one explicit integer seed.
The draws of clustering come from the standard library's ``random.Random``
(``uniform_doubles``), so ``cluster`` never loads numpy.random; only the
synthetic generator uses numpy's Generator.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

# CsvColumns.blocks hands load_csv at most this many lines at a time
PARSE_ROWS = 64


@dataclass(frozen=True)
class LabeledDataset:
    """An (m, n) data array with its ground-truth labels in [0, k).

    ``corrupted`` lists, in ascending order, the columns that were replaced
    by outliers.
    """

    data: np.ndarray
    truth: np.ndarray
    corrupted: np.ndarray


def load_csv(path, rows, width: int) -> np.ndarray:
    """The ``(data row number, line)`` pairs ``rows`` that a scan of the CSV
    at ``path`` picked, such as ``CsvColumns.blocks``, parsed into a finite
    float array whose columns are the rows: shape (width, len(rows)). Each
    row must have the ``width`` fields of the file's first data row. A data
    row number is 1-based and counts every line after any header, blank or
    not.

    Raises DataFormatError on ragged rows, non-numeric cells and non-finite
    values (nan, inf); the message names the offending data row and column.

    Well-formed rows are parsed by ``numpy.loadtxt``. Anything it rejects,
    and any non-finite value, is re-read by the cell-by-cell parser, the
    only source of the row/column messages and of its laxer syntax (quoted
    cells, blank cells on blank lines, digit underscores).
    """
    try:
        values = np.loadtxt([line for _, line in rows], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        values = np.empty((0, 0))
    if values.shape[1] != width or not np.isfinite(values).all():
        values = _parse_rows(path, rows, width)
    return values.T


@dataclass(frozen=True)
class CsvColumns:
    """The data rows of a CSV file as the columns of an (m, n) array that is
    never held whole: ``blocks`` parses the rows asked for, and only those.
    ``scan_csv`` makes one."""

    path: Path
    has_header: bool
    shape: tuple  # (m, n): the first data row's field count, the data rows
    stamp: tuple  # (size, modification time in ns) of the file at the scan

    def blocks(self, wanted):
        """For each array of sorted 0-based data-row indices in ``wanted``,
        the (m, len) float array of those rows as columns, in column-major
        order. The arrays must come in ascending order without overlap, as
        one scan of the file reads them all. ``load_csv`` parses the rows
        ``PARSE_ROWS`` lines at a time, so the text held is a few lines.

        Raises DataFormatError, before it returns a block, once the file's
        size or modification time differs from the scan's."""
        m, n = self.shape
        position = 0  # data rows scanned so far
        with contextlib.closing(_data_lines(self.path, self.has_header)) as lines:
            for indices in wanted:
                rows = np.empty((len(indices), m))
                for start in range(0, len(indices), PARSE_ROWS):
                    picked = []
                    for row in indices[start : start + PARSE_ROWS].tolist():
                        line = next(itertools.islice(lines, row - position, None), None)
                        if line is None:
                            raise DataFormatError(
                                f"{self.path}: fewer than {n} data rows; "
                                "the file changed while it was read"
                            )
                        picked.append(line)
                        position = row + 1
                    rows[start : start + len(picked)] = load_csv(self.path, rows=picked, width=m).T
                if _stamp(self.path) != self.stamp:
                    raise DataFormatError(f"{self.path}: the file changed while it was read")
                yield rows.T


def scan_csv(path, has_header: bool = False) -> CsvColumns:
    """Count the data rows of a CSV (its non-blank lines after any header)
    in one scan that parses none of them, and take m from the first.

    Raises DataFormatError on text that is not UTF-8 and on a file with no
    data rows. The file must stay as it is while its columns are read.
    """
    path = Path(path)
    stamp = _stamp(path)
    n, m = 0, 0
    for _, line in _data_lines(path, has_header):
        if not n:
            m = len(_cells(line))
        n += 1
    if not n:
        raise DataFormatError(f"{path}: no data rows")
    return CsvColumns(path=path, has_header=has_header, shape=(m, n), stamp=stamp)


def column_blocks(data, wanted):
    """For each array of sorted column indices in ``wanted``, those columns of
    ``data``: an in-memory (m, n) array, or a source with ``shape`` and
    ``blocks(wanted)``, such as ``CsvColumns``."""
    if isinstance(data, np.ndarray):
        return (data[:, indices] for indices in wanted)
    return data.blocks(wanted)


def read_text(path) -> str:
    """The whole of a UTF-8 text file; DataFormatError, naming the file and
    the first bad byte, when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc.start, exc.reason) from None


def _not_utf8(path, offset: int, reason: str) -> DataFormatError:
    return DataFormatError(f"{path}: byte {offset} is not UTF-8 text ({reason})")


def _first_bad_byte(path) -> DataFormatError:
    """The DataFormatError that names the first byte of ``path`` that is not
    UTF-8, from a scan that holds one chunk of the file at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # bytes before the chunk
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 16)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the bytes the decoder held back, then the chunk
                held = len(exc.object) - len(chunk)
                return _not_utf8(path, offset - held + exc.start, exc.reason)
            if not chunk:
                return DataFormatError(f"{path}: the file changed while it was read")
            offset += len(chunk)


def _stamp(path: Path) -> tuple:
    """(size, modification time in ns): what a rewrite of the file changes."""
    status = path.stat()
    return status.st_size, status.st_mtime_ns


def _cells(line: str) -> list:
    return next(csv.reader([line]), [])


def _data_lines(path: Path, has_header: bool):
    """``(data row number, line)`` for each non-blank line after any header.

    A line is blank when every cell of it is empty or whitespace. Only a
    line that starts, after whitespace, with a comma or a quote needs its
    cells split to tell.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if has_header:
                next(fh, None)
            for number, line in enumerate(fh, start=1):
                start = line.lstrip()[:1]
                if start and (start not in ',"' or any(c.strip() for c in _cells(line))):
                    yield number, line
    except UnicodeDecodeError:
        raise _first_bad_byte(path) from None


def _parse_rows(path: Path, rows: list, width: int) -> np.ndarray:
    """Cell-by-cell parse of ``(data row number, line)`` pairs, as (rows,
    width); raises DataFormatError naming row and column."""
    values = []
    for i, line in rows:
        row = _cells(line)
        if len(row) != width:
            raise DataFormatError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            for j, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {i}, column {j}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        r, j = np.argwhere(~np.isfinite(values))[0]
        raise DataFormatError(
            f"{path}: row {rows[r][0]}, column {j + 1}: "
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


def labels_to_assignment(raw: np.ndarray) -> np.ndarray:
    """Map arbitrary integer labels (e.g. -1 corruption marks) to [0, k),
    k the number of distinct values, in the order of the values."""
    return np.unique(raw, return_inverse=True)[1]


def pca_basis(X: np.ndarray, energy: float) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the columns of the (m, p) array ``X``, as an (m, 1)
    column, and the fewest principal directions, as the columns of an
    (m, d) basis, that hold ``energy`` of the squared singular-value mass of
    the column-centered X.

    ``eigh`` of the centered m x m scatter gives the squared singular values
    and their directions; d is the smallest count whose cumulative squared
    singular values reach energy * total.
    """
    mean = X.mean(axis=1, keepdims=True)
    centered = X - mean
    power, directions = np.linalg.eigh(centered @ centered.T)
    power, directions = np.maximum(power[::-1], 0.0), directions[:, ::-1]
    total = power.sum()
    if total <= 0.0:
        d = 1
    else:
        # tiny slack so energy=1.0 stops at the numerical rank
        target = energy * total * (1.0 - 1e-12)
        d = int(np.searchsorted(np.cumsum(power), target)) + 1
        d = min(max(d, 1), min(power.size, X.shape[1]))
    return mean, directions[:, :d]


def project(V: np.ndarray, projection: tuple) -> np.ndarray:
    """The columns of the (m, q) array ``V`` centered by the mean and
    projected onto the basis of ``projection``, the ``(mean, basis)`` that
    ``pca_basis`` gives: a (d, q) array in column-major order, like the
    column blocks of a CSV."""
    mean, basis = projection
    return ((V - mean).T @ basis).T


def uniform_doubles(count: int, *key) -> np.ndarray:
    """``count`` doubles uniform on [0, 1), 53 random bits each, from a
    standard-library ``random.Random`` seeded by ``key``: a stream name and
    the integers that select the stream, such as ``("kmeans", seed,
    restart)``. Distinct keys seed the generator with distinct strings, so
    their streams are unrelated. The whole array takes one ``randbytes``
    call."""
    words = np.frombuffer(random.Random(" ".join(map(str, key))).randbytes(8 * count), dtype="<u8")
    return (words >> 11) * 2.0**-53


def uniform_split(n: int, p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(in_sample, out_of_sample): p of the indices 0..n-1 drawn uniformly
    without replacement and the other n - p, each sorted; deterministic in
    seed.

    The p indices are those of the p smallest of n draws of
    ``uniform_doubles(n, "uniform_split", seed)``, from the standard
    library's generator."""
    if p < 1 or p > n:
        raise ValueError(f"p must satisfy 1 <= p <= n, got p={p}, n={n}")
    chosen = np.zeros(n, dtype=bool)
    chosen[np.argpartition(uniform_doubles(n, "uniform_split", seed), p - 1)[:p]] = True
    return np.flatnonzero(chosen), np.flatnonzero(~chosen)


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

    return LabeledDataset(data=data, truth=labels, corrupted=corrupted)
