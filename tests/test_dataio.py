import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cell_parsed_csv
from subclust import dataio
from subclust.dataio import (
    labels_to_assignment,
    load_labels,
    pca_basis,
    project,
    scan_csv,
    synth_subspaces,
    uniform_split,
)
from subclust.errors import DataFormatError


def read_csv(path, has_header=False):
    """Every data row of a CSV as the columns of one block, the read
    ``cluster`` makes of it: ``scan_csv``, then ``blocks``, ``load_csv``
    parsing the rows."""
    source = scan_csv(path, has_header)
    return next(source.blocks([np.arange(source.shape[1])]))


def pca_project(Y, energy):
    """The in-memory (m, n) array Y projected as ``pca_basis`` of its
    columns says: an array of shape (d, n)."""
    return project(Y, pca_basis(Y, energy))


# --- load_csv -------------------------------------------------------------


def test_load_csv_zero_matrix(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("0,0\n0,0\n0,0\n")
    dm = read_csv(path)
    assert dm.shape == (2, 3)
    assert not dm.any()


def test_load_csv_rows_become_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    dm = read_csv(path)
    np.testing.assert_array_equal(dm[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(dm[:, 1], [3.0, 4.0])


def test_load_csv_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,x\n3,4\n")
    with pytest.raises(DataFormatError, match="row 1.*column 2"):
        read_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_csv(path)


def test_load_csv_header_skipped(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n")
    dm = read_csv(path, has_header=True)
    assert dm.shape == (2, 1)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_csv(tmp_path / "nope.csv")


def test_load_csv_fast_read_is_bit_identical_to_cell_parser(tmp_path):
    rng = np.random.default_rng(21)
    values = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
    values[0, 0] = 5e-324  # smallest subnormal
    path = tmp_path / "exact.csv"
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    dm = read_csv(path)
    np.testing.assert_array_equal(dm, values.T)
    np.testing.assert_array_equal(dm, cell_parsed_csv(path).T)
    header = tmp_path / "exact_header.csv"
    header.write_text("h" + ",h" * 6 + "\n" + path.read_text())
    np.testing.assert_array_equal(read_csv(header, has_header=True), values.T)


@pytest.mark.parametrize(
    "text",
    [
        "#1,2\n3,4\n",
        '"1",2\n3,4\n',
        "1,2,\n3,4,\n",
        "1,2\n,\n3,4\n",
        "1_0,2\n3,4\n",
        "1,2\n  \n3,4\n",
        "",
    ],
    ids=["comment-mark", "quoted", "trailing-comma", "blank-cells", "underscore",
         "whitespace-line", "empty"],
)
def test_load_csv_lines_loadtxt_rejects_match_cell_parser(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_text(text)
    try:
        expected = cell_parsed_csv(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as info:
            read_csv(path)
        assert str(info.value) == str(exc)
    else:
        np.testing.assert_array_equal(read_csv(path), expected.T)


def test_csv_columns_blocks_are_the_columns_of_the_whole_read(tmp_path, monkeypatch):
    # blocks are parsed a few lines at a time, across blank and quoted lines
    monkeypatch.setattr(dataio, "PARSE_ROWS", 3)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((20, 3))
    lines = [",".join(map(repr, row)) for row in values.tolist()]
    lines[5] = '"' + lines[5].replace(",", '","') + '"'  # quoted cells: the cell parser
    for at, blank in ((0, ""), (7, "  "), (12, ",,"), (16, '"",""')):
        lines.insert(at, blank)
    path = tmp_path / "mixed.csv"
    path.write_text("a,b,c\n" + "\n".join(lines) + "\n")
    whole = read_csv(path, has_header=True)
    np.testing.assert_array_equal(whole, values.T)
    source = scan_csv(path, has_header=True)
    assert source.shape == (3, 20)
    wanted = [np.array([0, 4, 5, 6]), np.array([9]), np.array([10, 11, 12, 13, 14, 19])]
    for indices, block in zip(wanted, source.blocks(wanted)):
        assert block.flags.f_contiguous
        np.testing.assert_array_equal(block, whole[:, indices])


def test_csv_columns_refuse_a_file_that_shrank(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    source = scan_csv(path)
    path.write_text("1,2\n3,4\n")
    with pytest.raises(DataFormatError, match="changed while it was read"):
        list(source.blocks([np.array([0, 2])]))


@pytest.mark.parametrize("rewrite", ["other-size", "same-size"])
def test_csv_columns_refuse_a_file_rewritten_between_passes(tmp_path, rewrite):
    # same row count, other values: only the file's size and mtime tell
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    source = scan_csv(path)
    before = path.stat()
    path.write_text("7,8\n9,10\n11,12\n" if rewrite == "other-size" else "7,8\n9,0\n1,2\n")
    if rewrite == "same-size":
        # a later write, though a coarse clock may stamp both writes alike
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    with pytest.raises(DataFormatError, match="changed while it was read"):
        list(source.blocks([np.array([0, 2])]))


def test_scan_csv_of_no_data_rows_is_data_error(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n\n ,\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        scan_csv(path, has_header=True)


def test_load_labels_roundtrip(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n1\n-1\n1\n")
    raw = load_labels(path)
    np.testing.assert_array_equal(raw, [0, 1, -1, 1])
    np.testing.assert_array_equal(labels_to_assignment(raw), [1, 2, 0, 2])


def test_load_labels_bad_line(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\noops\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_labels(path)


# --- pca_basis and project -----------------------------------------------


def test_pca_rank_one_matrix_keeps_one_direction():
    u = np.arange(1.0, 5.0)
    v = np.linspace(-1, 1, 7)
    Y = np.outer(u, v)
    out = pca_project(Y, 0.98)
    assert out.shape == (1, 7)


def test_pca_full_energy_recovers_rank_and_reconstruction():
    rng = np.random.default_rng(0)
    low = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 20))
    Y = low
    centered = low - low.mean(axis=1, keepdims=True)
    rank = np.linalg.matrix_rank(centered, tol=1e-10)
    out = pca_project(Y, 1.0)
    assert out.shape[0] == rank
    # projecting back reproduces the data
    U, _, _ = np.linalg.svd(centered, full_matrices=False)
    recon = U[:, :rank] @ out + low.mean(axis=1, keepdims=True)
    assert np.linalg.norm(recon - low) <= 1e-8


def test_pca_energy_fraction_matches_spectrum():
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((10, 50))
    out = pca_project(Y, 0.9)
    d = out.shape[0]
    # oracle: the full spectrum computed directly
    centered = Y - Y.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    power = s * s
    ratio = power[:d].sum() / power.sum()
    assert ratio >= 0.9
    assert power[: d - 1].sum() / power.sum() < 0.9


# --- uniform_split ----------------------------------------------------------


def test_split_full_sample_is_degenerate():
    for n, seed in [(5, 123), (1, 0), (2, 1), (100, 0), (1000, 4242)]:
        in_sample, out_of_sample = uniform_split(n, n, seed)
        np.testing.assert_array_equal(in_sample, np.arange(n))
        assert out_of_sample.size == 0


def test_uniform_doubles_fill_the_unit_interval_per_key():
    a = dataio.uniform_doubles(10_000, "kmeans", 3, 1)
    assert a.shape == (10_000,) and a.dtype == np.float64
    assert 0.0 <= a.min() and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 5 * np.sqrt(1 / 12 / a.size)
    np.testing.assert_array_equal(a, dataio.uniform_doubles(10_000, "kmeans", 3, 1))
    # the first draws are those of a longer array with the same key
    np.testing.assert_array_equal(a[:10], dataio.uniform_doubles(10, "kmeans", 3, 1))
    for other in [("kmeans", 3, 2), ("kmeans", 31), ("uniform_split", 3)]:
        assert not np.array_equal(a[:10], dataio.uniform_doubles(10, *other))


def test_split_deterministic():
    a = uniform_split(100, 30, seed=7)
    b = uniform_split(100, 30, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


@pytest.mark.parametrize("p", [0, 11])
def test_split_rejects_bad_p(p):
    with pytest.raises(ValueError):
        uniform_split(10, p, seed=0)


def test_split_frequencies_uniform():
    # every seed draws exactly p of n, so the mean frequency is p/n exactly;
    # per-index counts follow Binomial(200, 0.01) (std ~ 0.007 on the
    # frequency scale, so any per-index band much tighter than that would
    # reject a correct sampler); bounds sit at ~5 sigma with fixed seeds
    n, p, seeds = 10_000, 100, 200
    counts = np.zeros(n)
    for seed in range(seeds):
        counts[uniform_split(n, p, seed)[0]] += 1
    freq = counts / seeds
    assert freq.mean() == pytest.approx(p / n, abs=0)
    assert freq.max() <= 13 / seeds
    zero_fraction = float(np.mean(counts == 0))
    assert 0.10 <= zero_fraction <= 0.17  # (1 - 0.01)^200 ~ 0.134
    var_ratio = counts.var() / (seeds * (p / n) * (1 - p / n))
    assert 0.5 <= var_ratio <= 2.0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_split_partition_property(data):
    n = data.draw(st.integers(min_value=1, max_value=200))
    p = data.draw(st.integers(min_value=1, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    in_sample, out_of_sample = uniform_split(n, p, seed)
    assert in_sample.size == p
    merged = np.sort(np.concatenate([in_sample, out_of_sample]))
    np.testing.assert_array_equal(merged, np.arange(n))


# --- synth_subspaces --------------------------------------------------------


def test_synth_figure_scale_instance():
    ds = synth_subspaces(k=2, ambient=512, dim_per=[10, 10],
                         points_per=[256, 256], seed=0)
    assert ds.data.shape[1] == 512
    s = np.linalg.svd(ds.data, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 20  # independent subspaces: rank adds


def test_synth_noise_free_columns_lie_in_their_subspace():
    dims = [2, 3, 4]
    ds = synth_subspaces(k=3, ambient=30, dim_per=dims,
                         points_per=[10, 10, 10], seed=5)
    V = ds.data
    for i in range(3):
        cols = V[:, ds.truth == i]
        basis, _, _ = np.linalg.svd(cols, full_matrices=False)
        basis = basis[:, : dims[i]]
        residual = cols - basis @ (basis.T @ cols)
        assert np.abs(np.linalg.norm(residual, axis=0)).max() <= 1e-10


def test_synth_corruption_count_exact():
    ds = synth_subspaces(k=2, ambient=20, dim_per=[3, 3],
                         points_per=[100, 100], corrupt_frac=0.05, seed=1)
    assert ds.corrupted.size == 10


def test_synth_rank_equals_dimension_sum():
    ds = synth_subspaces(k=2, ambient=40, dim_per=[4, 6],
                         points_per=[20, 20], seed=2)
    s = np.linalg.svd(ds.data, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 10


def test_synth_in_sample_rank_matches_full_rank():
    # Any split whose in-sample part covers each subspace's dimension keeps
    # the full data rank (the sampled dictionary loses nothing)
    ds = synth_subspaces(k=2, ambient=40, dim_per=[4, 4],
                         points_per=[40, 40], seed=9)
    in_sample, _ = uniform_split(ds.data.shape[1], 40, seed=3)
    X = ds.data[:, in_sample]
    lab = ds.truth[in_sample]
    for i in range(2):
        assert np.linalg.matrix_rank(X[:, lab == i], tol=1e-8) == 4
    assert np.linalg.matrix_rank(X, tol=1e-8) == np.linalg.matrix_rank(
        ds.data, tol=1e-8
    )


def test_synth_validates_budgets():
    with pytest.raises(ValueError):
        synth_subspaces(k=2, ambient=5, dim_per=[3, 3], points_per=[10, 10])
    with pytest.raises(ValueError):
        synth_subspaces(k=1, ambient=10, dim_per=[4], points_per=[3])


def test_labeled_dataset_validates_lengths():
    # synth_subspaces gives one truth label per data column, and flags
    # corrupted columns among them
    for corrupt_frac in (0.0, 0.1, 1.0):
        ds = synth_subspaces(k=2, ambient=10, dim_per=[2, 3], points_per=[7, 8],
                             corrupt_frac=corrupt_frac, seed=4)
        assert ds.truth.shape == (ds.data.shape[1],) == (15,)
        assert ds.corrupted.size == round(15 * corrupt_frac)
        assert np.all((ds.corrupted >= 0) & (ds.corrupted < 15))


def test_sample_split_validates_partition():
    # uniform_split returns sorted, disjoint index arrays covering range(n)
    for n, p, seed in [(1, 1, 0), (10, 3, 1), (10, 10, 2), (257, 100, 3)]:
        in_sample, out_of_sample = uniform_split(n, p, seed)
        for part in (in_sample, out_of_sample):
            assert np.all(np.diff(part) > 0)
        assert (in_sample.size, out_of_sample.size) == (p, n - p)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([in_sample, out_of_sample])), np.arange(n)
        )


def test_data_matrix_rejects_non_finite(tmp_path):
    # load_csv refuses a non-finite cell, naming it
    path = tmp_path / "nan.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        read_csv(path)
