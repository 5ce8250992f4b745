"""PCA fitting, projection, reconstruction and CSV export."""

import numpy as np
import pytest

from conftest import principal_axis_2x2, sample_from_matrix
from peelsort.errors import ParameterError
from peelsort.ingest import read_csv
from peelsort.reduce import (export_projections, export_scatter_pairs, fit_pca, project,
                             reconstruct)


def random_sample(n=40, d=12, channels=2, seed=0, scale=None):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    if scale is not None:
        rows *= scale
    return sample_from_matrix(rows, channels=channels)


def test_rank_one_data():
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(8)
    direction /= np.linalg.norm(direction)
    coef = rng.standard_normal(30)
    rows = np.outer(coef, direction) + 0.5
    model = fit_pca(sample_from_matrix(rows))
    assert model.explained_variance[0] == pytest.approx(np.var(coef, ddof=1), rel=1e-9)
    assert np.all(model.explained_variance[1:] <= 1e-9 * model.explained_variance[0])


def test_toy_first_component_matches_hand_eigenvector():
    xy = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.5], [4.0, 4.0]])
    rows = np.zeros((4, 4))
    rows[:, :2] = xy
    model = fit_pca(sample_from_matrix(rows))
    lam, v = principal_axis_2x2(xy)
    expected = np.zeros(4)
    expected[:2] = v
    assert np.allclose(model.components[0], expected, atol=1e-6)
    assert model.explained_variance[0] == pytest.approx(lam, rel=1e-9)


def test_full_reconstruction():
    sample = random_sample()
    model = fit_pca(sample)
    coords = project(sample, model, model.available)
    rebuilt = reconstruct(model, coords)
    assert np.allclose(rebuilt, sample.cuts.reshape(len(sample), -1), atol=1e-9)


def test_components_orthonormal():
    model = fit_pca(random_sample(seed=3))
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(model.available), atol=1e-9)


def test_variance_bookkeeping():
    sample = random_sample(seed=4, scale=np.linspace(0.1, 3.0, 12))
    model = fit_pca(sample)
    flat = sample.cuts.reshape(len(sample), -1)
    total = np.sum(np.var(flat, axis=0, ddof=1))
    assert np.sum(model.explained_variance) == pytest.approx(total, rel=1e-6)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)
    assert np.all(model.explained_variance >= 0)


def test_project_mean_is_zero():
    sample = random_sample(seed=5)
    model = fit_pca(sample)
    target = sample_from_matrix(model.mean[None, :].repeat(2, axis=0))
    coords = project(target, model, 4)
    assert np.allclose(coords, 0.0, atol=1e-9)


def test_project_recovers_component_coefficient():
    sample = random_sample(seed=6)
    model = fit_pca(sample)
    j, c = 2, 1.7
    row = model.mean + c * model.components[j]
    coords = project(sample_from_matrix(np.vstack([row, row])), model, model.available)
    expected = np.zeros(model.available)
    expected[j] = c
    assert np.allclose(coords[0], expected, atol=1e-9)


def test_projection_distances_monotone_in_k():
    sample = random_sample(n=20, seed=7)
    model = fit_pca(sample)
    flat = sample.cuts.reshape(len(sample), -1)
    full = np.linalg.norm(flat[3] - flat[11])
    previous = 0.0
    for k in range(1, model.available + 1):
        coords = project(sample, model, k)
        dist = np.linalg.norm(coords[3] - coords[11])
        assert dist >= previous - 1e-12
        assert dist <= full + 1e-9
        previous = dist
    assert previous == pytest.approx(full, abs=1e-9)


def test_sign_convention_and_determinism():
    sample = random_sample(seed=8)
    a = fit_pca(sample)
    b = fit_pca(sample)
    assert np.array_equal(a.components, b.components)
    for comp in a.components:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_k_validation():
    sample = random_sample(seed=9)
    model = fit_pca(sample)
    with pytest.raises(ParameterError):
        project(sample, model, 0)
    with pytest.raises(ParameterError):
        project(sample, model, model.available + 1)


def test_single_event_rejected():
    with pytest.raises(ParameterError):
        fit_pca(sample_from_matrix(np.ones((1, 8))))


def test_export_round_trip(tmp_path):
    sample = random_sample(n=3, seed=10)
    model = fit_pca(sample)
    coords = project(sample, model, 2)
    assert coords.shape == (3, 2)
    path = tmp_path / "proj.csv"
    export_projections(coords, sample.peaks, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "event_ref,pc1,pc2"
    # every float is written at 17 significant digits, so it reads back bit for bit
    rows = read_csv(path, ["event_ref", "pc1", "pc2"])
    assert np.array_equal(np.array([row[1:] for row in rows], dtype=np.float64), coords)
    assert [int(row[0]) for row in rows] == sample.peaks.tolist()


def test_export_round_trip_without_events(tmp_path):
    # what export_projections writes when no event was projected
    path = tmp_path / "proj.csv"
    export_projections(np.empty((0, 3)), np.empty(0, dtype=np.int64), path)
    assert path.read_text() == "event_ref,pc1,pc2,pc3\n"
    assert read_csv(path, ["event_ref", "pc1", "pc2", "pc3"]) == []


def test_scatter_pairs_files(tmp_path):
    sample = random_sample(n=10, seed=11)
    model = fit_pca(sample)
    export_scatter_pairs(project(sample, model, 4), sample.peaks, tmp_path / "scatter")
    files = sorted((tmp_path / "scatter").glob("*.csv"))
    assert [f.name for f in files] == [f"pc{i}_pc{j}.csv" for i in range(1, 5)
                                       for j in range(i + 1, 5)]
    for f in files:
        header = f.read_text().split("\n", 1)[0]
        assert header.count("pc") == 2
