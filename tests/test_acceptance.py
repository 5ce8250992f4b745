"""End-to-end acceptance gate: ten checks, one printed line each.

Every check prints a single PASS/FAIL line with the measured numbers, so a
full run reads as a scorecard; the assertion follows the print so a failing
check still leaves its line in the output.
"""

import time

import numpy as np

from conftest import (ACCEPTANCE_SEED, analytic_gauss_template, ar1_noise,
                      gauss_rows, gauss_rows_derivative, grid_delta_reference,
                      hungarian_agreement, normalized_recording, shift_rows,
                      template_waves, truth_partition)
from peelsort.cli import main
from peelsort.cluster import kmeans
from peelsort.detect import DetectionParams
from peelsort.events import CutSpec
from peelsort.jitter import estimate_jitter
from peelsort.peel import Catalogue, peel
from peelsort.preprocess import MAD_SCALE, normalize
from peelsort.reduce import project, reconstruct
from peelsort.synth import (NeuronSpec, locust_like_scenario,
                            render_spike_train, score_sorting)


def _check(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_acceptance_01_normalization(locust_truth):
    t0 = time.perf_counter()
    normed = normalize(locust_truth.recording)
    elapsed = time.perf_counter() - t0
    meds = np.median(normed.data, axis=1)
    mads = MAD_SCALE * np.median(np.abs(normed.data - meds[:, None]), axis=1)
    med_dev = float(np.abs(meds).max())
    mad_dev = float(np.abs(mads - 1.0).max())
    ok = med_dev <= 1e-9 and mad_dev <= 1e-9 and elapsed < 1.0
    _check(1, ok, f"normalize 4x300000: |median| <= {med_dev:.1e}, "
                  f"|MAD - 1| <= {mad_dev:.1e}, {elapsed:.3f} s")


def test_acceptance_02_jitter_estimators_on_bandlimited_shifts():
    waves = analytic_gauss_template((1.0, 0.6, 0.3, 0.1), 10.0, 3.0, 45)
    t0 = time.perf_counter()
    lin_errs, newt_errs, oracle_devs = [], [], []
    for delta in (-0.5, -0.25, 0.0, 0.25, 0.5):
        g = shift_rows(waves[0, 0], delta)
        fit = estimate_jitter(g, waves)
        d_lin, d_newt = fit.delta_linear[0], fit.delta[0]
        ref = grid_delta_reference(g, waves[0, 0], half=0.6, step=5e-3)
        lin_errs.append(abs(d_lin - delta))
        newt_errs.append(abs(d_newt - delta))
        oracle_devs.append(abs(d_newt - ref))
    elapsed = time.perf_counter() - t0
    ok = (max(lin_errs) <= 0.05 and max(newt_errs) <= 0.05
          and np.mean(newt_errs) <= np.mean(lin_errs) + 1e-12
          and max(oracle_devs) <= 0.01 and elapsed < 5.0)
    _check(2, ok, f"shift recovery: max linear err {max(lin_errs):.4f}, "
                  f"max Newton err {max(newt_errs):.4f}, mean Newton "
                  f"{np.mean(newt_errs):.2e} <= mean linear {np.mean(lin_errs):.2e}, "
                  f"grid-oracle dev <= {max(oracle_devs):.1e}, {elapsed:.2f} s")


def test_acceptance_03_jitter_variance_law():
    # 2000 noise-free events jittered uniformly on (-1/2, 1/2): the
    # point-wise standard deviation must track |f'| / sqrt(12)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    amp, sig, width = 10.0, 3.0, 45
    u = np.arange(width) - width // 2
    deltas = rng.uniform(-0.5, 0.5, 2000)
    events = amp * np.exp(-0.5 * ((u[None, :] + deltas[:, None]) / sig) ** 2)
    std = events.std(axis=0, ddof=1)
    fprime = np.abs(-amp * (u / sig ** 2) * np.exp(-0.5 * (u / sig) ** 2))
    predicted = fprime / np.sqrt(12.0)
    mask = fprime >= 0.2 * fprime.max()
    rel = np.abs(std[mask] - predicted[mask]) / predicted[mask]
    ok = float(rel.max()) <= 0.15
    _check(3, ok, f"point-wise std vs |f'|/sqrt(12): max rel dev "
                  f"{rel.max():.4f} over {int(mask.sum())} positions (<= 0.15)")


def test_acceptance_04_estimator_exactness():
    gains = (1.0, 0.5)
    f = gauss_rows(gains, 10.0, 3.0, 45)
    f1 = gauss_rows_derivative(gains, 10.0, 3.0, 45)
    c = 0.3
    d_lin = estimate_jitter(f + c * f1, analytic_gauss_template(gains, 10.0, 3.0, 45)).delta_linear
    lin_dev = abs(d_lin[0] - c)
    flat = np.stack([f, f1, np.zeros_like(f)])[:, None]
    g = f + 0.37 * f1
    # one Newton step from 0.37 and one from -0.2
    newt = estimate_jitter(np.stack([g, g]), flat, np.array([[0.37], [-0.2]])).delta
    newt_dev = float(np.abs(newt - 0.37).max())
    ok = lin_dev <= 1e-12 and newt_dev <= 1e-12
    _check(4, ok, f"linear exact on g = f + c f': dev {lin_dev:.1e}; Newton "
                  f"exact when f'' = 0: dev {newt_dev:.1e} (<= 1e-12)")


def test_acceptance_05_superposition_resolution():
    # two mostly channel-disjoint cells; the weaker one sits at SNR 10
    rows_a = gauss_rows((1.0, 0.06), 14.0, 2.5, 45)
    rows_b = gauss_rows((0.06, 1.0), 10.0, 3.5, 45)
    waves = template_waves(rows_a, rows_b)
    order = np.argsort([-np.abs(f).sum() for f in waves[0]], kind="stable")  # largest first
    catalogue = Catalogue(order, waves[:, order], CutSpec(22, 22), 15000.0)
    worst_err, worst_rounds, ids_ok, n_ok = 0.0, 0, True, True
    for offset in (5, 8, 15):
        n = 6000
        t_a = 3000.3
        t_b = t_a + offset
        tr_a, _ = render_spike_train(NeuronSpec(template=rows_a, rate_hz=1.0),
                                     np.array([t_a]), n)
        tr_b, _ = render_spike_train(NeuronSpec(template=rows_b, rate_hz=1.0),
                                     np.array([t_b]), n)
        noise = ar1_noise(2, n, sigma=1.0, ar=0.4, seed=ACCEPTANCE_SEED)
        rec = normalized_recording(noise + tr_a + tr_b)
        train, decisions, _ = peel(rec, catalogue, DetectionParams())
        got = sorted(zip(train.neuron.tolist(), train.corrected_time.tolist()))
        n_ok = n_ok and len(got) == 2
        ids_ok = ids_ok and [g[0] for g in got] == [0, 1]
        if len(got) == 2:
            worst_err = max(worst_err, abs(got[0][1] - t_a), abs(got[1][1] - t_b))
        worst_rounds = max(worst_rounds, decisions.round.max(initial=-1) + 1)
    ok = n_ok and ids_ok and worst_err <= 0.5 and worst_rounds <= 3
    _check(5, ok, f"superpositions at offsets 5/8/15, SNR 10: both spikes "
                  f"recovered with correct ids, worst time err {worst_err:.3f} "
                  f"samples (<= 0.5), {worst_rounds} rounds (<= 3)")


def test_acceptance_06_locust_benchmark(locust_run):
    train, truth = locust_run["train"], locust_run["truth"]
    score = score_sorting(zip(train.neuron, train.corrected_time), truth.spikes, tolerance=1.0)
    recovery, misassign = score["recovery"], score["misassignment"]
    wall = locust_run["wall_s"]
    ok = recovery >= 0.90 and misassign <= 0.05 and wall <= 60.0
    _check(6, ok, f"10-neuron benchmark: recovery {recovery:.1%} (>= 90%), "
                  f"misassignment {misassign:.1%} (<= 5%), sort wall "
                  f"{wall:.2f} s (<= 60)")


def test_acceptance_07_peeling_energy_and_fixed_point(locust_run):
    whole = locust_run["whole"]
    residual = locust_run["residual"]
    decisions = locust_run["decisions"]
    accepted = decisions.take(decisions.classified)
    strict = bool((accepted.rss_after < accepted.rss_before).all())
    e_in = float(np.sum(whole.data ** 2))
    e_res = float(np.sum(residual.data ** 2))
    train2, _, res2 = peel(residual, locust_run["catalogue"],
                           locust_run["params"])
    fixed = len(train2) == 0 and np.array_equal(res2.data, residual.data)
    ok = strict and e_res <= e_in and fixed
    _check(7, ok, f"peeling: {len(accepted)} window fits all strictly "
                  f"decrease, residual energy {e_res:.0f} <= input {e_in:.0f}, "
                  f"re-peel accepts {len(train2)} and leaves the residual "
                  f"byte-identical")


def test_acceptance_08_clustering_determinism_and_quality(locust_run):
    coords = locust_run["projected"]
    k1 = kmeans(coords, 10, seed=0, restarts=10)
    k2 = kmeans(coords, 10, seed=0, restarts=10)
    same = np.array_equal(k1.labels, k2.labels)
    truth_labels = truth_partition(locust_run["truth"], locust_run["sample"],
                                   locust_run["keep"])
    mask = truth_labels >= 0
    agreement = (hungarian_agreement(locust_run["result"].labels[mask],
                                     truth_labels[mask]) / mask.sum())
    ok = same and agreement >= 0.95
    _check(8, ok, f"k-means: identical labels on reruns with a fixed seed, "
                  f"{agreement:.1%} label agreement with ground truth "
                  f"(>= 95%) over {int(mask.sum())} events")


def test_acceptance_09_pca_exactness(locust_run):
    model = locust_run["pca"]
    clean = locust_run["clean"]
    X = clean.cuts.reshape(len(clean), -1)
    gram = model.components @ model.components.T
    ortho_dev = float(np.abs(gram - np.eye(gram.shape[0])).max())
    full = project(clean, model, model.available)
    recon_dev = float(np.abs(reconstruct(model, full) - X).max())
    total_var = float(((X - X.mean(axis=0)) ** 2).sum() / (len(clean) - 1))
    var_dev = abs(model.explained_variance.sum() - total_var) / total_var
    ok = ortho_dev <= 1e-9 and recon_dev <= 1e-9 and var_dev <= 1e-6
    _check(9, ok, f"PCA: orthonormality dev {ortho_dev:.1e} (<= 1e-9), full "
                  f"reconstruction dev {recon_dev:.1e} (<= 1e-9), variance "
                  f"sum rel dev {var_dev:.1e} (<= 1e-6)")


def test_acceptance_10_cli_reproducibility(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", str(ACCEPTANCE_SEED),
                 "--synth-duration-s", "20"]) == 0
    files = ",".join(str(sim / f"channel_{i}.f64.gz") for i in range(4))
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(["sort", "--run-output-dir", str(out),
                     "--data-files", files]) == 0
        outputs.append(out)
    same_spikes = ((outputs[0] / "spikes.csv").read_bytes()
                   == (outputs[1] / "spikes.csv").read_bytes())
    same_rest = ((outputs[0] / "unclassified.csv").read_bytes()
                 == (outputs[1] / "unclassified.csv").read_bytes())
    n_lines = len((outputs[0] / "spikes.csv").read_text().splitlines()) - 1
    ok = same_spikes and same_rest
    _check(10, ok, f"sort twice on the same input: spike and unclassified "
                   f"CSVs byte-identical ({n_lines} spikes)")
