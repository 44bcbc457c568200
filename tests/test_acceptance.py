"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``) and enforcing its stated
tolerance and time budget.

Criterion 8 runs against a real UCI PenDigits/Shuttle-style CSV when
``AEGRLOF_PENDIGITS_CSV`` points at one (16 numeric feature columns plus a
binary ``label`` column, header row); otherwise it uses a structurally
similar synthetic surrogate at the same split sizes.
"""

import json
import os
import time

import numpy as np

from aegrlof import autoencoder as ae
from aegrlof import cli, data, lof, metrics, pipeline

from conftest import (
    finite_difference_grads,
    make_embedded_blob,
    make_pendigits_like,
    naive_lof_scores,
    pair_count_auc,
    reference_plain_sgd,
    write_dataset_csv,
)


def _criterion(name: str, ok: bool, detail: str, elapsed: float,
               budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_architecture_table():
    """Bottleneck widths reproduce every published architecture row exactly."""
    start = time.time()
    table = [(16, 5), (9, 4), (57, 8), (1558, 40),
             (259, 17), (122, 12), (196, 15), (40, 7)]
    hits = sum(ae.bottleneck_width(n) == m for n, m in table)
    for n, _ in table:
        net = ae.build_architecture(n, seed=0)
        assert net.widths[2] == ae.bottleneck_width(n)
        assert net.widths == net.widths[::-1]
    _criterion("criterion-1 architecture table", hits == 8,
               f"{hits}/8 bottleneck widths exact", time.time() - start, 1.0)


def test_criterion_2_gradient_oracle():
    """Analytic backprop matches central finite differences everywhere."""
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 13))
        batch_rows = int(rng.integers(1, 9))
        net = ae.build_architecture(n, seed=trial)
        batch = rng.normal(size=(batch_rows, n))
        acts = ae.forward(net.params, batch)
        analytic = ae.backward(net.params, acts, batch)
        numeric = finite_difference_grads(net, batch, step=1e-5)
        for (dw, db), (fw, fb) in zip(analytic, numeric):
            for a, f in ((dw, fw), (db, fb)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    _criterion("criterion-2 gradient oracle", worst < 1e-4,
               f"worst relative error {worst:.2e} over 50 networks",
               time.time() - start, 30.0)


def test_criterion_3_reversal_identity():
    """A step and its inverted step cancel; disabling reversal reproduces a
    plain-SGD trainer parameter for parameter.

    The 100 random (theta, g, lr) triples use dyadic-rational values, which
    are exactly representable in binary floating point: the check then
    isolates the update rule itself (any hidden momentum, decay, or noise
    term breaks equality) rather than IEEE-754 rounding of arbitrary reals.
    """
    start = time.time()
    rng = np.random.default_rng(303)
    exact = 0
    for _ in range(100):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        theta_w = rng.integers(-(2**20), 2**20, size=(rows, cols)) / 2.0**10
        theta_b = rng.integers(-(2**20), 2**20, size=rows) / 2.0**10
        grad_w = rng.integers(-(2**20), 2**20, size=(rows, cols)) / 2.0**10
        grad_b = rng.integers(-(2**20), 2**20, size=rows) / 2.0**10
        lr = 2.0 ** -int(rng.integers(1, 7))
        net = ae.Network([(theta_w.copy(), theta_b.copy())])
        ae.sgd_step(net.params, [(grad_w, grad_b)], lr)
        ae.sgd_step(net.params, [(-grad_w, -grad_b)], lr)
        exact += (np.array_equal(net.params[0][0], theta_w)
                  and np.array_equal(net.params[0][1], theta_b))

    rng_data = np.random.default_rng(404)
    train_ds = data.Dataset(rng_data.normal(size=(90, 7)) * 0.5,
                            [f"f{i}" for i in range(7)])
    val_ds = data.Dataset(rng_data.normal(size=(30, 7)) * 0.5,
                          train_ds.feature_names)
    cfg = ae.TrainConfig(max_epochs=12, batch_size=16, learning_rate=0.05,
                         gr_start_epoch=12, patience=5)
    net0 = ae.build_architecture(7, seed=11)
    trained, history = ae.train(net0, train_ds, val_ds, cfg, seed=11)
    reference, _ = reference_plain_sgd(net0, train_ds, val_ds, cfg, seed=11)
    params_equal = all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(trained.params, reference.params)
    )
    no_reversals = not any(h.reversal_applied for h in history)

    ok = exact == 100 and params_equal and no_reversals
    _criterion(
        "criterion-3 reversal identity", ok,
        f"{exact}/100 exact restores; plain-SGD equality={params_equal}",
        time.time() - start, 10.0,
    )


def test_criterion_4_lof_oracle_equivalence():
    """Vectorized LOF equals the from-definition oracle to 1e-9."""
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(25, 301))
        d = int(rng.integers(1, 11))
        min_pts = int(rng.integers(2, 21))
        reference = rng.normal(size=(n, d))
        n_queries = 300 if trial == 0 else 60
        queries = rng.normal(size=(n_queries, d))
        got = lof.score(lof.fit(reference, min_pts), queries)
        want = naive_lof_scores(reference, min_pts, queries)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _criterion("criterion-4 lof oracle equivalence", worst < 1e-9,
               f"worst score deviation {worst:.2e} over 50 reference sets",
               time.time() - start, 60.0)


def test_criterion_5_lof_qualitative_claims():
    """Interior lattice points score ~1; a distant query scores above 1."""
    start = time.time()
    xs, ys = np.meshgrid(np.arange(15.0), np.arange(15.0))
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    model = lof.fit(grid, min_pts=8)
    interior = np.array([[x, y] for x in range(4, 11) for y in range(4, 11)],
                        dtype=float)
    interior_scores = lof.score(model, interior)
    lattice_ok = bool(np.all(np.abs(interior_scores - 1.0) <= 0.05))

    rng = np.random.default_rng(606)
    cluster = rng.normal(size=(150, 3))
    cluster /= max(1.0, np.abs(cluster).max())  # inside the unit ball
    far_model = lof.fit(cluster, min_pts=10)
    far_score = float(lof.score(far_model, np.array([[100.0, 0.0, 0.0]]))[0])

    ok = lattice_ok and far_score > 1.0
    _criterion(
        "criterion-5 lof qualitative claims", ok,
        f"interior max |score-1|={np.max(np.abs(interior_scores - 1)):.3f}, "
        f"far-query score={far_score:.1f}",
        time.time() - start, 5.0,
    )


def test_criterion_6_metric_oracles():
    """ROC AUC equals pair counting exactly; PR AUC and Wilcoxon match
    hand-derived values."""
    start = time.time()
    rng = np.random.default_rng(707)
    exact = 0
    for _ in range(100):
        n = int(rng.integers(5, 501))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)  # force ties
        exact += metrics.roc_auc(scores, labels) == pair_count_auc(scores, labels)

    pr = metrics.pr_auc([0.9, 0.7, 0.5, 0.3], [1, 0, 1, 0])
    pr_ok = abs(pr - 5.0 / 6.0) < 1e-15

    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = a - 0.1
    one_sided = metrics.wilcoxon_signed_rank(a, b, alternative="greater")
    wilcoxon_ok = one_sided.p_value == 1.0 / 32.0

    ok = exact == 100 and pr_ok and wilcoxon_ok
    _criterion(
        "criterion-6 metric oracles", ok,
        f"roc exact {exact}/100, pr_auc={pr:.6f} (want 5/6), "
        f"wilcoxon one-sided p={one_sided.p_value}",
        time.time() - start, 10.0,
    )


def test_criterion_7_synthetic_directional():
    """On an embedded blob with far anomalies: pruning never hurts the
    gradient-reversal pipeline vs plain latent LOF, and every variant beats
    the random-ranking baseline (test-set prevalence) on >= 4/5 seeds."""
    start = time.time()
    cfg = ae.TrainConfig(max_epochs=30, batch_size=16, learning_rate=0.05,
                         gr_start_epoch=5, patience=8)
    pr_by_variant: dict[tuple[str, str], list[float]] = {}
    prevalence_by_seed: list[float] = []
    for seed in range(5):
        blob = make_embedded_blob(seed)
        train, val, test = data.split(blob, data.SplitSpec(seed=seed))
        norm = data.normalize_fit(train)
        train, val, test = (data.normalize_apply(norm, s)
                            for s in (train, val, test))
        prevalence_by_seed.append(float(test.labels.mean()))
        # one plain and one reversal network per seed serve every head
        networks = dict(zip((False, True), pipeline.train_networks(
            [(seed, False), (seed, True)], train, val, test, cfg)))
        for detector, modifier in pipeline.VARIANT_MATRIX:
            spec = pipeline.VariantSpec(detector, modifier, seed=seed)
            network = (None if detector == "lof_raw"
                       else networks[detector == "aegr_lof"])
            run = pipeline.run_variant(spec, train, test, 20, network)
            pr_by_variant.setdefault((detector, modifier), []).append(
                metrics.pr_auc(run.scores, test.labels)
            )

    aegr_prune = float(np.mean(pr_by_variant[("aegr_lof", "prune")]))
    ae_lof_none = float(np.mean(pr_by_variant[("ae_lof", "none")]))
    direction_ok = aegr_prune >= ae_lof_none

    baseline_failures = []
    for key, prs in pr_by_variant.items():
        beats = sum(p > prev for p, prev in zip(prs, prevalence_by_seed))
        if beats < 4:
            baseline_failures.append(f"{key[0]}/{key[1]}:{beats}/5")

    ok = direction_ok and not baseline_failures
    _criterion(
        "criterion-7 synthetic directional", ok,
        f"aegr/prune mean PR {aegr_prune:.3f} vs ae_lof/none {ae_lof_none:.3f}; "
        + (f"below-baseline: {baseline_failures}" if baseline_failures
           else "all 8 variants beat prevalence on >= 4/5 seeds"),
        time.time() - start, 300.0,
    )


def test_criterion_8_desk_scale_real_data(tmp_path):
    """Full benchmark matrix at published split sizes through the CLI,
    well-formed report, and the pruning pipeline beats stand-alone LOF in
    PR AUC on >= 3/5 seeds."""
    start = time.time()
    user_csv = os.environ.get("AEGRLOF_PENDIGITS_CSV")
    if user_csv:
        csv_path = user_csv
        with open(user_csv, encoding="utf-8") as fh:
            n_total = sum(1 for _ in fh) - 1
    else:
        csv_path = str(tmp_path / "pendigits_like.csv")
        write_dataset_csv(csv_path, make_pendigits_like())
        n_total = 2286

    # PenDigits split sizes 1247/312/727 expressed as fractions of 2286
    config = {
        "dataset": {"path": csv_path, "has_header": True,
                    "schema": {"label": "label"}},
        "split": {"train_fraction": 1247 / 2286, "val_fraction": 312 / 2286,
                  "test_fraction": 727 / 2286, "seed": 0},
        "train": {"max_epochs": 25, "learning_rate": 0.05,
                  "gr_start_epoch": 5, "patience": 8},
        "lof": {"min_pts": 20},
        "variants": "matrix",
        "seeds": [0, 1, 2, 3, 4],
        "wilcoxon_pairs": [["aegr_lof/prune", "lof_raw/none"]],
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))

    assert cli.main(["prepare", "--config", str(config_path)]) == 0
    exit_code = cli.main(["run", "--config", str(config_path)])
    report = json.loads(
        (tmp_path / "out" / "report.json").read_text()
    )["report"]

    rows_ok = len(report["rows"]) == 40 and not report["failures"]
    matrix_seen = {(r["detector"], r["modifier"]) for r in report["rows"]}
    matrix_ok = matrix_seen == set(pipeline.VARIANT_MATRIX)
    values_ok = all(
        0.0 <= r["pr_auc"] <= 1.0 and 0.0 <= r["roc_auc"] <= 1.0
        for r in report["rows"]
    )
    if n_total != 2286:
        sizes_ok = True  # user-supplied file: proportions, not absolute sizes
    else:
        summary = json.loads(
            (tmp_path / "out" / "prepare_summary.json").read_text()
        )
        sizes_ok = summary["split_sizes"] == {"train": 1247, "val": 312,
                                              "test": 727}

    pr = {(r["detector"], r["modifier"], r["seed"]): r["pr_auc"]
          for r in report["rows"]}
    wins = sum(
        pr[("aegr_lof", "prune", s)] > pr[("lof_raw", "none", s)]
        for s in range(5)
    )

    ok = (exit_code == 0 and rows_ok and matrix_ok and values_ok
          and sizes_ok and wins >= 3)
    _criterion(
        "criterion-8 desk-scale benchmark", ok,
        f"exit={exit_code}, rows={len(report['rows'])}/40, "
        f"aegr/prune beats lof_raw on {wins}/5 seeds",
        time.time() - start, 900.0,
    )


def test_criterion_9_pruning_contract():
    """Pruning strictly shrinks (unless all errors equal) and survivors'
    mean error never exceeds the overall mean; enforced in-pipeline."""
    start = time.time()
    rng = np.random.default_rng(909)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 80))
        res = (np.full(n, float(rng.uniform(0, 2))) if rng.random() < 0.15
               else rng.exponential(size=n))
        latents = rng.normal(size=(n, 4))
        kept, mask = pipeline.prune(latents, res)
        assert kept.shape[0] >= 1
        assert res[mask].mean() <= res.mean() + 1e-12
        if not np.all(res == res[0]):
            assert kept.shape[0] < n
        else:
            assert kept.shape[0] == n
        checked += 1

    # the same contract is live inside a pipeline run
    blob = make_embedded_blob(0, n_normal=240, n_anom=12)
    train, val, test = data.split(blob, data.SplitSpec(seed=0))
    norm = data.normalize_fit(train)
    train, val, test = (data.normalize_apply(norm, s)
                        for s in (train, val, test))
    cfg = ae.TrainConfig(max_epochs=10, batch_size=16, learning_rate=0.05,
                         gr_start_epoch=4, patience=5)
    [network] = pipeline.train_networks([(0, True)], train, val, test, cfg)
    run = pipeline.run_variant(pipeline.VariantSpec("aegr_lof", "prune", seed=0),
                               train, test, 15, network)
    in_pipeline_ok = run.metadata["rows_after_prune"] < train.n_rows

    _criterion(
        "criterion-9 pruning contract",
        checked == 200 and in_pipeline_ok,
        f"{checked}/200 randomized checks plus in-pipeline metadata",
        time.time() - start, 30.0,
    )
