"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -rA`` or ``-s`` to see them).  Training-based criteria share
module-scoped runs.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from hypalign import autodiff as ad
from hypalign import datasynth as ds
from hypalign import fusion as fu
from hypalign import geometry as geo
from hypalign import objectives as obj
from hypalign import trainer as tr
from hypalign.autodiff import val
from hypalign.cli import run_cli

import reference_ops as ref

#: rho targeting a ~16.3% reading on the noise metric, the level measured
#: for production captioner output on real detection data; each noisy
#: caption here mentions 1 absent object out of 2, so the metric reads
#: 50*rho in expectation.
TARGET_NOISE_RHO = 0.326

ABLATION_SEEDS = (0, 1, 2, 3, 4)


def conclude(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --- criterion 1: manifold suite ---------------------------------------------


def test_criterion_1_manifold_suite():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        c = float(rng.uniform(0.25, 2.0))
        x = rng.normal(scale=rng.uniform(0.05, 1.0), size=(1, d))
        p = geo.exp_map_origin(x, c)
        worst = max(worst, abs(geo._inner(p, p)[0, 0] + 1.0 / c))
    elapsed = time.perf_counter() - start
    conclude(1, worst <= 1e-9 and elapsed < 5.0,
             f"10^4 lifts, max |<p,p>_H + 1/C| = {worst:.3e}, "
             f"{elapsed:.2f}s")


# --- criterion 2: gradient suite -----------------------------------------------


def _grad_coords_checked(build, params, rtol=1e-5, atol=1e-8):
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    grads = ref.gradients(tape, build(leaves))
    fd = ad.finite_diff(lambda p: float(val(build(p))), params)
    count = 0
    for name in params:
        a = np.asarray(grads[name], dtype=float)
        b = np.asarray(fd[name], dtype=float)
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch: {name}")
        count += a.size
    return count


def _entailment_config(rng, margin):
    while True:
        c_rows = rng.normal(scale=0.8, size=(3, 2))
        v_rows = rng.normal(scale=0.8, size=(3, 2))
        if min(np.linalg.norm(c_rows, axis=1)) < 0.25:
            continue
        slack = math.inf
        cpts = geo.exp_map_origin(c_rows, 1.1)
        vpts = geo.exp_map_origin(v_rows, 1.1)
        try:
            apertures = geo.half_aperture(cpts).value
            angles = geo.exterior_angle(cpts, vpts).value
        except ValueError:
            continue
        for i, a in enumerate(apertures):
            for j, ang in enumerate(angles[i]):
                slack = min(slack, abs(ang - a))
                if j != i:
                    e = max(0.0, ang - a)
                    slack = min(slack, abs(margin - e))
        if slack >= 1e-3:
            return c_rows, v_rows


def _array_op_cases(rng):
    """(op, build, params) for every row that is new or extended to arrays
    by the batched losses and the batched forward; each has at least 100
    coordinates.  Random weights reduce an array result to a scalar without
    symmetry.  The arrays of the cases of rows since deleted are still
    drawn, and discarded, so that every later case keeps its data."""
    shape = (10, 12)
    w = rng.normal(size=shape)
    rng.normal(size=(60, 50))    # the weights of the outer product's case

    def reduce(x, weights=w):
        return ref.sum(ref.mul(x, weights))

    normal = lambda: rng.normal(size=shape)
    between = lambda lo, hi: rng.uniform(lo, hi, size=shape)
    between(-2.0, 2.0)           # sinhc's
    cases = [("exp", lambda p: reduce(ad.exp(p["x"])), {"x": normal() * 0.5})]
    # sqrt's, arccosh's, asin's, arccos's, the clamps' and hinge's
    for lo, hi in ((0.3, 3), (1.2, 3.0), (-0.9, 0.9), (-0.9, 0.9)):
        between(lo, hi)
    for _ in range(3):
        normal()
    cases += [
        ("div", lambda p: reduce(ref.div(p["x"], p["y"])),
         {"x": normal(), "y": between(0.5, 2.0)}),
        ("add_scalar_array", lambda p: reduce(ad.exp(ref.add(p["a"], p["x"]))),
         {"a": 0.3, "x": normal() * 0.5}),
    ]
    # norm's, dot's, logsumexp's, scale_rows', outer's, sum's and pick's
    normal(), normal(), rng.normal(size=(8, 12)), normal()
    rng.normal(size=10), normal(), rng.normal(size=60), rng.normal(size=50)
    normal(), normal()
    cases.append(
        ("take_row_repeated",
         lambda p: reduce(ad.take_row(p["x"], [3, 0, 3, 9, 9, 9, 1, 0, 5,
                                               7])),
         {"x": normal()}))
    # softmax's and smooth_l1's
    normal(), rng.uniform(size=shape), between(-0.9, 0.9)
    between(1.1, 3.0), rng.choice([-1.0, 1.0], size=shape)
    cases.append(
        ("add_row_bias",
         lambda p: reduce(ad.exp(ref.add(p["x"], p["b"]))),
         {"x": normal() * 0.5, "b": rng.normal(size=12) * 0.5}))
    # the composite rows' inputs are drawn after the other cases' draws
    series = normal() * 0.5
    series[::3] *= 1e-5          # the lift's series branch
    near_apex = normal()
    near_apex[::4] *= 0.01       # apertures clamped at pi/2
    with_zero_row = normal() * 1.5
    with_zero_row[4] = 0.0
    # row 2 of y is row 5 of x: the distance's identical pair and the
    # angle's coincident pair, masked and weighted 0
    x_pair, y_pair = normal() * 0.5, rng.normal(size=(8, 12)) * 0.5
    y_pair[2] = x_pair[5]
    w_pair = w[:, :8].copy()
    w_pair[5, 2] = 0.0
    # the caption embedding's counts over a 12-token vocabulary, each
    # caption at least one token, and the positional sum's box features
    # and encoding
    counts = rng.integers(0, 3, size=shape) + np.eye(*shape)
    caption_aux = (counts, np.add.reduce(counts, axis=1, keepdims=True), 3.0)
    boxes = rng.uniform(size=(10, 4)), normal()

    def points(p, rows):
        return geo.LorentzPoint(p[rows], p["c"])

    return cases + [
        ("lift", lambda p: reduce(ad.lift(p["x"], p["c"])),
         {"x": series, "c": 1.3}),
        ("lorentz_dist",
         lambda p: reduce(geo.lorentz_distance(points(p, "x"),
                                               points(p, "y")), w_pair),
         {"x": x_pair, "y": y_pair, "c": 0.8}),
        ("cone_aperture",
         lambda p: reduce(geo.half_aperture(points(p, "x")).radians,
                          w[:, 0]),
         {"x": near_apex, "c": 1.2}),
        ("cone_angle",
         lambda p: reduce(geo.exterior_angle(points(p, "x"),
                                             points(p, "y")).radians,
                          w_pair),
         {"x": x_pair, "y": y_pair, "c": 0.8}),
        ("squash", lambda p: reduce(ad.squash(p["x"], aux=3.0)),
         {"x": with_zero_row}),
        ("caption_embed",
         lambda p: reduce(ad.caption_embed(p["t"], aux=caption_aux)),
         {"t": rng.normal(size=(12, 12))}),
        ("positional",
         lambda p: reduce(ad.positional(p["x"], p["p"], aux=boxes)),
         {"x": normal(), "p": rng.normal(size=(4, 12))}),
    ]


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    checked = {}

    def cls_build(p):
        return obj.classification_loss(p["v"], p["l"], [0, 2, 3], p["tau"])

    checked["classification"] = sum(
        _grad_coords_checked(cls_build,
                             {"v": rng.normal(size=(3, 4)),
                              "l": rng.normal(size=(4, 4)),
                              "tau": float(rng.uniform(0.3, 1.0))})
        for _ in range(4))

    def cap_build(p):
        return obj.euclidean_contrastive_loss(p["v"], p["c"], p["tau"])

    checked["euclidean_contrastive"] = sum(
        _grad_coords_checked(cap_build,
                             {"v": rng.normal(size=(3, 4)),
                              "c": rng.normal(size=(3, 4)),
                              "tau": float(rng.uniform(0.3, 1.0))})
        for _ in range(4))

    def hyp_build(p):
        curv = ad.exp(p["raw_curv"])
        return obj.hyperbolic_contrastive_loss(
            geo.exp_map_origin(p["v"], curv),
            geo.exp_map_origin(p["c"], curv), p["tau"])

    checked["hyperbolic_contrastive"] = sum(
        _grad_coords_checked(hyp_build,
                             {"v": rng.normal(size=(3, 4)),
                              "c": rng.normal(size=(3, 4)),
                              "tau": float(rng.uniform(0.3, 1.0)),
                              "raw_curv": float(rng.uniform(-0.3, 0.3))})
        for _ in range(4))

    margin = 0.1
    total = 0
    for _ in range(8):
        c_rows, v_rows = _entailment_config(rng, margin)

        def ent_build(p):
            curv = ad.exp(p["raw_curv"])
            return obj.entailment_loss(geo.exp_map_origin(p["c"], curv),
                                       geo.exp_map_origin(p["v"], curv),
                                       margin=margin)

        total += _grad_coords_checked(
            ent_build, {"c": c_rows, "v": v_rows, "raw_curv": 0.1})
    checked["entailment"] = total

    d = 8
    boxes = np.array([(0.1, 0.2, 0.5, 0.8), (0.3, 0.1, 0.9, 0.6)])
    text_np = rng.normal(scale=0.5, size=(3, d))
    # both regions attend over the same three tokens
    text_np, owner = np.vstack([text_np, text_np]), [0, 0, 0, 1, 1, 1]

    def fused_build(p):
        weights = fu.AttentionWeights(p["wq"], p["wk"], p["wv"], p["wout"],
                                      head_count=4)
        mlp = fu.FusionMlp(p["w1"], p["b1"], p["w2"], p["b2"])
        v_l = fu.cross_modal_attention(p["vis"], text_np, owner, weights)
        v_s = fu.positional_encode(p["vis"], fu.encode_boxes(boxes, d),
                                   p["proj"])
        fused = fu.fuse(v_l, v_s, mlp)
        curv = ad.exp(p["raw_curv"])
        return obj.hyperbolic_contrastive_loss(
            geo.exp_map_origin(fused, curv),
            geo.exp_map_origin(p["caps"], curv), p["tau"])

    checked["fused_path"] = _grad_coords_checked(fused_build, {
        "wq": rng.normal(scale=0.4, size=(d, d)),
        "wk": rng.normal(scale=0.4, size=(d, d)),
        "wv": rng.normal(scale=0.4, size=(d, d)),
        "wout": rng.normal(scale=0.4, size=(d, d)),
        "proj": rng.normal(scale=0.4, size=(4, d)),
        "w1": rng.normal(scale=0.4, size=(d, 2 * d)),
        "b1": rng.normal(scale=0.1, size=2 * d),
        "w2": rng.normal(scale=0.4, size=(2 * d, d)),
        "b2": rng.normal(scale=0.1, size=d),
        "vis": rng.normal(scale=0.5, size=(2, d)),
        "caps": rng.normal(scale=0.5, size=(2, d)),
        "tau": 0.8,
        "raw_curv": 0.1,
    })

    for op, build, params in _array_op_cases(rng):
        checked[f"op:{op}"] = _grad_coords_checked(build, params)

    elapsed = time.perf_counter() - start
    ok = all(n >= 100 for n in checked.values()) and elapsed < 60.0
    conclude(2, ok, "coordinates checked per loss: "
             + ", ".join(f"{k}={v}" for k, v in checked.items())
             + f"; {elapsed:.1f}s")


# --- criterion 3: oracle suite ---------------------------------------------------


def _brute_force_nms(boxes, threshold):
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i][4], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            ax1, ay1, ax2, ay2 = boxes[i][:4]
            bx1, by1, bx2, by2 = boxes[j][:4]
            iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
            ih = max(0.0, min(ay2, by2) - max(ay1, by1))
            inter = iw * ih
            union = ((ax2 - ax1) * (ay2 - ay1)
                     + (bx2 - bx1) * (by2 - by1) - inter)
            if inter / union >= threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


def test_criterion_3_oracle_suite():
    rng = np.random.default_rng(3)

    def rand_box():
        while True:
            x = np.sort(rng.uniform(0, 1, size=2))
            y = np.sort(rng.uniform(0, 1, size=2))
            if x[1] - x[0] >= 1e-3 and y[1] - y[0] >= 1e-3:
                return [float(x[0]), float(y[0]), float(x[1]), float(y[1]),
                        float(rng.uniform())]

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        boxes = [rand_box() for _ in range(n)]
        if n >= 2 and rng.uniform() < 0.25:
            boxes[1] = boxes[1][:4] + [boxes[0][4]]
        thr = float(rng.uniform(0.1, 0.9))
        if ds.nms(boxes, thr).tolist() != _brute_force_nms(boxes, thr):
            mismatches += 1

    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 5)})

    def corpus(*records):
        tokens, true, hall = zip(*records)
        return ds.Corpus.from_lists([[0.1, 0.1, 0.5, 0.5]] * len(records),
                                    tokens, true, hall)

    chair_cases = (
        ds.caption_noise_metric(corpus(([1, 2], [1, 2], [])), syn) == 0.0,
        ds.caption_noise_metric(corpus(([1], [2], [1]),
                                       ([2], [3], [2])), syn) == 100.0,
        abs(ds.caption_noise_metric(corpus(([1, 2, 3, 4], [1, 2, 3], [4])),
                                    syn) - 25.0) < 1e-12,
    )

    cells = ds.grid_sample(3)
    tiling_ok = (len(cells) == 9
                 and abs(sum((x2 - x1) * (y2 - y1)
                             for x1, y1, x2, y2 in cells.tolist())
                         - 1.0) <= 1e-12
                 and np.array_equal(ds.iou(cells, cells), np.eye(9)))

    ok = mismatches == 0 and all(chair_cases) and tiling_ok
    conclude(3, ok, f"nms mismatches {mismatches}/1000, "
             f"chair fixtures {'ok' if all(chair_cases) else 'BAD'}, "
             f"grid tiling {'exact' if tiling_ok else 'BAD'}")


# --- criterion 4: clean-corpus convergence ----------------------------------------


CLEAN_CONFIG = dict(objective="hyper", d=16, batch=16, steps=3000, lr=0.03,
                    weight_decay=0.015, scenes=180, categories=10,
                    leaves_per_category=5, rho=0.0, eval_every=25, seed=0,
                    early_stop=True)


@pytest.fixture(scope="module")
def clean_run():
    config = tr.ExperimentConfig(**CLEAN_CONFIG)
    tree, synonyms, records, _ = tr.default_corpus(config)
    start = time.perf_counter()
    state, metrics = tr.train(config, records=records, tree=tree,
                              synonyms=synonyms)
    elapsed = time.perf_counter() - start
    return records, state, metrics, elapsed


def test_criterion_4_clean_corpus_convergence(clean_run):
    records, state, metrics, elapsed = clean_run
    leaves = tr.ExperimentConfig(**CLEAN_CONFIG).categories * \
        tr.ExperimentConfig(**CLEAN_CONFIG).leaves_per_category
    last = metrics[-1]
    ok = (leaves >= 50 and len(records) >= 2000
          and last.recall_at_1 == 1.0 and last.containment_rate >= 0.95
          and last.step <= 5000 and elapsed < 600.0)
    conclude(4, ok,
             f"{leaves} leaves, {len(records)} captions, "
             f"recall@1={last.recall_at_1:.3f}, "
             f"containment={last.containment_rate:.3f} "
             f"at step {last.step}, {elapsed:.0f}s")


# --- criteria 5 and 6: directional ablation and norm hierarchy ---------------------


ABLATION_CONFIG = dict(d=16, batch=16, steps=600, lr=0.03,
                       weight_decay=0.015, scenes=60, categories=4,
                       leaves_per_category=3, rho=TARGET_NOISE_RHO,
                       eval_every=600)


@pytest.fixture(scope="module")
def ablation_runs():
    results = {}
    noise_levels = []
    for objective in ("hyper", "baseline", "det-only"):
        runs = []
        for seed in ABLATION_SEEDS:
            config = tr.ExperimentConfig(objective=objective, seed=seed,
                                         **ABLATION_CONFIG)
            tree, synonyms, records, _ = tr.default_corpus(config)
            if objective == "hyper":
                noise_levels.append(
                    ds.caption_noise_metric(records, synonyms))
            _, metrics = tr.train(config, records=records, tree=tree,
                                  synonyms=synonyms)
            runs.append(metrics[-1])
        results[objective] = runs
    return results, noise_levels


def _cohens_d(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pooled = math.sqrt((np.var(a, ddof=1) + np.var(b, ddof=1)) / 2.0)
    if pooled == 0.0:
        return math.inf if np.mean(a) != np.mean(b) else 0.0
    return float((np.mean(a) - np.mean(b)) / pooled)


def test_criterion_5_directional_ablation(ablation_runs):
    results, noise_levels = ablation_runs
    recalls = {name: [m.recall_at_1 for m in runs]
               for name, runs in results.items()}
    means = {name: float(np.mean(v)) for name, v in recalls.items()}
    noise_ok = all(abs(n - 16.3) <= 1.5 for n in noise_levels)
    ordered = (means["hyper"] >= means["baseline"] >= means["det-only"])
    d_hb = _cohens_d(recalls["hyper"], recalls["baseline"])
    d_bd = _cohens_d(recalls["baseline"], recalls["det-only"])
    conclude(5, noise_ok and ordered,
             f"noise% per corpus {[round(n, 2) for n in noise_levels]}; "
             f"mean recall@1 hyper={means['hyper']:.3f} >= "
             f"baseline={means['baseline']:.3f} >= "
             f"det-only={means['det-only']:.3f}; "
             f"effect sizes d(hyper,baseline)={d_hb:.2f}, "
             f"d(baseline,det-only)={d_bd:.2f}")


def test_criterion_6_norm_hierarchy(ablation_runs):
    results, _ = ablation_runs
    cap_norms = [m.mean_caption_norm for m in results["hyper"]]
    obj_norms = [m.mean_object_norm for m in results["hyper"]]
    _, p_value = stats.ttest_rel(cap_norms, obj_norms, alternative="less")
    all_below = all(c < o for c, o in zip(cap_norms, obj_norms))
    conclude(6, all_below and p_value < 0.01,
             f"mean lifted caption norm {np.mean(cap_norms):.2f} < "
             f"mean lifted object norm {np.mean(obj_norms):.2f} on "
             f"{len(cap_norms)} seeds, one-sided p={p_value:.2e}")


# --- criterion 7: CLI determinism ----------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path, capsys):
    args = [
        "--corpus-path", str(tmp_path / "corpus.jsonl"),
        "--synonyms-path", str(tmp_path / "synonyms.json"),
        "--meta-path", str(tmp_path / "meta.json"),
        "--metrics-path", str(tmp_path / "metrics.jsonl"),
        "--state-path", str(tmp_path / "state.json"),
        "--export-path", str(tmp_path / "embeddings.jsonl"),
        "--categories", "3", "--leaves-per-category", "3",
        "--scenes", "16", "--seed", "5", "--steps", "10",
        "--eval-every", "5", "--batch", "4",
    ]
    names = ("corpus.jsonl", "synonyms.json", "meta.json", "metrics.jsonl",
             "state.json", "embeddings.jsonl")
    snapshots = []
    for _ in range(2):
        assert run_cli(["gen-corpus"] + args) == 0
        assert run_cli(["train"] + args) == 0
        assert run_cli(["export-embeddings"] + args) == 0
        capsys.readouterr()
        snapshots.append({n: (tmp_path / n).read_bytes() for n in names})
    identical = snapshots[0] == snapshots[1]
    conclude(7, identical,
             "gen-corpus/train/export repeated with identical config and "
             "seed produce byte-identical corpus, metrics, state, and "
             "export files" if identical else "outputs differ across runs")
