"""Trainer tests: init, stepping, retrieval, hierarchy, serialization."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from hypalign import autodiff as ad
from hypalign import trainer as tr
from hypalign.datasynth import Corpus
from hypalign.geometry import (exp_map_origin, exterior_angle, half_aperture,
                               lorentz_distance)

import reference_ops as ref
from reference_state import state_to_json


def tiny_config(**kw):
    # 16 scenes so the seed-stable hash yields a held-out scene (id 15)
    base = dict(objective="hyper", d=16, batch=6, steps=20, lr=0.01,
                scenes=16, categories=3, leaves_per_category=3,
                eval_every=10, seed=0)
    base.update(kw)
    return tr.ExperimentConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    cfg = tiny_config()
    tree, syn, records, gt = tr.default_corpus(cfg)
    return cfg, tree, syn, records


# --- config -------------------------------------------------------------------


def test_config_rejects_bad_fields_by_name():
    with pytest.raises(ValueError, match="objective"):
        tiny_config(objective="nonsense")
    with pytest.raises(ValueError, match="rho"):
        tiny_config(rho=1.0)
    with pytest.raises(ValueError, match=r"\bd\b"):
        tiny_config(d=12)
    with pytest.raises(ValueError, match="tau_init"):
        tiny_config(tau_init=0.0)
    with pytest.raises(ValueError, match="batch"):
        tiny_config(batch=0)


# --- init ----------------------------------------------------------------------


def test_init_deterministic(corpus):
    cfg, tree, syn, _ = corpus
    s1 = tr.init(cfg, tree, syn)
    s2 = tr.init(cfg, tree, syn)
    assert s1.params.keys() == s2.params.keys()
    for k in s1.params:
        a, b = s1.params[k], s2.params[k]
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_init_reparameterizations(corpus):
    cfg, tree, syn, _ = corpus
    state = tr.init(cfg, tree, syn)
    assert math.exp(state.params["curv_raw"]) == pytest.approx(cfg.c_init,
                                                               abs=1e-9)
    assert math.exp(state.params["log_tau"]) == pytest.approx(cfg.tau_init,
                                                              rel=1e-12)


def test_init_scale_statistics():
    # enough table entries for a tight empirical std estimate
    cfg = tiny_config(d=32, categories=25, leaves_per_category=8)
    state = tr.init(cfg)
    entries = np.concatenate([state.params["token_table"].ravel(),
                              state.params["object_table"].ravel()])
    assert entries.size >= 10_000
    assert abs(float(np.std(entries)) - tr.INIT_SCALE) <= 0.1 * tr.INIT_SCALE


# --- step ------------------------------------------------------------------------


def test_step_zero_lr_changes_only_moments(corpus):
    cfg, tree, syn, records = corpus
    cfg0 = tiny_config(lr=0.0)
    state = tr.init(cfg0, tree, syn)
    new_state, report = tr.step(state, records[:6])
    for k, v in state.params.items():
        nv = new_state.params[k]
        assert np.array_equal(v, nv) if isinstance(v, np.ndarray) else v == nv
    assert new_state.adam_t == 1
    moved = any(
        not np.array_equal(state.adam_m[k], new_state.adam_m[k])
        if isinstance(state.adam_m[k], np.ndarray)
        else state.adam_m[k] != new_state.adam_m[k]
        for k in state.adam_m)
    assert moved
    assert report.values()["total"] > 0.0


def test_single_step_descends_on_same_batch(corpus):
    cfg, tree, syn, records = corpus
    cfg1 = tiny_config(lr=1e-3, steps=1)
    state = tr.init(cfg1, tree, syn)
    batch = records[:6]
    # step reports the loss at the parameters it starts from
    state2, before = tr.step(state, batch)
    _, after = tr.step(state2, batch)
    assert after.values()["total"] < before.values()["total"]


def test_step_deterministic(corpus):
    cfg, tree, syn, records = corpus
    batch = records[:6]
    s1, r1 = tr.step(tr.init(cfg, tree, syn), batch)
    s2, r2 = tr.step(tr.init(cfg, tree, syn), batch)
    assert r1.values() == r2.values()
    for k in s1.params:
        a, b = s1.params[k], s2.params[k]
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_step_keeps_curvature_positive_and_loss_consistent(corpus):
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    for i in range(3):
        state, report = tr.step(state, records[i * 4:(i + 1) * 4])
        assert math.exp(state.params["curv_raw"]) > 0.0
        v = report.values()
        assert v["total"] == pytest.approx(
            v["bbox"] + v["cls"] + v["cap"] + v["entail"], abs=1e-12)


def test_step_rejects_empty_batch(corpus):
    cfg, tree, syn, records = corpus
    with pytest.raises(ValueError, match="empty"):
        tr.step(tr.init(cfg, tree, syn), records[:0])


@pytest.mark.parametrize("name", ["attn_wq", "log_tau"])
def test_non_finite_update_names_its_parameter(corpus, name):
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    # at adam_t = 0 the first moment is divided by 1 - 0.9: m / b1c overflows
    state = dataclasses.replace(state, adam_m={
        **state.adam_m, name: np.full(state.adam_m[name].shape, 1e308)})
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError,
                                                   match=repr(name)):
        tr.step(state, records[:6])


@pytest.mark.parametrize("name", ["token_table", "fuse_b1", "box_w",
                                  "log_tau", "curv_raw"])
def test_non_finite_parameter_fails_naming_it(corpus, name):
    # parameter leaves are not checked one by one; the step checks the flat
    # vector, else a NaN would surface as a degenerate box or a bad tau
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    state.params[name].flat[-1] = np.nan
    with pytest.raises(ArithmeticError, match=f"parameter {name!r}"):
        tr.step(state, records[:6])


@pytest.mark.parametrize("stepped", [False, True])
def test_mis_shaped_attention_weight_fails_with_its_shape_message(corpus,
                                                                 stepped):
    # a step builds the attention weights unchecked: a replaced weight goes
    # through the state's constructor, which checks every shape
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    if stepped:
        state, _ = tr.step(state, records[:6])
    bad = {**state.params, "attn_wq": np.zeros((cfg.d, cfg.d + 8))}
    with pytest.raises(ValueError, match=re.escape(
            "params.attn_wq: shape (16, 24), expected (16, 16)")):
        dataclasses.replace(state, params=bad)


@pytest.mark.parametrize("field", ["params", "adam_m", "adam_v"])
def test_state_maps_are_read_only(corpus, field):
    # an entry is edited in place or the state is made anew: a map whose
    # entry was swapped would disagree with the vector a step reads
    cfg, tree, syn, records = corpus
    for state in (tr.init(cfg, tree, syn),
                  tr.step(tr.init(cfg, tree, syn), records[:6])[0]):
        values = getattr(state, field)
        with pytest.raises(TypeError):
            values["box_b"] = np.zeros(4)
        with pytest.raises(TypeError):
            values["extra"] = np.zeros(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, field, dict(values))


def _per_parameter_update(state, grads):
    """The Adam update as a loop over parameters: the reference that the
    one flat update must match bit for bit."""
    config = state.config
    t = state.adam_t + 1
    warmup = max(1, math.ceil(tr.WARMUP_FRACTION * config.steps))
    lr_t = config.lr * min(1.0, t / warmup)
    progress = t / config.steps
    if progress > 2.0 / 3.0:
        lr_t *= 0.01
    elif progress > 1.0 / 3.0:
        lr_t *= 0.1
    b1c = 1.0 - tr.ADAM_BETA1 ** t
    b2c = 1.0 - tr.ADAM_BETA2 ** t
    new_params, new_m, new_v = {}, {}, {}
    for name, value in state.params.items():
        g = grads[name]
        m = tr.ADAM_BETA1 * state.adam_m[name] + (1.0 - tr.ADAM_BETA1) * g
        v = (tr.ADAM_BETA2 * state.adam_v[name]
             + (1.0 - tr.ADAM_BETA2) * (g * g))
        update = lr_t * (m / b1c) / (np.sqrt(v / b2c) + tr.ADAM_EPS)
        if name not in ("log_tau", "curv_raw"):
            update = update + lr_t * config.weight_decay * value
        out = value - update
        new_params[name], new_m[name], new_v[name] = out, m, v
    new_params["log_tau"] = min(max(new_params["log_tau"],
                                    tr.LOG_TAU_BOUNDS[0]),
                                tr.LOG_TAU_BOUNDS[1])
    new_params["curv_raw"] = min(max(new_params["curv_raw"],
                                     tr.CURV_RAW_BOUNDS[0]),
                                 tr.CURV_RAW_BOUNDS[1])
    return new_params, new_m, new_v


@pytest.mark.parametrize("objective", tr.OBJECTIVES)
def test_flat_update_matches_the_per_parameter_loop_bit_for_bit(
        corpus, monkeypatch, objective):
    cfg, tree, syn, records = corpus
    # 12 steps: warm-up over steps 1-2, decay after steps 4 and 8
    state = tr.init(tiny_config(objective=objective, steps=12, lr=0.03),
                    tree, syn)
    seen = []
    backward = ad.backward

    def recording_backward(tape, output):
        # the step reads the vector; the reference loop, the map by name
        vector = backward(tape, output)
        seen.append(ref.split(tape, vector))
        return vector

    monkeypatch.setattr(ad, "backward", recording_backward)
    for t in range(12):
        new_state, _ = tr.step(state, records[(t * 5) % 40:][:6])
        expected = _per_parameter_update(state, seen[-1])
        for got, want in zip((new_state.params, new_state.adam_m,
                              new_state.adam_v), expected):
            assert list(got) == list(want)
            for name in want:
                assert isinstance(got[name], np.ndarray), name
                assert got[name].shape == np.shape(want[name]), name
                assert np.array_equal(got[name], want[name]), (t, name)
                assert np.asarray(got[name]).tobytes() == \
                    np.asarray(want[name]).tobytes(), (t, name)
        state = new_state
    assert state.params["log_tau"] != tr.init(state.config, tree,
                                              syn).params["log_tau"]


def test_step_reads_parameters_edited_in_place(corpus):
    # a state's parameters and moments are views into the vectors a step
    # reads: an in-place edit of one must reach that step.  A state rebuilt
    # from its file form, over vectors of its own, must step bit for bit
    # alike
    cfg, tree, syn, records = corpus
    state, _ = tr.step(tr.init(cfg, tree, syn), records[:6])
    state.params["box_w"][0, 0] += 0.5
    state.adam_v["fuse_b1"][3] *= 2.0
    rebuilt = tr.state_from_json(state_to_json(state))
    assert rebuilt.params["box_w"][0, 0] == state.params["box_w"][0, 0]
    got, _ = tr.step(state, records[6:12])
    want, _ = tr.step(rebuilt, records[6:12])
    for field in ("params", "adam_m", "adam_v"):
        for name, value in getattr(want, field).items():
            assert getattr(got, field)[name].tobytes() == value.tobytes()


def test_backward_reads_stored_outputs(corpus, monkeypatch):
    cfg, tree, syn, records = corpus
    calls = {"forward": 0, "backward": 0}
    phase = ["forward"]

    def counted(kernel):
        def call(*args):
            calls[phase[0]] += 1
            return kernel(*args)
        return call

    # every row's kernel, and the helpers the kernels call for a value
    for row in ref.PACKAGE_ROWS:
        monkeypatch.setattr(row, "kernel", counted(row.kernel))
    for name in ("_norm", "_dot", "_logsumexp", "_sinhc"):
        monkeypatch.setattr(ad, name, counted(getattr(ad, name)))
    backward = ad.backward

    def phased_backward(tape, output):
        phase[0] = "backward"
        return backward(tape, output)

    monkeypatch.setattr(ad, "backward", phased_backward)
    tr.step(tr.init(cfg, tree, syn), records[:6])
    assert calls["forward"] > 0 and calls["backward"] == 0


def test_objective_variants_populate_expected_terms(corpus):
    cfg, tree, syn, records = corpus
    batch = records[:5]
    for objective, empty_terms in (("hyper", ()),
                                   ("baseline", ("entail",)),
                                   ("det-only", ("cap", "entail"))):
        state = tr.init(tiny_config(objective=objective), tree, syn)
        _, report = tr.step(state, batch)
        values = report.values()
        for term in ("bbox", "cls"):
            assert values[term] > 0.0
        for term in empty_terms:
            assert values[term] == 0.0


# --- train loop -------------------------------------------------------------------


def with_true_objects(records, index, objects):
    """The corpus with record ``index``'s true objects replaced (and its
    hallucinated ones dropped)."""
    true, hall = records.true_objects.lists(), records.hallucinated.lists()
    true[index], hall[index] = sorted(objects), []
    return Corpus.from_lists(
        records.box.tolist(), records.tokens.lists(), true, hall,
        score=[None if np.isnan(s) else s for s in records.score.tolist()],
        gt_box=records.gt_box.tolist(), scene=records.scene.tolist())


def test_train_rejects_records_without_a_leaf_class(corpus):
    cfg, tree, syn, records = corpus
    category = tree.children[tree.root][0]
    for objects in ({category, tree.leaves()[0]}, set()):
        bad = with_true_objects(records, 3, objects)
        with pytest.raises(ValueError, match="record 3: true_objects .* "
                                             "leaves of the concept tree"):
            tr.train(cfg, records=bad, tree=tree, synonyms=syn)
        # a batch is checked too: its row 3 is that record
        with pytest.raises(ValueError, match="batch record 3: "
                                             "true_objects|record 3: "
                                             "true_objects is empty"):
            tr.step(tr.init(cfg, tree, syn), bad[:6])


def test_train_runs_and_metrics_are_monotone_in_step(corpus):
    cfg, tree, syn, records = corpus
    state, metrics = tr.train(cfg, records=records, tree=tree, synonyms=syn)
    assert metrics
    steps = [m.step for m in metrics]
    assert steps == sorted(steps)
    assert metrics[-1].step == cfg.steps
    assert all(m.noise_pct == metrics[0].noise_pct for m in metrics)
    for m in metrics:
        assert abs(m.total - (m.bbox + m.cls + m.cap + m.entail)) <= 1e-12


def test_train_bit_deterministic(corpus):
    cfg, tree, syn, records = corpus
    _, m1 = tr.train(cfg, records=records, tree=tree, synonyms=syn)
    _, m2 = tr.train(cfg, records=records, tree=tree, synonyms=syn)
    assert [m.to_json() for m in m1] == [m.to_json() for m in m2]


#: batches of training-split rows: class-distinct, with repeats, and one row
GATHERS = ([0, 5, 9, 2, 11, 7], [3, 3, 8, 0, 3, 8], [4])


@pytest.mark.parametrize("objective", tr.OBJECTIVES)
def test_a_step_on_prepared_rows_keeps_the_corpus_route_bits(corpus,
                                                            objective):
    # train prepares its split once and gathers rows; a step on the same
    # records as a Corpus must give byte-identical states and losses
    cfg, tree, syn, records = corpus
    cfg = dataclasses.replace(cfg, objective=objective)
    train, _ = tr.split_records(records)
    state = tr.init(cfg, tree, syn)
    prepared = tr._prepare(state, train, objective != "det-only")
    gathered = from_corpus = state
    for rows in map(np.array, GATHERS):
        gathered, got = tr.step(gathered, prepared.take(rows))
        from_corpus, want = tr.step(from_corpus, train[rows])
        assert got.values() == want.values()
        for a, b in zip(gathered.vectors, from_corpus.vectors):
            assert a.tobytes() == b.tobytes()
    assert gathered.adam_t == from_corpus.adam_t == len(GATHERS)


def test_embed_records_on_prepared_rows_keeps_the_corpus_route_bits(corpus):
    cfg, tree, syn, records = corpus
    _, held = tr.split_records(records)
    state = tr.init(cfg, tree, syn)
    rng = np.random.default_rng(12)
    for name in ("token_table", "object_table"):
        state.params[name][...] = rng.normal(0.0, 0.5,
                                             size=state.params[name].shape)
    prepared = tr._prepare(state, held)
    for rows in (np.arange(len(held))[::-1], np.array([1, 1, 0]),
                 np.array([2])):
        got = tr.embed_records(state, prepared.take(rows))
        want = tr.embed_records(state, held[rows])
        for a, b in zip(got[:2], want[:2]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got[2:], want[2:]):
            assert a.space.tobytes() == b.space.tobytes()


def test_train_selects_corpus_records_only_to_split_them(corpus,
                                                         monkeypatch):
    # every step gathers rows of inputs prepared once, not Corpus records
    cfg, tree, syn, records = corpus
    select = Corpus.__getitem__
    calls = []

    def counted(self, rows):
        calls.append(len(self))
        return select(self, rows)

    monkeypatch.setattr(Corpus, "__getitem__", counted)
    tr.train(cfg, records=records, tree=tree, synonyms=syn)
    assert cfg.steps > 2
    assert calls == [len(records)] * 2


def test_train_rejects_a_bad_class_before_its_first_step(corpus,
                                                         monkeypatch):
    cfg, tree, syn, records = corpus
    bad = with_true_objects(records, 5, {tree.children[tree.root][0]})
    steps = []
    monkeypatch.setattr(tr, "step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="^record 5: true_objects"):
        tr.train(cfg, records=bad, tree=tree, synonyms=syn)
    assert not steps


def test_split_is_seed_stable_and_scene_level(corpus):
    cfg, tree, syn, records = corpus
    train_recs, held_recs = tr.split_records(records)
    assert len(train_recs) and len(held_recs)
    assert len(train_recs) + len(held_recs) == len(records)
    train_scenes = set(train_recs.scene.tolist())
    held_scenes = set(held_recs.scene.tolist())
    assert not (train_scenes & held_scenes)
    assert held_scenes == {s for s in records.scene.tolist()
                           if tr.scene_held_out(s)}
    again = tr.split_records(records)
    assert again[0] == train_recs and again[1] == held_recs


# --- retrieval ---------------------------------------------------------------------


def test_vectorized_distances_match_geometry_route():
    rng = np.random.default_rng(3)
    queries = rng.normal(scale=0.7, size=(5, 4))
    cands = rng.normal(scale=0.7, size=(6, 4))
    curvature = 1.3
    from hypalign.geometry import lorentz_distance
    # the plain-array batch route that evaluate_retrieval ranks with
    fast = lorentz_distance(exp_map_origin(queries, curvature),
                            exp_map_origin(cands, curvature))
    assert fast.shape == (5, 6)
    for i in range(5):
        for j in range(6):
            want = lorentz_distance(
                exp_map_origin(queries[i:i + 1], curvature),
                exp_map_origin(cands[j:j + 1], curvature))[0, 0]
            assert fast[i, j] == pytest.approx(want, abs=1e-10)


def test_retrieval_single_pair_is_one(corpus):
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    assert tr.evaluate_retrieval(state, records[:1]) == 1.0


def test_retrieval_rejects_empty(corpus):
    cfg, tree, syn, records = corpus
    with pytest.raises(ValueError, match="pairs"):
        tr.evaluate_retrieval(tr.init(cfg, tree, syn), records[:0])


def test_baseline_retrieval_rejects_zero_norm_embedding(corpus):
    cfg, tree, syn, records = corpus
    state = tr.init(tiny_config(objective="baseline"), tree, syn)
    batch = records[:5]
    # a caption made only of zeroed token rows embeds to the zero vector
    captions = batch.tokens.lists()
    zeroed = set(captions[3])
    for token in zeroed:
        state.params["token_table"][token] = 0.0
    first = min(i for i, tokens in enumerate(captions)
                if set(tokens) <= zeroed)
    with pytest.raises(ValueError,
                       match=f"zero-norm caption of record {first}:"):
        tr.evaluate_retrieval(state, batch)


def test_retrieval_untrained_is_chance_level():
    """Distinct-class candidates, shuffled labels: exact Bernoulli(1/n)."""
    cfg = tiny_config(categories=4, leaves_per_category=3, scenes=40)
    tree, syn, records, _ = tr.default_corpus(cfg)
    state = tr.init(cfg, tree, syn)
    leaves = tree.leaves()
    n = len(leaves)
    rng = np.random.default_rng(77)
    classes = records.leaves()
    trials, hits = 0, 0
    for rep in range(60):
        # relabel with a random permutation: candidate classes stay
        # distinct and carry no signal about the captions, so hits are
        # Bernoulli(1/n)
        perm = rng.permutation(n)
        rows = []
        for leaf in leaves:
            pool = np.flatnonzero(classes == leaf)
            rows.append(int(pool[int(rng.integers(len(pool)))]))
        sample = records[np.array(rows)]
        sample = Corpus.from_lists(
            sample.box.tolist(), sample.tokens.lists(),
            [[leaves[int(p)]] for p in perm], [[] for _ in rows],
            gt_box=sample.gt_box.tolist(), scene=sample.scene.tolist())
        hits += int(round(tr.evaluate_retrieval(state, sample) * n))
        trials += n
    p = 1.0 / n
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


# --- hierarchy report ----------------------------------------------------------------


def test_hierarchy_null_check_symmetric_construction(corpus):
    """With caption and object embeddings drawn from the same distribution
    the norms are statistically equal and containment is far from 1."""
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    rng = np.random.default_rng(5)
    rows = rng.normal(scale=0.3, size=(400, cfg.d))
    caps = rows[:200]
    objs = rows[200:]
    curvature = 1.0
    cap_pts = exp_map_origin(caps, curvature)
    obj_pts = exp_map_origin(objs, curvature)
    _, pvalue = stats.ttest_ind(cap_pts.space_norm, obj_pts.space_norm)
    assert pvalue > 0.01
    from hypalign.geometry import cone_contains
    # matched pairs are the diagonal of the pairwise membership matrix
    rate = np.mean(np.diag(cone_contains(cap_pts, obj_pts)))
    assert rate < 0.9


def test_hierarchy_report_fields(corpus):
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    report = tr.hierarchy_report(state, records[:40])
    assert report.mean_caption_norm > 0.0
    assert report.mean_object_norm > 0.0
    assert 0.0 <= report.containment_rate <= 1.0


# --- serialization -------------------------------------------------------------------


def test_state_round_trips_through_json(tmp_path, corpus):
    cfg, tree, syn, records = corpus
    state, _ = tr.train(tiny_config(steps=5, eval_every=5),
                        records=records, tree=tree, synonyms=syn)
    path = tmp_path / "state.json"
    tr.save_state(path, state)
    again = tr.load_state(path)
    assert again.config == state.config
    assert again.tree == state.tree
    assert again.synonyms == state.synonyms
    assert again.adam_t == state.adam_t
    for k in state.params:
        a, b = state.params[k], again.params[k]
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    # behavioural equality, not just structural
    r1 = tr.evaluate_retrieval(state, records[:30])
    r2 = tr.evaluate_retrieval(again, records[:30])
    assert r1 == r2


def test_state_file_shapes_checked_at_load(tmp_path, corpus):
    cfg, tree, syn, _ = corpus
    path = tmp_path / "state.json"
    tr.save_state(path, tr.init(cfg, tree, syn))
    good = json.loads(path.read_text())
    tr.state_from_json(good)

    narrow = json.loads(path.read_text())
    narrow["params"]["token_table"] = [row[:8] for row in
                                       narrow["params"]["token_table"]]
    with pytest.raises(ValueError, match=r"params\.token_table: shape"):
        tr.state_from_json(narrow)

    missing = json.loads(path.read_text())
    del missing["adam_m"]["fuse_w1"]
    with pytest.raises(ValueError, match=r"adam_m: missing \['fuse_w1'\]"):
        tr.state_from_json(missing)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["config"].update(d=16.0), "config.d: expected int, got 16.0"),
    (lambda d: d["config"].update(d="16"), "config.d: expected int, got '16'"),
    (lambda d: d["config"].update(steps=True),
     "config.steps: expected int, got True"),
    (lambda d: d["config"].update(lr=True),
     "config.lr: expected float, got True"),
    (lambda d: d["config"].update(early_stop="no"),
     "config.early_stop: expected bool, got 'no'"),
    (lambda d: d["config"].update(objective=None),
     "config.objective: expected str, got None"),
    (lambda d: d["config"].pop("gamma"), "config.gamma: missing"),
    (lambda d: d["config"].update(margin=0.1),
     "config.margin: unknown field"),
    (lambda d: d.update(adam_t=2.7), "adam_t: 2.7 is not a non-negative"),
    (lambda d: d.update(adam_t=True), "adam_t: True is not a non-negative"),
    (lambda d: d.update(adam_t=-4), "adam_t: -4 is not a non-negative"),
    # the top level and each map
    (lambda d: d.pop("adam_t"), "adam_t: missing"),
    (lambda d: d.update(extra=1), "extra: unknown field"),
    (lambda d: d.update(params=[1]), "params: expected an object, got [1]"),
    (lambda d: d.update(adam_v=None), "adam_v: expected an object, got None"),
    (lambda d: d.update(config=[1]), "config: expected an object, got [1]"),
    (lambda d: d.update(tree=[1]), "tree: expected an object, got [1]"),
    (lambda d: d["tree"].pop("root"), "tree.root: missing"),
    (lambda d: d["tree"].update(children=[0]),
     "tree.children: expected an object, got [0]"),
    (lambda d: d["tree"]["children"].update({"1": 5}),
     "tree.children.1: expected a list, got 5"),
    (lambda d: d.update(synonyms=[1]),
     "synonyms: expected an object, got [1]"),
    (lambda d: d["synonyms"].update({"5": 3}),
     "synonyms.5: expected a list, got 3"),
])
def test_state_file_config_and_step_checked_at_load(tmp_path, corpus, edit,
                                                    message):
    cfg, tree, syn, _ = corpus
    path = tmp_path / "state.json"
    tr.save_state(path, tr.init(cfg, tree, syn))
    data = json.loads(path.read_text())
    edit(data)
    with pytest.raises(ValueError, match=re.escape(message)):
        tr.state_from_json(data)


@pytest.mark.parametrize("field, name, value, message", [
    ("params", "log_tau", "0.5",
     "params.log_tau: expected numbers, got '0.5'"),
    ("params", "curv_raw", True,
     "params.curv_raw: expected numbers, got True"),
    ("adam_m", "box_b", [True, False, "1", 0],
     "adam_m.box_b: expected numbers, got [True, False, '1', 0]"),
    ("adam_v", "log_tau", None, "adam_v.log_tau: expected numbers, got None"),
])
def test_state_file_entries_must_be_numbers(tmp_path, corpus, field, name,
                                            value, message):
    # a string, a boolean or null is rejected, not read as a number (or,
    # for null, as NaN)
    cfg, tree, syn, _ = corpus
    path = tmp_path / "state.json"
    tr.save_state(path, tr.init(cfg, tree, syn))
    data = json.loads(path.read_text())
    data[field][name] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        tr.state_from_json(data)


def test_state_file_accepts_an_integer_for_a_float_field(tmp_path, corpus):
    cfg, tree, syn, _ = corpus
    path = tmp_path / "state.json"
    tr.save_state(path, tr.init(cfg, tree, syn))
    data = json.loads(path.read_text())
    data["config"]["lr"] = 1
    config = tr.state_from_json(data).config
    assert config.lr == 1.0 and type(config.lr) is float


def test_export_embeddings_rows(corpus):
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    rows = tr.export_embeddings(state, records[:10])
    kinds = {r["kind"] for r in rows}
    assert kinds == {"object", "caption"}
    objects = [r for r in rows if r["kind"] == "object"]
    assert len(objects) == len(tree.leaves())
    for row in rows:
        assert len(row["vector"]) == cfg.d
        assert row["lifted_norm"] >= 0.0
    # no captions: the class rows alone, as before
    assert tr.export_embeddings(state, records[:0]) == objects


#: the encoder every file was written with before orjson wrote any line
STDLIB = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _counting_json_line(monkeypatch) -> list:
    """Record each row that the writer sends to ``json_line``."""
    from hypalign import datasynth as ds
    sent = []
    monkeypatch.setattr(ds, "json_line", lambda payload: sent.append(payload)
                        or STDLIB.encode(payload))
    return sent


def test_written_exports_keep_the_stdlib_bytes(tmp_path, monkeypatch):
    # seed 2's export holds both kinds of row
    cfg = tiny_config(seed=2)
    tree, syn, records, _ = tr.default_corpus(cfg)
    state, _ = tr.train(cfg, records=records, tree=tree, synonyms=syn)
    sent = _counting_json_line(monkeypatch)
    path = tmp_path / "embeddings.jsonl"
    rows = tr.export_embeddings(state, records, path)
    assert rows == tr.export_embeddings(state, records)
    assert path.read_text() == "".join(STDLIB.encode(row) + "\n"
                                       for row in rows)
    # a row with a coordinate below 1e-4 goes to json, the others to orjson
    tiny = [row for row in rows
            if min(map(abs, row["vector"] + [row["lifted_norm"]])) < 1e-4]
    assert sent == tiny and 0 < len(tiny) < len(rows) // 10


def test_state_files_keep_the_stdlib_bytes(corpus, tmp_path, monkeypatch):
    cfg, tree, syn, records = corpus
    trained, _ = tr.train(cfg, records=records, tree=tree, synonyms=syn)
    rng = np.random.default_rng(3)

    def plain(values):
        return {k: rng.uniform(0.5, 2.0, v.shape) for k, v in values.items()}
    untrained = tr.init(cfg, tree, syn)
    plain_state = dataclasses.replace(
        untrained, params=plain(untrained.params),
        adam_m=plain(untrained.adam_m), adam_v=plain(untrained.adam_v))
    tiny_decay = dataclasses.replace(
        plain_state, config=dataclasses.replace(cfg, weight_decay=1e-05))
    path = tmp_path / "state.json"
    sent = {}
    for name, state in (("trained", trained), ("plain", plain_state),
                        ("tiny decay", tiny_decay)):
        sent[name] = _counting_json_line(monkeypatch)
        tr.save_state(path, state)
        assert path.read_bytes() == (STDLIB.encode(
            state_to_json(state)) + "\n").encode()
    assert b'"weight_decay":1e-05' in path.read_bytes()
    # the pieces of a state go to json one by one: in a trained state, the
    # matrix rows and vectors with a float below 1e-4, which every map
    # holds, and no other; in the others, nothing or only the config
    rows = {name: [row for array in getattr(trained, name).values()
                   for row in (array.tolist() if array.ndim == 2
                               else [array.tolist()])]
            for name in tr._MAPS}
    tiny = {name: [row for row in map_rows
                   if any(0.0 < abs(x) < 1e-4 for x in np.ravel(row))]
            for name, map_rows in rows.items()}
    assert sorted(map(json.dumps, sent["trained"])) == sorted(
        json.dumps(row) for name in tiny for row in tiny[name])
    assert all(0 < len(tiny[name]) < len(rows[name]) for name in rows)
    assert sent["plain"] == []
    assert sent["tiny decay"] == [dataclasses.asdict(tiny_decay.config)]


def test_a_save_that_fails_part_way_leaves_the_old_state_file(
        corpus, tmp_path, monkeypatch):
    # the pieces are written as they are made: an error among them leaves
    # the old file as it was and no temporary file
    cfg, tree, syn, records = corpus
    state = tr.init(cfg, tree, syn)
    path = tmp_path / "state.json"
    tr.save_state(path, state)
    before = path.read_bytes()
    write, writing = tr.json_bytes, []

    def failing(row, plain):
        if len(list(tmp_path.iterdir())) > 1:
            writing.append(row)
            if len(writing) == 3:
                raise RuntimeError("interrupted")
        return write(row, plain)
    monkeypatch.setattr(tr, "json_bytes", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        tr.save_state(path, dataclasses.replace(state, adam_t=5))
    assert len(writing) == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_metrics_lines_keep_the_stdlib_bytes(monkeypatch):
    record = tr.MetricsRecord(step=10, bbox=0.5, cls=1.25, cap=2.0,
                              entail=0.0, total=3.75, recall_at_1=1.0,
                              mean_caption_norm=0.3, mean_object_norm=0.4,
                              containment_rate=0.5, noise_pct=12.5)
    for record, by_json in ((record, False),
                            (dataclasses.replace(record, entail=3e-05), True),
                            (dataclasses.replace(record, noise_pct=math.nan),
                             True)):
        sent = _counting_json_line(monkeypatch)
        assert record.to_json() == STDLIB.encode(dataclasses.asdict(record))
        assert len(sent) == by_json


#: sha256 of the eval-route outputs below, taken before the lift, distance
#: and cones became one tape row each; the plain route keeps its bits
EVAL_ROUTE_DIGEST = (
    "d1e8f85f89c877dcf254f67edcd207dc812aa23cf93c345f42016ecae1a7e69a")


def test_eval_route_outputs_are_pinned():
    config = tiny_config(seed=4)
    tree, syn, records, _ = tr.default_corpus(config)
    state = tr.init(config, tree, syn)
    # tables at scale 0.5: row norms far above the lift's series switch
    rng = np.random.default_rng(12)
    for name in ("token_table", "object_table"):
        state.params[name][...] = rng.normal(0.0, 0.5,
                                             size=state.params[name].shape)
    digest = hashlib.sha256(json.dumps({
        "recall": tr.evaluate_retrieval(state, records),
        "hierarchy": vars(tr.hierarchy_report(state, records)),
        "export": tr.export_embeddings(state, records),
    }, sort_keys=True).encode("utf-8"))
    # and every pairwise value those outputs rank or threshold
    curvature = math.exp(state.params["curv_raw"])
    caps, objs = (exp_map_origin(rows, curvature)
                  for rows in tr.embed_records(state, records)[:2])
    for values in (caps.space, objs.space, lorentz_distance(caps, objs),
                   half_aperture(caps).value,
                   exterior_angle(caps, objs).value):
        digest.update(values.tobytes())
    assert digest.hexdigest() == EVAL_ROUTE_DIGEST


def test_metrics_record_json_round_trip():
    rec = tr.MetricsRecord(step=3, bbox=0.1, cls=0.2, cap=0.3, entail=0.0,
                           total=0.6, recall_at_1=0.5,
                           mean_caption_norm=0.4, mean_object_norm=1.2,
                           containment_rate=0.8, noise_pct=16.3)
    data = json.loads(rec.to_json())
    assert data["step"] == 3
    assert data["total"] == 0.6
    assert data["noise_pct"] == 16.3
