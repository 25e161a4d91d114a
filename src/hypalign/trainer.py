"""Desk-scale training loop, retrieval evaluation, and hierarchy diagnostics.

The model is a pair of embedding tables plus the fusion stack: a region's
visual feature is its object's row of the object table, made language-aware
by attending over the caption's token embeddings and spatial-aware by the
positional encoder, then fused and fed to every active loss.  Captions are
the mean of their token embeddings (the learned stand-in for a text tower).
A small box head regresses the region box from the fused embedding.

Every function that takes records takes a :class:`~.datasynth.Corpus` and
reads its columns: a batch is a selection of corpus rows, and a record's
class is its smallest true object.  Temperature and curvature are optimized
in log space, so both stay strictly positive through any run.  Everything
is deterministic given the config and seed: parameter init, batch order,
and all metric computations.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .datasynth import (ConceptTree, Corpus, IdLists, SynonymMap,
                        caption_noise_metric, default_synonyms, json_line,
                        synth_corpus, write_lines)
from .fusion import (AttentionWeights, FusionMlp, cross_modal_attention,
                     fuse, positional_encode)
from .geometry import (APERTURE_K, cone_contains, exp_map_origin,
                       lorentz_distance)
from .objectives import (DEFAULT_MARGIN, LossReport, LossWeights,
                         bbox_regression_loss, classification_loss,
                         entailment_loss, euclidean_contrastive_loss,
                         hyperbolic_contrastive_loss, objective_baseline,
                         objective_det, objective_hyper, pairwise_cosine)

OBJECTIVES = ("hyper", "baseline", "det-only")

PROPOSAL_DIM = 4
INIT_SCALE = 0.02
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_FRACTION = 0.1
BOX_HEAD_EPS = 1e-3

#: Radius of the smooth radial-tanh bound applied to embeddings before any
#: loss sees them.  The exponential lift amplifies norms as sinh(.), so an
#: unbounded pipeline lets the distance-based losses inflate scale instead
#: of learning structure; the squash is direction-preserving (cosines are
#: untouched) and near-identity for norms below half the radius.
EMBED_RADIUS = 3.0

# log-space projection bounds applied after each update; they keep the
# learned temperature and curvature in a numerically sane band (and C > 0)
LOG_TAU_BOUNDS = (math.log(0.05), math.log(10.0))
CURV_RAW_BOUNDS = (math.log(0.05), math.log(20.0))

_FULL_BOX = np.array([0.0, 0.0, 1.0, 1.0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; CLI flags mirror these field names."""

    objective: str = "hyper"
    d: int = 16
    batch: int = 16
    steps: int = 600
    lr: float = 0.03
    gamma: float = DEFAULT_MARGIN
    aperture_k: float = APERTURE_K
    tau_init: float = 0.07
    c_init: float = 1.0
    rho: float = 0.0
    k: int = 3
    seed: int = 0
    scenes: int = 60
    categories: int = 10
    leaves_per_category: int = 5
    objects_per_scene: int = 3
    top_n: int = 4
    iou_threshold: float = 0.5
    eval_every: int = 50
    early_stop: bool = False
    weight_decay: float = 0.015
    w_bbox: float = 1.0
    w_cls: float = 1.0
    w_cap: float = 1.0
    w_entail: float = 1.0
    corpus_path: str = "corpus.jsonl"
    synonyms_path: str = "synonyms.json"
    meta_path: str = "corpus_meta.json"
    metrics_path: str = "metrics.jsonl"
    state_path: str = "state.json"
    export_path: str = "embeddings.jsonl"

    def __post_init__(self):
        checks = [
            ("objective", self.objective in OBJECTIVES),
            ("d", self.d >= 8 and self.d % 8 == 0),
            ("batch", self.batch >= 1),
            ("steps", self.steps >= 1),
            ("lr", self.lr >= 0.0 and math.isfinite(self.lr)),
            ("gamma", self.gamma >= 0.0),
            ("aperture_k", self.aperture_k > 0.0),
            ("tau_init", self.tau_init > 0.0),
            ("c_init", self.c_init > 0.0),
            ("rho", 0.0 <= self.rho < 1.0),
            ("k", self.k >= 1),
            ("scenes", self.scenes >= 1),
            ("categories", self.categories >= 1),
            ("leaves_per_category", self.leaves_per_category >= 1),
            ("objects_per_scene", self.objects_per_scene >= 1),
            ("top_n", self.top_n >= 1),
            ("iou_threshold", 0.0 < self.iou_threshold < 1.0),
            ("eval_every", self.eval_every >= 1),
            ("weight_decay", self.weight_decay >= 0.0),
            ("w_bbox", self.w_bbox >= 0.0),
            ("w_cls", self.w_cls >= 0.0),
            ("w_cap", self.w_cap >= 0.0),
            ("w_entail", self.w_entail >= 0.0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(
                    f"invalid config field {name}={getattr(self, name)!r}")

    def loss_weights(self) -> LossWeights:
        return LossWeights(bbox=self.w_bbox, cls=self.w_cls, cap=self.w_cap,
                           entail=self.w_entail)


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation snapshot of a training run."""

    step: int
    bbox: float
    cls: float
    cap: float
    entail: float
    total: float
    recall_at_1: float
    mean_caption_norm: float
    mean_object_norm: float
    containment_rate: float
    noise_pct: float

    def to_json(self) -> str:
        return json_line(asdict(self))


@dataclass(frozen=True)
class HierarchyReport:
    mean_caption_norm: float
    mean_object_norm: float
    containment_rate: float


@dataclass
class ModelState:
    config: ExperimentConfig
    tree: ConceptTree
    synonyms: SynonymMap
    leaf_ids: list
    params: dict
    adam_m: dict
    adam_v: dict
    adam_t: int = 0


def _param_specs(d: int, vocab: int) -> list:
    return [
        ("token_table", (vocab, d)),
        ("object_table", (vocab, d)),
        ("attn_wq", (d, d)),
        ("attn_wk", (d, d)),
        ("attn_wv", (d, d)),
        ("attn_wout", (d, d)),
        ("pe_proj", (PROPOSAL_DIM, d)),
        ("fuse_w1", (d, 2 * d)),
        ("fuse_b1", (2 * d,)),
        ("fuse_w2", (2 * d, d)),
        ("fuse_b2", (d,)),
        ("box_w", (d, 4)),
        ("box_b", (4,)),
    ]


def _vocab_size(tree: ConceptTree, synonyms: SynonymMap) -> int:
    """Embedding-table rows: one per tree node and synonym token id."""
    return max(max(tree.nodes()), synonyms.max_token_id()) + 1


def init(config: ExperimentConfig, tree: Optional[ConceptTree] = None,
         synonyms: Optional[SynonymMap] = None) -> ModelState:
    """Deterministically initialize a model for the given config.

    Tables and weight matrices are i.i.d. normal at scale 0.02, biases are
    zero; temperature and curvature start at their configured values via
    the log-space reparameterization.
    """
    if tree is None:
        tree = ConceptTree.balanced(config.categories,
                                    config.leaves_per_category)
    if synonyms is None:
        synonyms = default_synonyms(tree)
    vocab = _vocab_size(tree, synonyms)
    rng = np.random.default_rng(config.seed)
    biases = {"fuse_b1", "fuse_b2", "box_b"}
    params: dict = {}
    for name, shape in _param_specs(config.d, vocab):
        if name in biases:
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_SCALE, size=shape)
    params["log_tau"] = np.array(math.log(config.tau_init))
    params["curv_raw"] = np.array(math.log(config.c_init))
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    return ModelState(config=config, tree=tree, synonyms=synonyms,
                      leaf_ids=tree.leaves(), params=params,
                      adam_m=adam_m, adam_v=adam_v, adam_t=0)


def _layout(values: dict) -> list:
    """(name, shape, start, stop) of each parameter when all of them are
    laid end to end in one float64 vector."""
    layout, stop = [], 0
    for name, value in values.items():
        start, stop = stop, stop + value.size
        layout.append((name, value.shape, start, stop))
    return layout


def _flatten(values: dict, layout: list) -> np.ndarray:
    return np.concatenate([values[name] for name, *_ in layout], axis=None)


def _unflatten(flat: np.ndarray, layout: list) -> dict:
    """A parameter map of views into ``flat``."""
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in layout}


def _check_finite(flat: np.ndarray, layout: list) -> None:
    """Raise naming the first parameter with a non-finite entry in
    ``flat``."""
    if not np.isfinite(flat).all():
        for name, _, start, stop in layout:
            if not np.isfinite(flat[start:stop]).all():
                raise ArithmeticError(
                    f"non-finite entries in parameter {name!r}")


def _squash(x, radius: float = EMBED_RADIUS):
    """Direction-preserving row norm bound: x * radius*tanh(|x|/radius)/|x|."""
    n = ad.clamp_min(ad.norm(x), 1e-12)
    factor = ad.div(ad.mul(ad.tanh(ad.div(n, radius)), radius), n)
    return ad.scale_rows(factor, x)


class _Forward:
    """Shared forward passes over a parameter set (tape Vars or arrays);
    each takes a batch and returns one row per item."""

    def __init__(self, params: dict):
        self.p = params
        self.attn = AttentionWeights(params["attn_wq"], params["attn_wk"],
                                     params["attn_wv"], params["attn_wout"])
        self.mlp = FusionMlp(params["fuse_w1"], params["fuse_b1"],
                             params["fuse_w2"], params["fuse_b2"])

    def captions(self, tokens: IdLists):
        """Mean token embedding of each caption: a bag-of-words count
        matrix (captions x vocabulary) times the token table."""
        counts = np.zeros((len(tokens), len(ad.val(self.p["token_table"]))))
        np.add.at(counts, (tokens.owner(), tokens.values), 1.0)
        total = ad.matmul(counts, self.p["token_table"])
        return _squash(ad.div(total, np.add.reduce(counts, axis=1,
                                                  keepdims=True)))

    def fused_visuals(self, leaves: np.ndarray, corners: np.ndarray,
                      tokens: IdLists):
        """One row per region: its class's object row, its box corners
        and its caption."""
        visual = ad.take_row(self.p["object_table"], leaves)
        text = ad.take_row(self.p["token_table"], tokens.values)
        v_l = cross_modal_attention(visual, text, tokens.owner(), self.attn)
        v_s = positional_encode(visual, corners, self.p["pe_proj"])
        return _squash(fuse(v_l, v_s, self.mlp))

    def predicted_boxes(self, fused):
        """Sigmoid corner-size parameterization: n x 4 (x1, y1, x2, y2) rows.

        The sigmoid is squashed into [eps, 1-eps] so a saturated head can
        never produce a zero-width or zero-height box.
        """
        raw = ad.add(ad.matmul(fused, self.p["box_w"]), self.p["box_b"])
        u = ad.add(ad.mul(ad.sigmoid(raw), 1.0 - 2.0 * BOX_HEAD_EPS),
                   BOX_HEAD_EPS)
        sizes = ad.cols(u, 2, 4)
        near = ad.mul(ad.cols(u, 0, 2), ad.sub(1.0, sizes))
        # (x1, y1) into columns 0-1 and (x2, y2) into columns 2-3
        return ad.add(ad.matmul(near, np.eye(2, 4)),
                      ad.matmul(ad.add(near, sizes), np.eye(2, 4, 2)))

    def class_embeddings(self, leaves: Sequence[int]):
        """Canonical class candidates: each class's own label token as text
        over the full-image box."""
        n = len(leaves)
        return self.fused_visuals(
            leaves, np.tile(_FULL_BOX, (n, 1)),
            IdLists(np.asarray(leaves), np.arange(n + 1)))


def check_true_objects(records: Corpus, leaves, where: str = "") -> None:
    """A record's class is its smallest true object: true_objects must be
    one or more leaves of the tree.  Errors name ``where`` and the record."""
    true = records.true_objects
    bad = true.rows_with(~np.isin(true.values, leaves)) | (true.lengths() == 0)
    hits = np.flatnonzero(bad)
    if hits.size:
        i = int(hits[0])
        raise ValueError(
            f"{where}record {i}: true_objects {true.row(i)} "
            "must be one or more leaves of the concept tree")


def _batch_losses(fwd: _Forward, batch: Corpus, config: ExperimentConfig,
                  leaf_ids: np.ndarray) -> LossReport:
    tau = ad.exp(fwd.p["log_tau"])
    leaves = batch.leaves()
    # the class index of each record; a record whose class is not a leaf
    # would silently take a neighbour's
    targets = np.searchsorted(leaf_ids, leaves)
    if not np.array_equal(leaf_ids.take(targets, mode="clip"), leaves):
        check_true_objects(batch, leaf_ids, where="batch ")
    fused = fwd.fused_visuals(leaves, batch.box, batch.tokens)
    # a record without a ground-truth box regresses onto its own region
    gts = np.where(np.isnan(batch.gt_box), batch.box, batch.gt_box)
    bbox = bbox_regression_loss(fwd.predicted_boxes(fused), gts)
    labels = ad.take_row(fwd.p["token_table"], leaf_ids)
    cls = classification_loss(fused, labels, targets, tau)
    weights = config.loss_weights()
    if config.objective == "det-only":
        return objective_det(bbox, cls, weights=weights)
    captions = fwd.captions(batch.tokens)
    if config.objective == "baseline":
        cap = euclidean_contrastive_loss(fused, captions, tau)
        return objective_baseline(bbox, cls, cap, weights=weights)
    curvature = ad.exp(fwd.p["curv_raw"])
    cap = hyperbolic_contrastive_loss(fused, captions, curvature, tau)
    entail = entailment_loss(exp_map_origin(captions, curvature),
                             exp_map_origin(fused, curvature),
                             margin=config.gamma, aperture_k=config.aperture_k)
    return objective_hyper(bbox, cls, cap, entail, weights=weights)


def step(state: ModelState, records: Corpus) -> tuple:
    """One optimization step on a batch of records; returns the new state
    and the loss report.

    Forward through fusion, all active losses, reverse-mode backward, then
    an adaptive-moment update (beta1 0.9, beta2 0.999, eps 1e-8) with a
    linear warm-up over the first 10% of configured steps.  Aborts naming
    the parameter if a parameter or its update is non-finite, or with a
    node diagnostic if any gradient is.
    """
    if not len(records):
        raise ValueError("empty batch")
    config = state.config
    # every parameter laid end to end, in the order of state.params: one
    # finiteness check here, one elementwise update below
    layout = _layout(state.params)
    value = _flatten(state.params, layout)
    _check_finite(value, layout)
    tape = ad.Tape()
    report = _batch_losses(_Forward(tape.params(state.params)), records,
                           config, np.asarray(state.leaf_ids))
    grads = ad.backward(tape, report.total)

    t = state.adam_t + 1
    warmup = max(1, math.ceil(WARMUP_FRACTION * config.steps))
    lr_t = config.lr * min(1.0, t / warmup)
    # step decay by 0.1 at 1/3 and 2/3 of the configured budget
    progress = t / config.steps
    if progress > 2.0 / 3.0:
        lr_t *= 0.01
    elif progress > 1.0 / 3.0:
        lr_t *= 0.1
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    g = _flatten(grads, layout)
    m = ADAM_BETA1 * _flatten(state.adam_m, layout) + (1.0 - ADAM_BETA1) * g
    v = (ADAM_BETA2 * _flatten(state.adam_v, layout)
         + (1.0 - ADAM_BETA2) * (g * g))
    update = lr_t * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    # decoupled weight decay keeps embedding norms from running away under
    # the distance-based losses; the temperature and curvature take none
    decay = np.ones(len(value), dtype=bool)
    for name, _, start, stop in layout:
        if name in ("log_tau", "curv_raw"):
            decay[start:stop] = False
    update = np.where(decay,
                      update + lr_t * config.weight_decay * value, update)
    out = value - update
    _check_finite(out, layout)
    new_params = _unflatten(out, layout)
    new_m, new_v = _unflatten(m, layout), _unflatten(v, layout)
    for name, (lo, hi) in (("log_tau", LOG_TAU_BOUNDS),
                           ("curv_raw", CURV_RAW_BOUNDS)):
        new_params[name][()] = min(max(float(new_params[name]), lo), hi)
    new_state = ModelState(config=config, tree=state.tree,
                           synonyms=state.synonyms,
                           leaf_ids=state.leaf_ids, params=new_params,
                           adam_m=new_m, adam_v=new_v, adam_t=t)
    return new_state, report


def scene_held_out(scene: int) -> bool:
    """Seed-stable 10% held-out split by scene id."""
    digest = hashlib.sha256(str(int(scene)).encode("utf-8")).digest()
    return digest[0] % 10 == 0


def split_records(records: Corpus) -> tuple:
    """(training, held-out) records, each in corpus order; each distinct
    scene is hashed once."""
    scenes, inverse = np.unique(records.scene, return_inverse=True)
    held = np.array([scene_held_out(s) for s in scenes.tolist()],
                    dtype=bool)[inverse]
    return records[~held], records[held]


def embed_records(state: ModelState, records: Corpus) -> tuple:
    """Plain-array caption (queries) and fused visual (candidates) rows:
    the one forward that retrieval and hierarchy numbers share."""
    fwd = _Forward(state.params)
    visuals = fwd.fused_visuals(records.leaves(), records.box, records.tokens)
    return fwd.captions(records.tokens), visuals


def evaluate_retrieval(state: ModelState, records: Corpus,
                       embedded: Optional[tuple] = None) -> float:
    """Recall@1 of caption -> object retrieval over the given pairs.

    Candidates are the records' own fused visual embeddings; a query
    caption scores a hit when its nearest candidate (Lorentzian distance
    between lifted embeddings for ``hyper``, cosine otherwise) carries the
    caption's object class.  A zero embedding has no cosine and is
    rejected, naming its record.  ``embedded`` is ``embed_records`` of
    the same state and records, when the caller already has it.
    """
    if not len(records):
        raise ValueError("no evaluation pairs")
    queries, cands = embedded or embed_records(state, records)
    classes = records.leaves()
    if state.config.objective == "hyper":
        curvature = math.exp(state.params["curv_raw"])
        scores = -lorentz_distance(exp_map_origin(queries, curvature),
                                   exp_map_origin(cands, curvature))
    else:
        scores = pairwise_cosine(queries, cands, "caption of record",
                                 "visual of record")
    best = np.argmax(scores, axis=1)
    return float(np.mean(classes[best] == classes))


def hierarchy_report(state: ModelState, records: Corpus,
                     embedded: Optional[tuple] = None) -> HierarchyReport:
    """Lifted-norm means per kind plus the cone-containment rate of
    matched (caption, fused visual) pairs; ``embedded`` as for
    ``evaluate_retrieval``."""
    if not len(records):
        raise ValueError("no records to diagnose")
    curvature = math.exp(state.params["curv_raw"])
    captions, visuals = embedded or embed_records(state, records)
    captions = exp_map_origin(captions, curvature)
    visuals = exp_map_origin(visuals, curvature)
    # matched pairs are the diagonal of the pairwise membership matrix
    contained = np.diag(cone_contains(captions, visuals,
                                      state.config.aperture_k))
    return HierarchyReport(
        mean_caption_norm=float(np.mean(captions.space_norm)),
        mean_object_norm=float(np.mean(visuals.space_norm)),
        containment_rate=int(np.sum(contained)) / len(records),
    )


def default_corpus(config: ExperimentConfig):
    """Build the tree, synonyms, and corpus a config describes."""
    tree = ConceptTree.balanced(config.categories,
                                config.leaves_per_category)
    synonyms = default_synonyms(tree)
    records, objects = synth_corpus(
        tree, scenes=config.scenes, noise_rate=config.rho, seed=config.seed,
        synonyms=synonyms, k=config.k,
        objects_per_scene=config.objects_per_scene, top_n=config.top_n,
        iou_threshold=config.iou_threshold)
    return tree, synonyms, records, objects


def train(config: ExperimentConfig, records: Optional[Corpus] = None,
          tree: Optional[ConceptTree] = None,
          synonyms: Optional[SynonymMap] = None):
    """Run the configured experiment; returns (state, metrics list).

    Metrics are appended once per ``eval_every`` steps (and at the end).
    With ``early_stop`` the loop ends as soon as held-out recall@1 is 1.0
    and, for the hyper objective, containment reaches 0.95.
    """
    if records is None:
        tree, synonyms, records, _ = default_corpus(config)
    if tree is None or synonyms is None:
        raise ValueError("tree and synonyms are required with records")
    check_true_objects(records, tree.leaves())
    noise_pct = caption_noise_metric(records, synonyms)
    train_recs, held_recs = split_records(records)
    if not len(train_recs) or not len(held_recs):
        raise ValueError("both splits need records; add scenes")
    state = init(config, tree, synonyms)
    rng = np.random.default_rng([config.seed, 1])
    # batches are class-distinct where possible: at toy vocabulary size,
    # same-class rows would act as false negatives for the contrastive and
    # entailment terms and push matched pairs out of their own cones.  The
    # pool of a class is its training records in corpus order.
    leaves = train_recs.leaves()
    by_leaf = np.argsort(leaves, kind="stable")
    batch_leaves, starts, sizes = np.unique(
        leaves[by_leaf], return_index=True, return_counts=True)
    metrics: list = []
    for t in range(config.steps):
        take = rng.choice(len(batch_leaves), size=config.batch,
                          replace=len(batch_leaves) < config.batch)
        # one draw per batch row, in row order, from its class's pool
        picks = starts[take] + rng.integers(sizes[take])
        state, report = step(state, train_recs[by_leaf[picks]])
        is_last = t + 1 == config.steps
        if (t + 1) % config.eval_every == 0 or is_last:
            embedded = embed_records(state, held_recs)
            recall = evaluate_retrieval(state, held_recs, embedded)
            hier = hierarchy_report(state, held_recs, embedded)
            values = report.values()
            metrics.append(MetricsRecord(
                step=t + 1, bbox=values["bbox"], cls=values["cls"],
                cap=values["cap"], entail=values["entail"],
                total=values["total"], recall_at_1=recall,
                mean_caption_norm=hier.mean_caption_norm,
                mean_object_norm=hier.mean_object_norm,
                containment_rate=hier.containment_rate,
                noise_pct=noise_pct))
            if config.early_stop and recall == 1.0:
                if (config.objective != "hyper"
                        or hier.containment_rate >= 0.95):
                    break
    return state, metrics


# ---------------------------------------------------------------------------
# state serialization


def _plain(values: dict) -> dict:
    return {k: v.tolist() for k, v in values.items()}


def state_to_json(state: ModelState) -> dict:
    return {
        "config": asdict(state.config),
        "tree": state.tree.to_json(),
        "synonyms": state.synonyms.to_json(),
        "params": _plain(state.params),
        "adam_m": _plain(state.adam_m),
        "adam_v": _plain(state.adam_v),
        "adam_t": state.adam_t,
    }


def _revive(field: str, data: dict, d: int, vocab: int) -> dict:
    """A state file's parameter map, checked against the model's shapes
    and for non-finite numbers."""
    shapes = dict(_param_specs(d, vocab), log_tau=(), curv_raw=())
    if data.keys() != shapes.keys():
        missing = sorted(shapes.keys() - data.keys())
        extra = sorted(data.keys() - shapes.keys())
        raise ValueError(f"{field}: missing {missing}, unexpected {extra}")
    out = {}
    for name, value in data.items():
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != shapes[name]:
            raise ValueError(f"{field}.{name}: shape {arr.shape}, "
                             f"expected {shapes[name]}")
        if not np.isfinite(arr).all():
            # json reads NaN and Infinity
            raise ValueError(f"{field}.{name}: non-finite entries")
        out[name] = arr
    return out


def _config_from_json(data: dict) -> ExperimentConfig:
    """A state file's config: every field, of its default's type (a bool
    is no number; an integer may stand for a float)."""
    kinds = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    for name in sorted(kinds.keys() ^ data.keys()):
        raise ValueError(f"config.{name}: " + ("missing" if name in kinds
                                               else "unknown field"))
    for name, kind in kinds.items():
        if type(data[name]) not in ((int, kind) if kind is float else (kind,)):
            raise ValueError(f"config.{name}: expected {kind.__name__}, "
                             f"got {data[name]!r}")
    return ExperimentConfig(**{name: kind(data[name])
                               for name, kind in kinds.items()})


def state_from_json(data: dict) -> ModelState:
    config = _config_from_json(data["config"])
    adam_t = data["adam_t"]
    if type(adam_t) is not int or adam_t < 0:
        raise ValueError(f"adam_t: {adam_t!r} is not a non-negative integer")
    tree = ConceptTree.from_json(data["tree"])
    synonyms = SynonymMap.from_json(data["synonyms"])
    vocab = _vocab_size(tree, synonyms)
    return ModelState(
        config=config, tree=tree, synonyms=synonyms, leaf_ids=tree.leaves(),
        params=_revive("params", data["params"], config.d, vocab),
        adam_m=_revive("adam_m", data["adam_m"], config.d, vocab),
        adam_v=_revive("adam_v", data["adam_v"], config.d, vocab),
        adam_t=adam_t,
    )


def save_state(path, state: ModelState) -> None:
    write_lines(path, [json_line(state_to_json(state))])


def load_state(path) -> ModelState:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))


def export_embeddings(state: ModelState, records: Corpus) -> list:
    """Rows for external 2D projection: id, kind, pre-lift vector, norm."""
    fwd = _Forward(state.params)
    curvature = math.exp(state.params["curv_raw"])
    ids = [(int(leaf), "object") for leaf in state.leaf_ids]
    ids += [(i, "caption") for i in range(len(records))]
    vectors = np.concatenate([fwd.class_embeddings(state.leaf_ids),
                              fwd.captions(records.tokens)])
    norms = exp_map_origin(vectors, curvature).space_norm
    return [{"id": i, "kind": kind, "vector": vec, "lifted_norm": norm}
            for (i, kind), vec, norm in zip(ids, vectors.tolist(),
                                            norms.tolist())]
