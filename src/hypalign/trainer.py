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
import math
import reprlib
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .datasynth import (ConceptTree, Corpus, IdLists, SynonymMap,
                        _exact_fields, _object, caption_noise_metric,
                        default_synonyms, json_bytes, load_json,
                        plain_floats, synth_corpus, write_lines)
from .fusion import (AttentionWeights, FusionMlp, cross_modal_attention,
                     encode_boxes, fuse, positional_encode)
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

    @cached_property
    def loss_weights(self) -> LossWeights:
        """The loss weights, made and checked once per config."""
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
        """The record's line of ``metrics.jsonl``."""
        values = asdict(self)
        return json_bytes(values, plain_floats(list(values.values())).all()
                          ).decode("ascii")


@dataclass(frozen=True)
class HierarchyReport:
    mean_caption_norm: float
    mean_object_norm: float
    containment_rate: float


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


class _Layout:
    """Where each parameter lies when all of them are laid end to end in
    one float64 vector: the ``_param_specs`` arrays in their order, then
    the log temperature and the raw curvature.  Those two are the last
    entries, and the only ones that take no weight decay."""

    __slots__ = ("cuts", "size")

    def __init__(self, d: int, vocab: int):
        self.cuts, stop = {}, 0
        for name, shape in _param_specs(d, vocab) + [("log_tau", ()),
                                                     ("curv_raw", ())]:
            start, stop = stop, stop + math.prod(shape)
            self.cuts[name] = (slice(start, stop), shape)
        self.size = stop

    def flatten(self, map_name: str, values: Mapping) -> np.ndarray:
        """``values`` laid end to end in a new vector.  Raises naming
        ``map_name`` and the parameter if a name is missing or unexpected,
        an entry is not a number (a string, a boolean or null), a shape
        differs or an entry is not finite.  A boolean among numbers is
        read as one: the check is of an array's type, not of each entry."""
        if values.keys() != self.cuts.keys():
            missing = sorted(self.cuts.keys() - values.keys())
            extra = sorted(values.keys() - self.cuts.keys())
            raise ValueError(
                f"{map_name}: missing {missing}, unexpected {extra}")
        flat = np.empty(self.size)
        for name, (where, shape) in self.cuts.items():
            value = np.asarray(values[name])
            if value.dtype.kind not in "iuf":
                raise ValueError(f"{map_name}.{name}: expected numbers, got "
                                 f"{reprlib.repr(values[name])}")
            if value.shape != shape:
                raise ValueError(f"{map_name}.{name}: shape {value.shape}, "
                                 f"expected {shape}")
            flat[where] = value.reshape(-1)
        name = self.non_finite(flat)
        if name is not None:
            # json reads NaN and Infinity
            raise ValueError(f"{map_name}.{name}: non-finite entries")
        return flat

    def views(self, flat: np.ndarray) -> Mapping:
        """A read-only map of each parameter's view into ``flat``."""
        return MappingProxyType({name: flat[where].reshape(shape)
                                 for name, (where, shape) in self.cuts.items()})

    def non_finite(self, flat: np.ndarray) -> Optional[str]:
        """The first parameter with a non-finite entry in ``flat``, if any."""
        if np.isfinite(flat).all():
            return None
        return next(name for name, (where, _) in self.cuts.items()
                    if not np.isfinite(flat[where]).all())

    def check_finite(self, flat: np.ndarray) -> None:
        """A step's check: raise naming the first non-finite parameter."""
        name = self.non_finite(flat)
        if name is not None:
            raise ArithmeticError(f"non-finite entries in parameter {name!r}")


#: The parameter maps of a state, in the order of its ``vectors``.
_MAPS = ("params", "adam_m", "adam_v")


@dataclass(frozen=True, eq=False)
class ModelState:
    """A model and its optimizer state.

    The parameters and the two Adam moments are one float64 vector each,
    ``vectors`` = (params, adam_m, adam_v), laid out by ``layout``.  The
    maps ``params``, ``adam_m`` and ``adam_v`` are made when read, each a
    read-only map of views into its vector, one array per parameter name:
    an edit of an array in place is an edit of its vector, but no entry
    can be replaced or added, so no map disagrees with its vector.  To
    change an entry, make a new state.

    This constructor makes every state from its maps (``init``,
    ``state_from_json`` and a replacement by ``dataclasses.replace``): it
    lays each map out in a new vector, and raises naming the field and the
    parameter if a name is missing or unexpected, a shape is not the one
    that ``d`` and the vocabulary imply, or an entry is not finite, e.g.
    ``params.attn_wq: shape (16, 24), expected (16, 16)``.  Only a step
    makes a state past it, over the vectors it made and checked.
    ``leaf_ids`` are the tree's leaves as an integer array.
    """

    config: ExperimentConfig
    tree: ConceptTree
    synonyms: SynonymMap
    params: Mapping
    adam_m: Mapping
    adam_v: Mapping
    adam_t: int = 0
    layout: _Layout = field(init=False, repr=False)
    vectors: tuple = field(init=False, repr=False)
    leaf_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = _Layout(self.config.d, _vocab_size(self.tree, self.synonyms))
        # the maps given are laid out in vectors and dropped, so that a read
        # of one reaches __getattr__; the fields a frozen dataclass derives
        # go past its __setattr__
        vectors = tuple(layout.flatten(name, self.__dict__.pop(name))
                        for name in _MAPS)
        self.__dict__.update(
            layout=layout, vectors=vectors,
            leaf_ids=np.asarray(self.tree.leaves(), dtype=np.intp))

    def __getattr__(self, name: str):
        # only a name that no attribute holds gets here: a map, made anew
        if name in _MAPS:
            return self.layout.views(self.vectors[_MAPS.index(name)])
        raise AttributeError(name)

    def _stepped(self, vectors: tuple, adam_t: int) -> ModelState:
        """This model at ``adam_t`` over a step's new vectors."""
        new = object.__new__(ModelState)
        new.__dict__.update(self.__dict__, adam_t=adam_t, vectors=vectors)
        return new


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
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return ModelState(config, tree, synonyms, params, zeros, zeros)


class _Batch(NamedTuple):
    """Each record's model inputs, made once per corpus by ``_prepare``:
    its class and the class's index in ``leaf_ids``, its box's
    ``encode_boxes`` pair, its box target, its token ids (padded with -1)
    and, for captions, its token counts over the vocabulary and their sum."""

    leaves: np.ndarray
    targets: Optional[np.ndarray]
    features: np.ndarray
    encoding: np.ndarray
    gts: Optional[np.ndarray]
    ids: np.ndarray
    counts: Optional[np.ndarray]
    totals: Optional[np.ndarray]

    def take(self, rows: np.ndarray) -> _Batch:
        return _Batch(*(c if c is None else c[rows] for c in self))


def _counts(state: ModelState, tokens: IdLists) -> tuple:
    """Each caption's token counts over the vocabulary, and their sum."""
    counts = np.zeros((len(tokens), len(state.params["token_table"])))
    np.add.at(counts, (tokens.owner(), tokens.values), 1.0)
    return counts, np.add.reduce(counts, axis=1, keepdims=True)


def _prepare(state: ModelState, records: Corpus, captions: bool = True,
             where: str = "") -> _Batch:
    """The ``_Batch`` of ``records``, with caption counts if ``captions``;
    a record whose class is not a leaf raises, naming ``where`` and it."""
    leaves, tokens = records.leaves(), records.tokens
    targets = np.searchsorted(state.leaf_ids, leaves)
    if not (state.leaf_ids.take(targets, mode="clip") == leaves).all():
        check_true_objects(records, state.leaf_ids, where)
    lengths = tokens.lengths()
    ids = np.full((len(tokens), lengths.max(initial=0)), -1)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = tokens.values
    # a record without a ground-truth box regresses onto its own region
    gts = np.where(np.isnan(records.gt_box), records.box, records.gt_box)
    return _Batch(leaves, targets, *encode_boxes(records.box, state.config.d),
                  gts, ids, *(_counts(state, tokens) if captions
                              else (None, None)))


class _Forward:
    """Shared forward passes over a parameter set (tape Vars or arrays);
    each reads the columns of a ``_Batch`` and returns one row per record.
    ``check=False`` skips the attention and fusion weights' checks, for a
    step: its state's constructor has checked their shapes, and the step
    their finiteness."""

    def __init__(self, params: dict, check: bool = True):
        self.p = params
        self.attn = AttentionWeights(params["attn_wq"], params["attn_wk"],
                                     params["attn_wv"], params["attn_wout"],
                                     check=check)
        self.mlp = FusionMlp(params["fuse_w1"], params["fuse_b1"],
                             params["fuse_w2"], params["fuse_b2"],
                             check=check)

    def captions(self, counts: np.ndarray, totals: np.ndarray):
        """Mean token embedding of each caption: its ``_counts`` row times
        the token table, over its token count."""
        return ad.caption_embed(self.p["token_table"],
                                aux=(counts, totals, EMBED_RADIUS))

    def fused_visuals(self, batch: _Batch):
        """One row per region: its class's object row, its box and its
        caption."""
        owner, column = (batch.ids >= 0).nonzero()
        visual = ad.take_row(self.p["object_table"], batch.leaves)
        text = ad.take_row(self.p["token_table"], batch.ids[owner, column])
        v_l = cross_modal_attention(visual, text, owner, self.attn)
        v_s = positional_encode(visual, (batch.features, batch.encoding),
                                self.p["pe_proj"])
        return ad.squash(fuse(v_l, v_s, self.mlp), aux=EMBED_RADIUS)

    def predicted_boxes(self, fused):
        """Sigmoid corner-size parameterization: n x 4 (x1, y1, x2, y2) rows,
        one ``autodiff.box_head`` node.

        The sigmoid is squashed into [eps, 1-eps] so a saturated head can
        never produce a zero-width or zero-height box.
        """
        return ad.box_head(fused, self.p["box_w"], self.p["box_b"],
                           aux=BOX_HEAD_EPS)


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


def _batch_losses(fwd: _Forward, batch: _Batch, config: ExperimentConfig,
                  leaf_ids: np.ndarray) -> LossReport:
    tau = ad.exp(fwd.p["log_tau"])
    fused = fwd.fused_visuals(batch)
    bbox = bbox_regression_loss(fwd.predicted_boxes(fused), batch.gts)
    labels = ad.take_row(fwd.p["token_table"], leaf_ids)
    cls = classification_loss(fused, labels, batch.targets, tau)
    weights = config.loss_weights
    if config.objective == "det-only":
        return objective_det(bbox, cls, weights=weights)
    captions = fwd.captions(batch.counts, batch.totals)
    if config.objective == "baseline":
        cap = euclidean_contrastive_loss(fused, captions, tau)
        return objective_baseline(bbox, cls, cap, weights=weights)
    # both pairwise losses read one lift of each batch
    curvature = ad.exp(fwd.p["curv_raw"])
    visual_pts = exp_map_origin(fused, curvature)
    caption_pts = exp_map_origin(captions, curvature)
    cap = hyperbolic_contrastive_loss(visual_pts, caption_pts, tau)
    entail = entailment_loss(caption_pts, visual_pts, margin=config.gamma,
                             aperture_k=config.aperture_k)
    return objective_hyper(bbox, cls, cap, entail, weights=weights)


def step(state: ModelState, records) -> tuple:
    """One optimization step on a batch of records; returns the new state
    and the loss report.  ``records`` is a ``Corpus``, prepared on entry (a
    record whose class is not a leaf raises, ``batch record i: ...``), or
    rows of the inputs that ``train`` prepares once, which pass straight
    through.

    Forward through fusion, all active losses, reverse-mode backward, then
    an adaptive-moment update (beta1 0.9, beta2 0.999, eps 1e-8) with a
    linear warm-up over the first 10% of configured steps.  Aborts naming
    the parameter if a parameter or its update is non-finite, or naming
    the tape row that a non-finite gradient came from.
    """
    config, layout = state.config, state.layout
    if isinstance(records, Corpus):
        records = _prepare(state, records, config.objective != "det-only",
                           "batch ")
    if not len(records.leaves):
        raise ValueError("empty batch")
    # the parameters as one vector: one finiteness check here, for edits
    # in place since the state was made, and one elementwise update below
    value, m_prev, v_prev = state.vectors
    layout.check_finite(value)
    tape = ad.Tape()
    leaves = {name: tape.leaf(value[where].reshape(shape), name, check=False)
              for name, (where, shape) in layout.cuts.items()}
    report = _batch_losses(_Forward(leaves, check=False), records, config,
                           state.leaf_ids)
    # the leaves were named in layout order: the gradient is laid out as
    # the vectors are
    g = ad.backward(tape, report.total)

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
    # the moments and lr_t (m / b1c) / (sqrt(v / b2c) + eps), each product
    # and sum as written, in buffers of their own
    m = ADAM_BETA1 * m_prev
    m += (1.0 - ADAM_BETA1) * g
    v = g * g
    v *= 1.0 - ADAM_BETA2
    v += ADAM_BETA2 * v_prev
    den = v / b2c
    np.sqrt(den, out=den)
    den += ADAM_EPS
    update = m / b1c
    update *= lr_t
    update /= den
    # decoupled weight decay keeps embedding norms from running away under
    # the distance-based losses; the temperature and curvature, the last two
    # entries, take none
    update[:-2] += value[:-2] * (lr_t * config.weight_decay)
    out = np.subtract(value, update, out=update)
    layout.check_finite(out)
    for i, (lo, hi) in ((-2, LOG_TAU_BOUNDS), (-1, CURV_RAW_BOUNDS)):
        out[i] = min(max(float(out[i]), lo), hi)
    return state._stepped((out, m, v), t), report


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


def embed_records(state: ModelState, records) -> tuple:
    """Plain-array caption (queries) and fused visual (candidates) rows,
    then both lifted onto the hyperboloid: the one forward and lift that
    retrieval and hierarchy numbers share; ``records`` as for ``step``."""
    if isinstance(records, Corpus):
        records = _prepare(state, records)
    fwd = _Forward(state.params)
    visuals = fwd.fused_visuals(records)
    captions = fwd.captions(records.counts, records.totals)
    curvature = math.exp(state.params["curv_raw"])
    return (captions, visuals, exp_map_origin(captions, curvature),
            exp_map_origin(visuals, curvature))


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
    embedded = embedded or embed_records(state, records)
    queries, cands, query_pts, cand_pts = embedded
    classes = records.leaves()
    if state.config.objective == "hyper":
        scores = -lorentz_distance(query_pts, cand_pts)
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
    _, _, captions, visuals = embedded or embed_records(state, records)
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
    train_rows = _prepare(state, train_recs, config.objective != "det-only")
    held_rows = _prepare(state, held_recs)
    rng = np.random.default_rng([config.seed, 1])
    # batches are class-distinct where possible: at toy vocabulary size,
    # same-class rows would act as false negatives for the contrastive and
    # entailment terms and push matched pairs out of their own cones.  The
    # pool of a class is its training records in corpus order.
    leaves = train_rows.leaves
    by_leaf = np.argsort(leaves, kind="stable")
    batch_leaves, starts, sizes = np.unique(
        leaves[by_leaf], return_index=True, return_counts=True)
    metrics: list = []
    for t in range(config.steps):
        take = rng.choice(len(batch_leaves), size=config.batch,
                          replace=len(batch_leaves) < config.batch)
        # one draw per batch row, in row order, from its class's pool
        picks = starts[take] + rng.integers(sizes[take])
        state, report = step(state, train_rows.take(by_leaf[picks]))
        is_last = t + 1 == config.steps
        if (t + 1) % config.eval_every == 0 or is_last:
            embedded = embed_records(state, held_rows)
            recall = evaluate_retrieval(state, held_recs, embedded)
            hier = hierarchy_report(state, held_recs, embedded)
            metrics.append(MetricsRecord(
                step=t + 1, **report.values(), recall_at_1=recall,
                **asdict(hier), noise_pct=noise_pct))
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


def _config_from_json(data: dict) -> ExperimentConfig:
    """A state file's config: every field, of its default's type (a bool
    is no number; an integer may stand for a float)."""
    kinds = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    _exact_fields(_object(data, "config"), kinds, "config.")
    for name, kind in kinds.items():
        if type(data[name]) not in ((int, kind) if kind is float else (kind,)):
            raise ValueError(f"config.{name}: expected {kind.__name__}, "
                             f"got {data[name]!r}")
    return ExperimentConfig(**{name: kind(data[name])
                               for name, kind in kinds.items()})


def state_from_json(data: dict) -> ModelState:
    """The state of a ``state_to_json`` object.  An input of another
    shape raises naming the field, e.g. ``adam_t: missing`` or ``params:
    expected an object, got [1]``."""
    _exact_fields(_object(data, "state"), ("config", "tree", "synonyms",
                                           "adam_t") + _MAPS)
    for name in _MAPS:
        _object(data[name], name)
    config = _config_from_json(data["config"])
    adam_t = data["adam_t"]
    if type(adam_t) is not int or adam_t < 0:
        raise ValueError(f"adam_t: {adam_t!r} is not a non-negative integer")
    return ModelState(config, ConceptTree.from_json(data["tree"]),
                      SynonymMap.from_json(data["synonyms"]), data["params"],
                      data["adam_m"], data["adam_v"], adam_t)


def _object_bytes(pieces: dict) -> bytes:
    """A JSON object's bytes from its key-sorted fields' bytes."""
    return b"{" + b",".join(json_bytes(key, True) + b":" + piece
                            for key, piece in sorted(pieces.items())) + b"}"


def _array_bytes(values: list, plain: np.ndarray) -> bytes:
    """``json_line(values)`` as bytes, for the ``tolist()`` of an array
    whose :func:`plain_floats` are ``plain``: a matrix a row at a time, so
    that only a row with a float that orjson writes otherwise goes to
    ``json_line``."""
    if plain.ndim != 2:
        return json_bytes(values, bool(plain.all()))
    return b"[" + b",".join(map(json_bytes, values,
                                plain.all(axis=1).tolist())) + b"]"


def save_state(path, state: ModelState) -> None:
    """One line, ``json_line(state_to_json(state))``, put together from
    pieces: every row of a parameter or Adam moment matrix is one, so that
    only rows with a float below 1e-4 go to ``json_line``; in a trained
    state every map holds some."""
    data = state_to_json(state)
    config = data.pop("config")
    pieces = {"config": json_bytes(config, bool(plain_floats(
        [v for v in config.values() if type(v) is float]).all()))}
    for key in _MAPS:
        arrays = getattr(state, key)
        pieces[key] = _object_bytes({
            name: _array_bytes(rows, plain_floats(arrays[name]))
            for name, rows in data.pop(key).items()})
    # the tree, the synonyms and adam_t hold no float
    pieces.update((key, json_bytes(value, True))
                  for key, value in data.items())
    write_lines(path, [_object_bytes(pieces)])


def load_state(path) -> ModelState:
    return state_from_json(load_json(path))


def export_embeddings(state: ModelState, records: Corpus,
                      path=None) -> list:
    """Rows for external 2D projection: id, kind, pre-lift vector, norm.
    A class's row fuses its own label token over the full-image box.  With
    a ``path``, the rows are also written there, one JSON line each."""
    fwd, leaves = _Forward(state.params), state.leaf_ids
    curvature = math.exp(state.params["curv_raw"])
    ids = [(leaf, "object") for leaf in leaves.tolist()]
    ids += [(i, "caption") for i in range(len(records))]
    full = np.tile([0.0, 0.0, 1.0, 1.0], (len(leaves), 1))
    classes = _Batch(leaves, None, *encode_boxes(full, state.config.d), None,
                     leaves[:, None], None, None)
    vectors = np.concatenate([fwd.fused_visuals(classes),
                              fwd.captions(*_counts(state, records.tokens))])
    norms = exp_map_origin(vectors, curvature).space_norm
    rows = [{"id": i, "kind": kind, "vector": vec, "lifted_norm": norm}
            for (i, kind), vec, norm in zip(ids, vectors.tolist(),
                                            norms.tolist())]
    if path is not None:
        plain = plain_floats(vectors).all(axis=1) & plain_floats(norms)
        write_lines(path, map(json_bytes, rows, plain.tolist()))
    return rows
