"""IoU and NMS invariants and the corpus and state JSON round trips.

Property tests draw their inputs with hypothesis, derandomized, without an
example database and from the constant pool that ``conftest.py`` pins, so
every run checks the same examples whatever the package's source holds.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypalign import datasynth as ds
from hypalign import trainer as tr

import conftest
from reference_state import state_to_json

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

unit = st.floats(0.0, 1.0)


@st.composite
def boxes(draw, scored=st.none()):
    """A corner row [x1, y1, x2, y2], with the drawn score appended unless
    it is None."""
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    # the box checker's rule: an area that underflows to 0 is rejected
    assume((x2 - x1) * (y2 - y1) > 0.0)
    score = draw(scored)
    return [x1, y1, x2, y2] + ([] if score is None else [score])


ids = st.integers(0, 10_000)


@st.composite
def record_lines(draw):
    """One corpus record as a JSON object, in the form ``write_corpus``
    gives it; a scored ``gt_box`` carries its score as a fifth entry."""
    box = draw(boxes(scored=st.none() | unit))
    gt_box = draw(st.none() | boxes(scored=st.none() | unit))
    true_objects = draw(st.frozensets(ids, max_size=4))
    return {
        "v": "v1", "scene": draw(ids), "box": box[:4],
        "score": box[4] if len(box) == 5 else None,
        "gt_box": gt_box,
        "tokens": draw(st.lists(ids, min_size=1, max_size=6)),
        "true_objects": sorted(true_objects),
        "hallucinated": sorted(draw(st.frozensets(ids, max_size=3))
                               - true_objects)}


# --- boxes ---------------------------------------------------------------------


@PROPERTY
@given(a=boxes(), b=boxes())
def test_iou_is_symmetric_bounded_and_one_on_itself(a, b):
    rows = np.array([a, b])
    overlaps = ds.iou(rows, rows)
    assert overlaps[0, 1] == overlaps[1, 0]
    assert 0.0 <= overlaps[0, 1] <= 1.0
    assert overlaps[0, 0] == overlaps[1, 1] == 1.0


@PROPERTY
@given(candidates=st.lists(boxes(scored=unit), max_size=12),
       threshold=st.floats(0.05, 0.95))
def test_nms_keeps_a_score_ordered_subset_without_overlaps(candidates,
                                                           threshold):
    kept = ds.nms(np.array(candidates).reshape(-1, 5), threshold).tolist()
    remaining = list(candidates)
    for box in kept:
        remaining.remove(box)   # a sub-multiset of the input
    scores = [box[4] for box in kept]
    assert scores == sorted(scores, reverse=True)
    rows = np.array(kept).reshape(-1, 5)[:, :4]
    overlaps = ds.iou(rows, rows)
    assert (overlaps[~np.eye(len(kept), dtype=bool)] < threshold).all()


# --- JSON round trips ----------------------------------------------------------


@PROPERTY
@given(records=st.lists(record_lines(), min_size=1, max_size=4))
def test_record_json_round_trip(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    text = "".join(ds.json_line(record) + "\n" for record in records)
    path.write_text(text)
    scored = [i for i, record in enumerate(records)
              if record["gt_box"] is not None and len(record["gt_box"]) == 5]
    if scored:
        # a corpus file stores no ground-truth score: it would be lost
        with pytest.raises(ValueError, match=f"record {scored[0]}: gt_box"):
            ds.read_corpus(path)
        return
    corpus = ds.read_corpus(path)
    assert len(corpus) == len(records)
    ds.write_corpus(path, corpus)
    assert path.read_text() == text
    assert ds.read_corpus(path) == corpus


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([8, 16]),
       scale=st.floats(1e-300, 1e300), adam_t=st.integers(0, 10**6))
def test_state_json_round_trip(seed, d, scale, adam_t):
    config = tr.ExperimentConfig(d=d, seed=seed, categories=2,
                                 leaves_per_category=2)
    state = tr.init(config)
    rng = np.random.default_rng(seed)

    def noisy(values):
        return {k: np.asarray(rng.normal(size=v.shape) * scale)
                for k, v in values.items()}

    state = dataclasses.replace(
        state, params=noisy(state.params), adam_m=noisy(state.adam_m),
        adam_v=noisy(state.adam_v), adam_t=adam_t)
    again = tr.state_from_json(json.loads(ds.json_line(
        state_to_json(state))))
    assert again.config == state.config and again.adam_t == adam_t
    for field in ("params", "adam_m", "adam_v"):
        want, got = getattr(state, field), getattr(again, field)
        assert want.keys() == got.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), (field, name)
            assert type(got[name]) is type(want[name])


def test_examples_come_from_the_pinned_constant_pool():
    # hypothesis reads its pool of source constants through the hook that
    # conftest.py installs; were it to stop, the examples above would move
    # with the package's literals again
    before = conftest.pinned_local_constants.calls

    @PROPERTY
    @given(st.lists(st.floats(), min_size=20, max_size=20))
    def draw(values):
        pass

    draw()
    assert conftest.pinned_local_constants.calls > before


#: Run in a fresh interpreter with the package and the tests on its path:
#: draws every example that the property tests of ``test_batched.py`` and
#: ``test_properties.py`` would run, without running them, and prints a
#: digest of the examples in order.  With "unpinned", the constant pool is
#: hypothesis's own again, read from the loaded modules' literals.
DRAWN_EXAMPLES = """
import functools, hashlib, inspect, sys
import numpy as np
from hypothesis.internal.conjecture import providers
from hypothesis.internal.reflection import function_digest
own_pool = providers._get_local_constants
import conftest, test_batched, test_properties
if sys.argv[1] == "unpinned":
    providers._get_local_constants = own_pool

def exact(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, dict):
        return sorted((k, exact(v)) for k, v in value.items())
    return repr(value)

digest = hashlib.sha256()
for module in (test_batched, test_properties):
    for name, test in sorted(vars(module).items()):
        inner = getattr(getattr(test, "hypothesis", None), "inner_test", None)
        if inner is None:
            continue

        @functools.wraps(inner)
        def record(*args, _name=name, **kwargs):
            digest.update(repr((_name, exact(args), exact(kwargs))).encode())

        # derandomized examples are seeded by the test's source and
        # signature, which the wrapper keeps
        assert function_digest(record) == function_digest(inner), name
        test.hypothesis.inner_test = record
        test(**dict.fromkeys(inspect.signature(test).parameters))
print(digest.hexdigest())
"""


def _drawn_examples(tmp_path, pool: str, literal: str) -> subprocess.Popen:
    """Start drawing the examples with a copy of the package whose
    ``datasynth.py`` ends with ``literal``; the process prints their
    digest."""
    src = pathlib.Path(ds.__file__).parent
    copy = tmp_path / f"{pool}-{len(literal)}" / "hypalign"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "datasynth.py", "a") as fh:
        fh.write(literal)
    tests = pathlib.Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(copy.parent), str(tests)]), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", DRAWN_EXAMPLES, pool],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_a_new_literal_in_the_package_moves_no_drawn_example(tmp_path):
    # a float literal added to the package's source leaves every drawn
    # example as it was; without the pinned pool the same edit moves some,
    # so the digest does see a move
    literal = "\n_UNRELATED_LITERAL = 0.123456789\n"
    digests = {}
    for pool in ("pinned", "unpinned"):
        runs = [_drawn_examples(tmp_path, pool, text)
                for text in ("", literal)]
        for run in runs:
            out, err = run.communicate(timeout=600)
            assert run.returncode == 0, err
            digests.setdefault(pool, []).append(out.strip())
    assert digests["pinned"][0] == digests["pinned"][1]
    assert digests["unpinned"][0] != digests["unpinned"][1]
