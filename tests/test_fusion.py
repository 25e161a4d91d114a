"""Cross-modal attention, positional encoding, and fusion MLP tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hypalign import autodiff as ad
from hypalign import fusion as fu
from hypalign import geometry as geo
from hypalign import objectives as obj
from hypalign.autodiff import val

import reference_ops as ref


def zero_mlp(d):
    """The exact identity of ``fuse``: a zero residual branch."""
    return fu.FusionMlp(w1=np.zeros((d, 2 * d)), b1=np.zeros(2 * d),
                        w2=np.zeros((2 * d, d)), b2=np.zeros(d))


def make_weights(rng, d=8, heads=4):
    return fu.AttentionWeights(
        w_q=rng.normal(size=(d, d)), w_k=rng.normal(size=(d, d)),
        w_v=rng.normal(size=(d, d)), w_out=rng.normal(size=(d, d)),
        head_count=heads)


# --- cross_modal_attention -----------------------------------------------------


def test_single_text_row_output_ignores_visual():
    rng = np.random.default_rng(1)
    w = make_weights(rng)
    text = rng.normal(size=(1, 8))
    out1 = val(fu.cross_modal_attention(rng.normal(size=(1, 8)), text, [0],
                                        w))
    out2 = val(fu.cross_modal_attention(rng.normal(size=(1, 8)), text, [0],
                                        w))
    want = (text @ np.asarray(w.w_v)) @ np.asarray(w.w_out)
    assert np.allclose(out1, out2, atol=1e-12)
    assert np.allclose(out1, want, atol=1e-12)


def test_single_head_matches_matrix_oracle():
    # d = 2, n = 2, one head: softmax((T Wk)(Wq^T v)/sqrt(2)) (T Wv) Wout
    v = np.array([0.3, -0.7])
    text = np.array([[0.5, 0.2], [-0.1, 0.9]])
    wq = np.array([[0.4, -0.3], [0.8, 0.1]])
    wk = np.array([[-0.2, 0.6], [0.3, 0.5]])
    wv = np.array([[0.7, 0.0], [0.2, -0.4]])
    wout = np.array([[0.9, 0.1], [-0.5, 0.3]])
    weights = fu.AttentionWeights(wq, wk, wv, wout, head_count=1)

    q = v @ wq
    scores = (text @ wk) @ q / math.sqrt(2.0)
    e = np.exp(scores - scores.max())
    attn = e / e.sum()
    want = (attn @ (text @ wv)) @ wout

    got = val(fu.cross_modal_attention(v[None, :], text, [0, 0], weights))
    assert np.allclose(got, want[None, :], atol=1e-12)


def test_batched_attention_equals_one_row_calls():
    # each visual row attends over its own tokens only, wherever they sit
    rng = np.random.default_rng(2)
    w = make_weights(rng)
    visual = rng.normal(size=(3, 8))
    text = rng.normal(size=(7, 8))
    owner = [2, 0, 1, 2, 0, 2, 1]
    got = val(fu.cross_modal_attention(visual, text, owner, w))
    for i in range(3):
        own = [j for j, o in enumerate(owner) if o == i]
        want = val(fu.cross_modal_attention(visual[i:i + 1], text[own],
                                            [0] * len(own), w))
        assert np.max(np.abs(got[i] - want[0])) <= 1e-12


def test_attention_invariant_to_text_row_permutation():
    rng = np.random.default_rng(3)
    w = make_weights(rng)
    v = rng.normal(size=(1, 8))
    text = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    out = val(fu.cross_modal_attention(v, text, [0] * 6, w))
    out_p = val(fu.cross_modal_attention(v, text[perm], [0] * 6, w))
    assert np.max(np.abs(out - out_p)) <= 1e-12


def test_attention_rejects_empty_text():
    rng = np.random.default_rng(5)
    w = make_weights(rng)
    with pytest.raises(ValueError, match="text row"):
        fu.cross_modal_attention(rng.normal(size=(1, 8)), np.zeros((0, 8)),
                                 [], w)
    # a visual row that owns no token is rejected, not averaged over nothing
    with pytest.raises(ValueError, match="text row"):
        fu.cross_modal_attention(rng.normal(size=(2, 8)),
                                 rng.normal(size=(2, 8)), [0, 0], w)
    with pytest.raises(ValueError, match="owner"):
        fu.cross_modal_attention(rng.normal(size=(1, 8)),
                                 rng.normal(size=(2, 8)), [0, 1], w)
    with pytest.raises(ValueError, match="owner"):
        fu.cross_modal_attention(rng.normal(size=(1, 8)),
                                 rng.normal(size=(1, 8)), 0, w)
    # a negative owner names no visual row, though each row has a token
    with pytest.raises(ValueError, match="owner"):
        fu.cross_modal_attention(rng.normal(size=(2, 8)),
                                 rng.normal(size=(3, 8)), [0, -1, 1], w)


def test_attention_weights_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="heads"):
        make_weights(rng, d=8, heads=3)
    with pytest.raises(ValueError, match="shape"):
        fu.AttentionWeights(np.zeros((4, 4)), np.zeros((4, 4)),
                            np.zeros((4, 2)), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        fu.AttentionWeights(np.full((4, 4), np.nan), np.zeros((4, 4)),
                            np.zeros((4, 4)), np.zeros((4, 4)), head_count=2)


def test_attention_rejects_non_integer_owner():
    # 1.7 is not truncated to row 1: the first bad entry is named
    rng = np.random.default_rng(8)
    w = make_weights(rng)
    visual, text = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
    for owner, bad in [([0.0, 1.0, 1.7], "entry 2 is 1.7"),
                       ([0.0, np.nan, 1.0], "entry 1 is nan"),
                       (["0", "1", "1"], "entry 0 is 0")]:
        with pytest.raises(ValueError, match=f"owner {bad}, not an integer"):
            fu.cross_modal_attention(visual, text, owner, w)
    # whole numbers in a float array name the same rows as integers
    assert np.array_equal(
        val(fu.cross_modal_attention(visual, text, [0.0, 1.0, 1.0], w)),
        val(fu.cross_modal_attention(visual, text, [0, 1, 1], w)))


@pytest.mark.parametrize("visual_shape,text_shape", [
    ((8,), (2, 8)), ((2, 6), (2, 8)), ((2, 8), (2, 6)), ((2, 8), (2, 8, 1))])
def test_attention_rejects_misshapen_rows(visual_shape, text_shape):
    w = make_weights(np.random.default_rng(9))
    with pytest.raises(ValueError) as err:
        fu.cross_modal_attention(np.zeros(visual_shape), np.zeros(text_shape),
                                 [0, 1], w)
    assert f"got shapes {visual_shape} and {text_shape}" in str(err.value)
    assert "n x 8 visual rows and L x 8 text rows" in str(err.value)


def reference_attention(visual, text, owner, weights):
    """Attention spelled out head by head in tape ops, as it was recorded
    before it became one ``autodiff.attention`` row: 3 projections, then
    per head two column slices, the scaled and masked scores, a softmax
    and the head's output projection, and the heads added in order."""
    owner = np.asarray(owner)
    mask = np.where(owner[None, :] == np.arange(len(val(visual)))[:, None],
                    0.0, -np.inf)
    dh = np.shape(val(weights.w_q))[1]
    hd = dh // weights.head_count
    q = ref.matmul(visual, weights.w_q)
    keys = ref.matmul(text, weights.w_k)
    values = ref.matmul(text, weights.w_v)
    out = None
    for h in range(weights.head_count):
        lo, hi = h * hd, (h + 1) * hd
        scores = ref.mul(ref.dot(ref.cols(q, lo, hi), ref.cols(keys, lo, hi)),
                         1.0 / math.sqrt(dh))
        attn = ref.softmax(ref.add(scores, mask))
        head = ref.matmul(ref.matmul(attn, ref.cols(values, lo, hi)),
                          ad.take_row(weights.w_out, range(lo, hi)))
        out = head if out is None else ref.add(out, head)
    return out


@pytest.mark.parametrize("heads,tokens_per_row", [
    (1, [1, 2, 3]), (2, [2, 1, 4, 1]), (4, [1]),
    (4, [1, 5, 2, 3, 4, 1, 2, 6, 3, 2, 1, 4, 5, 2, 3, 1])],
    ids=["1-head", "2-heads", "4-heads-one-token", "4-heads-16-rows"])
def test_attention_row_keeps_the_per_head_bits(heads, tokens_per_row):
    rng = np.random.default_rng(heads * 100 + len(tokens_per_row))
    d = 16
    # visual row i owns tokens_per_row[i] text rows, in random order
    owner = rng.permutation(np.repeat(np.arange(len(tokens_per_row)),
                                      tokens_per_row))
    params = {"visual": rng.normal(size=(len(tokens_per_row), d)),
              "text": rng.normal(size=(len(owner), d)),
              **{w: rng.normal(scale=0.5, size=(d, d))
                 for w in ("w_q", "w_k", "w_v", "w_out")}}
    out_weights = rng.normal(size=(len(tokens_per_row), d))

    def run(attention, p):
        weights = fu.AttentionWeights(p["w_q"], p["w_k"], p["w_v"],
                                      p["w_out"], head_count=heads)
        return attention(p["visual"], p["text"], owner, weights)

    # the plain route
    got = run(fu.cross_modal_attention, params)
    assert got.tobytes() == run(reference_attention, params).tobytes()
    # the tape route: the value and the adjoint of every operand
    results = []
    for attention in (fu.cross_modal_attention, reference_attention):
        tape = ad.Tape()
        out = run(attention, {k: tape.leaf(v, name=k)
                              for k, v in params.items()})
        results.append((val(out), ref.gradients(
            tape, ref.sum(ref.mul(out, out_weights)))))
    (value, grads), (want_value, want_grads) = results
    assert value.tobytes() == want_value.tobytes() == got.tobytes()
    for name in params:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def test_plain_attention_peak_memory():
    # an evaluation-size batch, 120 regions of 5 tokens each: the 4 heads'
    # n x L scores are one buffer with the softmax done in place, so the
    # peak stays within 6 n L float64 (two more n x L arrays would not)
    rng = np.random.default_rng(13)
    n, per, d = 120, 5, 16
    w = make_weights(rng, d=d, heads=4)
    visual, text = rng.normal(size=(n, d)), rng.normal(size=(n * per, d))
    owner = np.repeat(np.arange(n), per)
    tracemalloc.start()
    try:
        fu.cross_modal_attention(visual, text, owner, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * (n * per) * 8


# --- positional encoding --------------------------------------------------------


def features(x1, y1, x2, y2):
    """The (cx, cy, w, h) proposal feature of one box."""
    return np.array([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1])


def encode(box, d):
    """The encoding of one (x1, y1, x2, y2) box: a 1-row batch."""
    return fu.encode_boxes(np.array([box], dtype=np.float64), d)[1][0]


def test_encoding_deterministic_for_identical_boxes():
    a = encode((0.1, 0.2, 0.5, 0.9), 16)
    b = encode((0.1, 0.2, 0.5, 0.9), 16)
    assert np.array_equal(a, b)


def test_encoding_entries_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = np.sort(rng.uniform(0, 1, size=2))
        y = np.sort(rng.uniform(0, 1, size=2))
        if x[1] - x[0] < 1e-3 or y[1] - y[0] < 1e-3:
            continue
        enc = encode((x[0], y[0], x[1], y[1]), 24)
        assert enc.shape == (24,)
        assert np.all(enc >= -1.0) and np.all(enc <= 1.0)


def test_encoding_full_image_box_spot_values():
    # features (0.5, 0.5, 1, 1); band b angle = pi * 2^b * z
    enc = encode((0.0, 0.0, 1.0, 1.0), 16)
    want = []
    for z in (0.5, 0.5, 1.0, 1.0):
        for b in range(2):
            angle = math.pi * (2.0 ** b) * z
            want.extend([math.sin(angle), math.cos(angle)])
    assert np.allclose(enc, want, atol=1e-15)
    assert enc[0] == pytest.approx(1.0)          # sin(pi/2)
    assert enc[3] == pytest.approx(-1.0)         # cos(pi)
    assert enc[9] == pytest.approx(-1.0)         # cos(pi) for w
    assert enc[11] == pytest.approx(1.0)         # cos(2 pi)


def test_encoding_requires_multiple_of_eight():
    with pytest.raises(ValueError, match="divisible by 8"):
        encode((0.0, 0.0, 1.0, 1.0), 12)


def test_positional_encode_adds_three_parts():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(2, 16))
    boxes = np.array([(0.2, 0.3, 0.6, 0.8), (0.0, 0.1, 0.9, 0.4)])
    proj = rng.normal(size=(4, 16))
    got = val(fu.positional_encode(v, fu.encode_boxes(boxes, 16), proj))
    for i, box in enumerate(boxes):
        want = v[i] + features(*box) @ proj + encode(box, 16)
        assert np.allclose(got[i], want, atol=1e-12)


def test_rows_of_an_encoding_are_the_encoding_of_those_rows():
    # a corpus is encoded once and a batch takes rows of the pair: the
    # same bits as encoding the batch's own corners
    rng = np.random.default_rng(9)
    lo = rng.uniform(0.0, 0.5, size=(7, 2))
    corners = np.hstack([lo, lo + rng.uniform(0.05, 0.5, size=(7, 2))])
    rows = np.array([6, 0, 0, 3])
    features, encoding = fu.encode_boxes(corners, 16)
    v, proj = rng.normal(size=(4, 16)), rng.normal(size=(4, 16))
    want = fu.positional_encode(v, fu.encode_boxes(corners[rows], 16), proj)
    got = fu.positional_encode(v, (features[rows], encoding[rows]), proj)
    assert got.tobytes() == want.tobytes()


def test_region_feature_rejects_bad_box():
    # a region feature is a visual row and its box: one row of the
    # encode_boxes pair of an n x 4 corner array per visual row
    proj = np.zeros((4, 8))
    box = np.array([(0.0, 0.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match="box row"):
        fu.positional_encode(np.zeros((1, 8)), [(0, 0, 1, 1)], proj)
    with pytest.raises(ValueError, match="box row"):
        fu.positional_encode(np.zeros((1, 8)), box, proj)
    with pytest.raises(ValueError, match="box row"):
        fu.positional_encode(np.zeros((2, 8)), fu.encode_boxes(box, 8), proj)


# --- fuse ------------------------------------------------------------------------


def test_fuse_identity_construction():
    rng = np.random.default_rng(9)
    d = 6
    mlp = zero_mlp(d)
    v_l = rng.normal(size=(1, d))
    v_s = rng.normal(size=(1, d))
    assert np.allclose(val(fu.fuse(v_l, v_s, mlp)), v_l + v_s, atol=0.0)


def test_fuse_zero_inputs_zero_biases_give_zero():
    rng = np.random.default_rng(10)
    d = 4
    mlp = fu.FusionMlp(w1=rng.normal(size=(d, 2 * d)), b1=np.zeros(2 * d),
                       w2=rng.normal(size=(2 * d, d)), b2=np.zeros(d))
    out = val(fu.fuse(np.zeros((1, d)), np.zeros((1, d)), mlp))
    assert np.allclose(out, 0.0, atol=0.0)


def test_fuse_matches_forward_oracle():
    rng = np.random.default_rng(11)
    d = 5
    w1 = rng.normal(size=(d, 2 * d))
    b1 = rng.normal(size=2 * d)
    w2 = rng.normal(size=(2 * d, d))
    b2 = rng.normal(size=d)
    mlp = fu.FusionMlp(w1, b1, w2, b2)
    v_l, v_s = rng.normal(size=(3, d)), rng.normal(size=(3, d))
    got = val(fu.fuse(v_l, v_s, mlp))
    for i in range(3):
        x = v_l[i] + v_s[i]
        want = x + np.tanh(x @ w1 + b1) @ w2 + b2
        assert np.allclose(got[i], want, atol=1e-12)


def test_fuse_rejects_shape_mismatch():
    mlp = zero_mlp(4)
    with pytest.raises(ValueError, match="shape"):
        fu.fuse(np.zeros((1, 4)), np.zeros((1, 5)), mlp)
    with pytest.raises(ValueError, match="matrices"):
        fu.fuse(np.zeros(4), np.zeros(4), mlp)
    with pytest.raises(ValueError, match="2d"):
        fu.FusionMlp(w1=np.zeros((4, 4)), b1=np.zeros(4),
                     w2=np.zeros((4, 4)), b2=np.zeros(4))


# --- gradients through the full fusion path ---------------------------------------


def test_full_fusion_path_gradients():
    """Attention + positional encoding + fuse feeding the hyperbolic loss."""
    rng = np.random.default_rng(12)
    d = 8
    m = 2
    boxes = np.array([(0.1, 0.2, 0.5, 0.8), (0.3, 0.1, 0.9, 0.6)])
    text_np = rng.normal(scale=0.5, size=(3, d))
    # both regions attend over the same three tokens
    text_np, owner = np.vstack([text_np, text_np]), [0, 0, 0, 1, 1, 1]
    params = {
        "wq": rng.normal(scale=0.4, size=(d, d)),
        "wk": rng.normal(scale=0.4, size=(d, d)),
        "wv": rng.normal(scale=0.4, size=(d, d)),
        "wout": rng.normal(scale=0.4, size=(d, d)),
        "proj": rng.normal(scale=0.4, size=(4, d)),
        "w1": rng.normal(scale=0.4, size=(d, 2 * d)),
        "b1": rng.normal(scale=0.1, size=2 * d),
        "w2": rng.normal(scale=0.4, size=(2 * d, d)),
        "b2": rng.normal(scale=0.1, size=d),
        "vis": rng.normal(scale=0.5, size=(m, d)),
        "caps": rng.normal(scale=0.5, size=(m, d)),
        "tau": 0.8,
        "raw_curv": 0.1,
    }

    def build(p):
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

    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    grads = ref.gradients(tape, build(leaves))
    fd = ad.finite_diff(lambda p: float(val(build(p))), params)
    for name in params:
        # atol floor covers components below what central differences with
        # step 1e-6 can resolve (roundoff ~1e-10 per unit of loss)
        np.testing.assert_allclose(np.asarray(grads[name], dtype=float),
                                   np.asarray(fd[name], dtype=float),
                                   rtol=1e-5, atol=1e-8,
                                   err_msg=f"gradient mismatch for {name}")
