"""Fusion module: stage contracts, ablation bypasses, analytic gradients."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from evframe import (
    CafrWeights,
    DomainError,
    FeaturePair,
    SchemaError,
    ShapeError,
    StateError,
    bci_enhance,
    cafr_backward,
    cafr_forward,
    cafr_gradcheck,
    cross_self_attention,
    init_cafr_weights,
    load_weights,
    save_weights,
    tafr_refine,
)
from evframe import fusion_cafr
from evframe.fusion_cafr import BUNDLE_MEMBERS, LINEAR_NAMES, weight_arrays
from evframe.tensor_math import (
    ConvWeights,
    relative_error,
    softmax_rows,
    softmax_rows_inplace,
    softmax_rows_vjp,
)
from evframe.errors import ValidationError  # noqa: F401  (parity with sibling suites)
from conftest import numeric_grad, philox


def random_pair(rng, c=4, h=3, w=5) -> FeaturePair:
    return FeaturePair(rng.standard_normal((c, h, w)), rng.standard_normal((c, h, w)))


def identity_weights(c: int):
    """1x1 identity convs, identity projections: every stage acts transparently."""
    eye_conv = ConvWeights(np.eye(c).reshape(c, c, 1, 1), np.zeros(c))
    eye_conv2 = ConvWeights(np.eye(c).reshape(c, c, 1, 1), np.zeros(c))
    mats = [np.eye(c) for _ in LINEAR_NAMES]
    return CafrWeights(eye_conv, eye_conv2, *mats)


# -- containers ----------------------------------------------------------------------


def test_pair_rejects_mismatched_shapes(rng):
    with pytest.raises(ShapeError):
        FeaturePair(rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 4)))


def test_pair_rejects_wrong_rank(rng):
    with pytest.raises(ShapeError):
        FeaturePair(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))


def test_pair_rejects_non_finite(rng):
    bad = rng.standard_normal((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        FeaturePair(bad, np.zeros((2, 2, 2)))


def test_weight_init_is_seed_deterministic():
    a = init_cafr_weights(4, seed=9)
    b = init_cafr_weights(4, seed=9)
    c = init_cafr_weights(4, seed=10)
    for name, arr in weight_arrays(a).items():
        assert np.array_equal(arr, weight_arrays(b)[name])
    assert not np.array_equal(a.wq_f, c.wq_f)


def test_weight_init_respects_fan_in_bound():
    w = init_cafr_weights(16, seed=0)
    bound = 1.0 / 4.0
    for arr in weight_arrays(w).values():
        assert np.abs(arr).max() <= bound


# -- weight bundles ------------------------------------------------------------------


def test_weight_bundle_round_trip(tmp_path):
    w = init_cafr_weights(5, seed=3)
    save_weights(w, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # member names and file names are part of the bundle format
    assert manifest["members"] == {m: m.replace(".", "_") + ".ftns" for m in BUNDLE_MEMBERS}
    back = weight_arrays(load_weights(tmp_path))
    arrays = weight_arrays(w)
    assert list(back) == list(arrays) == list(BUNDLE_MEMBERS)
    for name, arr in arrays.items():
        # storage is 32-bit, so the round trip is exact at float32
        assert np.array_equal(back[name], arr.astype(np.float32)), name


def test_a_loaded_bundle_is_float64_and_passes_gradcheck(tmp_path):
    save_weights(init_cafr_weights(4, seed=1), tmp_path)
    loaded = load_weights(tmp_path)
    assert {name: arr.dtype for name, arr in weight_arrays(loaded).items()} == {
        name: np.float64 for name in BUNDLE_MEMBERS
    }
    # the check perturbs every member in place by +-1e-5, which a float32
    # member would round away
    rng = philox(0)
    pair = FeaturePair(rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 2)))
    assert cafr_gradcheck(pair, loaded, probes=400, seed=2) < 1e-6


def test_weight_bundle_bytes_are_pinned(tmp_path):
    save_weights(init_cafr_weights(4, seed=2), tmp_path)
    files = sorted(tmp_path.iterdir())
    assert [p.name for p in files] == sorted(
        ["manifest.json"] + [m.replace(".", "_") + ".ftns" for m in BUNDLE_MEMBERS]
    )
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == "986efb3988c26389ebc3cf14aeb1f9d53cb64a757e5375a836940d9a9a878485"


def test_tensor_bundle_requires_member_table(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"oops": 1}))
    with pytest.raises(SchemaError, match="no 'members' table"):
        load_weights(tmp_path)


@pytest.mark.parametrize(
    "manifest, fault",
    [
        (b"{not json", "not valid JSON"),
        (b"\xff{}", "not valid JSON"),
        (b"[]", "must be a JSON object"),
        (b'{"members": {"wq_f": 5}}', "member 'wq_f' must name a file"),
    ],
)
def test_broken_bundle_manifest_is_a_schema_error(tmp_path, manifest, fault):
    (tmp_path / "manifest.json").write_bytes(manifest)
    with pytest.raises(SchemaError, match=fault):
        load_weights(tmp_path)


@pytest.mark.parametrize(
    "drop, add, message",
    [
        (
            ["conv1x1_e.bias", "wq_f"], [],
            "weight bundle is missing member 'conv1x1_e.bias'",
        ),
        ([], ["wz"], "weight bundle member 'wz' is not read by CafrWeights"),
        (list(BUNDLE_MEMBERS), [], "weight bundle is missing member 'conv1x1_f.kernel'"),
        (["we"], ["wz"], "weight bundle is missing member 'we'"),
    ],
    ids=["missing-member", "extra-member", "no-members", "missing-before-extra"],
)
def test_weight_bundle_faults_name_the_member(tmp_path, drop, add, message):
    save_weights(init_cafr_weights(3, seed=1), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for name in drop:
        del manifest["members"][name]
    for name in add:
        (tmp_path / f"{name}.ftns").write_bytes((tmp_path / "wq_f.ftns").read_bytes())
        manifest["members"][name] = f"{name}.ftns"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaError) as exc:
        load_weights(tmp_path)
    assert str(exc.value) == message


def test_weight_load_rejects_missing_member(tmp_path):
    w = init_cafr_weights(3, seed=1)
    save_weights(w, tmp_path)
    (tmp_path / "wq_f.ftns").unlink()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["members"]["wq_f"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load_weights(tmp_path)


# -- stage 1+2: activation and enhancement ----------------------------------------------


def test_identity_activation_passes_features_through(rng):
    pair = random_pair(rng)
    out = fusion_cafr._activate(pair, identity_weights(4))
    assert np.allclose(out.frame, pair.frame, atol=1e-15)
    assert np.allclose(out.event, pair.event, atol=1e-15)


def test_enhancement_adds_the_shared_product_map(rng):
    pair = random_pair(rng)
    out = bci_enhance(pair)
    m = pair.frame * pair.event
    assert np.array_equal(out.frame, m + pair.frame)
    assert np.array_equal(out.event, m + pair.event)


def test_enhancement_difference_identity_on_exact_inputs():
    # values with short significands keep every op exact, so the difference
    # identity holds bitwise
    rng = philox(77)
    scale = 2.0**20
    f = rng.integers(-(2**20), 2**20, size=(4, 3, 5)).astype(np.float64) / scale
    e = rng.integers(-(2**20), 2**20, size=(4, 3, 5)).astype(np.float64) / scale
    out = bci_enhance(FeaturePair(f, e))
    assert np.array_equal(out.frame - out.event, f - e)


def test_enhancement_difference_within_rounding_on_dense_inputs(rng):
    pair = random_pair(rng, c=8, h=6, w=5)
    out = bci_enhance(pair)
    lhs = out.frame - out.event
    rhs = pair.frame - pair.event
    assert np.abs(lhs - rhs).max() < 1e-13


# -- stage 3: attention -------------------------------------------------------------


def test_attention_matches_two_token_oracle():
    rng = philox(50)
    c = 3
    frame = rng.standard_normal((c, 1, 2))  # two spatial tokens
    event = rng.standard_normal((c, 1, 2))
    w = init_cafr_weights(c, seed=4)
    out = cross_self_attention(FeaturePair(frame, event), w)

    tf = frame.reshape(c, 2).T
    te = event.reshape(c, 2).T
    scale = 1.0 / np.sqrt(c)
    qe, ke, vf = te @ w.wq_e, te @ w.wk_e, tf @ w.wv_f
    qf, kf, ve = tf @ w.wq_f, tf @ w.wk_f, te @ w.wv_e
    s_f = qe @ ke.T * scale
    s_e = qf @ kf.T * scale
    a_f = np.exp(s_f - s_f.max(axis=1, keepdims=True))
    a_f /= a_f.sum(axis=1, keepdims=True)
    a_e = np.exp(s_e - s_e.max(axis=1, keepdims=True))
    a_e /= a_e.sum(axis=1, keepdims=True)
    want_f = (a_f @ vf).T.reshape(c, 1, 2)
    want_e = (a_e @ ve).T.reshape(c, 1, 2)
    assert np.abs(out.frame - want_f).max() < 1e-12
    assert np.abs(out.event - want_e).max() < 1e-12


def test_single_token_attention_returns_the_value_projection_exactly():
    rng = philox(51)
    c = 5
    pair = FeaturePair(rng.standard_normal((c, 1, 1)), rng.standard_normal((c, 1, 1)))
    w = init_cafr_weights(c, seed=6)
    out = cross_self_attention(pair, w)
    vf = pair.frame.reshape(c) @ w.wv_f
    ve = pair.event.reshape(c) @ w.wv_e
    assert np.array_equal(out.frame.reshape(c), vf)
    assert np.array_equal(out.event.reshape(c), ve)


def test_attention_rejects_an_empty_token_set():
    empty = FeaturePair(np.zeros((3, 0, 4)), np.zeros((3, 0, 4)))
    with pytest.raises(ShapeError):
        cross_self_attention(empty, init_cafr_weights(3))


def test_attention_weights_come_from_the_opposite_stream(rng):
    # zeroing the event stream must flatten the weights applied to frame values
    c, h, wdt = 3, 2, 2
    frame = rng.standard_normal((c, h, wdt))
    w = identity_weights(c)
    pair = FeaturePair(frame, np.zeros((c, h, wdt)))
    out = cross_self_attention(pair, w)
    # event tokens all zero -> logits all zero -> uniform average of frame tokens
    mean_token = frame.reshape(c, -1).mean(axis=1)
    assert np.allclose(out.frame, mean_token[:, None, None], atol=1e-12)


# -- blocked attention against the dense oracle ------------------------------------


def dense_attention(pair: FeaturePair, w) -> FeaturePair:
    """Oracle: both full N x N attention maps, built at once."""
    c = pair.channels
    tf = pair.frame.reshape(c, -1).T
    te = pair.event.reshape(c, -1).T
    scale = 1.0 / np.sqrt(c)
    a_f = softmax_rows((te @ w.wq_e) @ (te @ w.wk_e).T * scale)
    a_e = softmax_rows((tf @ w.wq_f) @ (tf @ w.wk_f).T * scale)
    shape = pair.frame.shape
    return FeaturePair(
        (a_f @ (tf @ w.wv_f)).T.reshape(shape), (a_e @ (te @ w.wv_e)).T.reshape(shape)
    )


def set_block_rows(monkeypatch, n_tokens: int, rows: int):
    """Size blocks to ``rows`` query rows for ``n_tokens`` keys."""
    monkeypatch.setattr(fusion_cafr, "ATTN_BLOCK_BYTES", 8 * n_tokens * rows)


def spy_block_rows(monkeypatch) -> list:
    """Record the row count of every attention block the module computes."""
    seen = []

    def spy(x):
        seen.append(x.shape[0])
        return softmax_rows_inplace(x)

    monkeypatch.setattr(fusion_cafr, "softmax_rows_inplace", spy)
    return seen


# (h, w, rows per block, row counts of one stream's blocks)
BLOCK_CASES = [
    pytest.param(3, 5, 4, [4, 4, 4, 3], id="ragged-last-block"),
    pytest.param(4, 4, 4, [4, 4, 4, 4], id="exact-multiple"),
    pytest.param(3, 5, 1, [1] * 15, id="one-row-blocks"),
    pytest.param(2, 3, 32, [6], id="fewer-tokens-than-rows"),
    pytest.param(1, 1, 4, [1], id="single-token"),
]


@pytest.mark.parametrize("h, wdt, rows, blocks", BLOCK_CASES)
def test_blocked_attention_matches_the_dense_oracle(monkeypatch, h, wdt, rows, blocks):
    rng = philox(64)
    c = 4
    pair = FeaturePair(rng.standard_normal((c, h, wdt)), rng.standard_normal((c, h, wdt)))
    w = init_cafr_weights(c, seed=64)
    set_block_rows(monkeypatch, h * wdt, rows)
    seen = spy_block_rows(monkeypatch)
    out = cross_self_attention(pair, w)
    assert seen == blocks * 2  # one pass per stream
    want = dense_attention(pair, w)
    assert np.abs(out.frame - want.frame).max() < 1e-12
    assert np.abs(out.event - want.event).max() < 1e-12


def test_block_smaller_than_one_row_still_takes_a_row(monkeypatch, rng):
    pair = random_pair(rng, c=3, h=2, w=2)
    monkeypatch.setattr(fusion_cafr, "ATTN_BLOCK_BYTES", 1)
    seen = spy_block_rows(monkeypatch)
    cross_self_attention(pair, init_cafr_weights(3, seed=2))
    assert seen == [1] * 8


@pytest.mark.parametrize("h, wdt, rows, blocks", BLOCK_CASES)
def test_blocked_backward_passes_gradcheck(monkeypatch, h, wdt, rows, blocks):
    rng = philox(65)
    c = 3
    pair = FeaturePair(rng.standard_normal((c, h, wdt)), rng.standard_normal((c, h, wdt)))
    w = init_cafr_weights(c, seed=65)
    out, cache = cafr_forward(pair, w)
    r = rng.standard_normal(out.shape)
    whole = cafr_backward(cache, r)

    set_block_rows(monkeypatch, h * wdt, rows)
    seen = spy_block_rows(monkeypatch)
    blocked = cafr_backward(cafr_forward(pair, w)[1], r)
    assert seen == blocks * 4  # forward and backward, both streams
    for got, want in [(blocked.frame, whole.frame), (blocked.event, whole.event)] + [
        (blocked.weights[name], whole.weights[name]) for name in whole.weights
    ]:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)

    worst = cafr_gradcheck(pair, w, probes=50, step=1e-5, seed=1)
    assert worst < 1e-5, f"worst relative error {worst:.3e}"


def test_attention_refuses_scores_that_overflow():
    # the row-norm bound overflows, so each block is checked: the scores are
    # -inf and 0, which an unchecked softmax would turn into a finite output
    q = np.array([[1e200, 1e200]])
    k = np.array([[-1e200, -1e200], [0.0, 0.0]])
    v = np.array([[1.0], [2.0]])
    scale = 1.0 / np.sqrt(2.0)
    with pytest.raises(DomainError, match="softmax input must be finite"):
        fusion_cafr._attend(q, k, v, scale)
    with pytest.raises(DomainError, match="softmax input must be finite"):
        fusion_cafr._attend_vjp(q, k, v, scale, np.ones((1, 1)))


def test_attention_with_a_failed_bound_but_finite_scores_runs_checked():
    q = np.array([[1e200, 0.0]])
    k = np.array([[0.0, 1e200]])
    v = np.array([[3.0, -1.0]])
    g = np.array([[0.5, 2.0]])
    scale = 1.0 / np.sqrt(2.0)
    a = softmax_rows(q @ k.T * scale)
    assert fusion_cafr._attend(q, k, v, scale).tobytes() == (a @ v).tobytes()
    ds = softmax_rows_vjp(a, g @ v.T)
    want = (ds @ k * scale, ds.T @ q * scale, a.T @ g)
    got = fusion_cafr._attend_vjp(q, k, v, scale, g)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_cafr_forward_refuses_overflowing_attention_scores():
    # enhanced tokens of 1e160 and 2e160 in 4 channels: every score overflows
    pair = FeaturePair(np.full((4, 2, 3), 1e160), np.ones((4, 2, 3)))
    with pytest.raises(DomainError, match="softmax input must be finite"):
        cafr_forward(pair, identity_weights(4))


def cache_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from cache_arrays(getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from cache_arrays(item)


def test_fusion_memory_stays_linear_in_tokens():
    # 2 700 tokens: one dense N x N float64 map alone is 58 MB, and the dense
    # formulation peaked near 290 MB here
    rng = philox(66)
    c, h, wdt = 8, 45, 60
    n = h * wdt
    pair = FeaturePair(rng.standard_normal((c, h, wdt)), rng.standard_normal((c, h, wdt)))
    w = init_cafr_weights(c, seed=66)
    tracemalloc.start()
    try:
        _, cache = cafr_forward(pair, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert cache.attended is not None
    assert max(a.size for a in cache_arrays(cache)) < n * n


def test_attention_peaks_within_one_and_a_half_score_blocks():
    # the pair of the test above: 2 700 tokens, 194-row blocks of ~4 MiB; the
    # softmax runs in the block's own buffer, so no second B x N array exists
    rng = philox(66)
    c, h, wdt = 8, 45, 60
    pair = FeaturePair(rng.standard_normal((c, h, wdt)), rng.standard_normal((c, h, wdt)))
    w = init_cafr_weights(c, seed=66)
    tracemalloc.start()
    try:
        cross_self_attention(pair, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * fusion_cafr.ATTN_BLOCK_BYTES, f"peak {peak / 2**20:.2f} MiB"


# -- stage 4: refinement -------------------------------------------------------------


def per_channel_stats(x):
    return x.mean(axis=(1, 2)), x.std(axis=(1, 2))


def test_refinement_transfers_channel_statistics(rng):
    c = 8
    attended = random_pair(rng, c=c, h=6, w=5)
    enhanced = random_pair(rng, c=c, h=6, w=5)
    w = init_cafr_weights(c, seed=8)
    out = tafr_refine(attended, enhanced, w)
    assert out.shape == (2 * c, 6, 5)
    for half, target in ((out[:c], enhanced.frame), (out[c:], enhanced.event)):
        mu_o, sg_o = per_channel_stats(half)
        mu_t, sg_t = per_channel_stats(target)
        assert np.abs(mu_o - mu_t).max() < 1e-5
        assert np.abs(sg_o - sg_t).max() < 1e-4


def test_refinement_rejects_shape_mismatch(rng):
    w = init_cafr_weights(3, seed=0)
    with pytest.raises(ShapeError):
        tafr_refine(random_pair(rng, c=3, h=2, w=2), random_pair(rng, c=3, h=2, w=3), w)


@pytest.mark.parametrize("c", [0, 1, 3])
def test_public_stages_refuse_weights_for_other_channels(rng, c):
    pair = random_pair(rng, c=c, h=2, w=3)
    w = init_cafr_weights(c + 1)
    for stage in (lambda: cross_self_attention(pair, w), lambda: tafr_refine(pair, pair, w)):
        with pytest.raises(ShapeError) as exc:
            stage()
        assert str(exc.value) == f"pair has {c} channels, weights expect {c + 1}"


# -- full module ---------------------------------------------------------------------


def test_bypassing_every_stage_concatenates_the_activations(rng):
    pair = random_pair(rng, c=3)
    w = identity_weights(3)
    out, _ = cafr_forward(
        pair, w, use_mul_add=False, use_cross_att=False, use_fr=False
    )
    assert np.allclose(out[:3], pair.frame, atol=1e-15)
    assert np.allclose(out[3:], pair.event, atol=1e-15)


def test_stage_bypass_flags_change_the_output(rng):
    pair = random_pair(rng, c=4)
    w = init_cafr_weights(4, seed=5)
    full, _ = cafr_forward(pair, w)
    for flag in ("use_mul_add", "use_cross_att", "use_fr"):
        ablated, _ = cafr_forward(pair, w, **{flag: False})
        assert not np.allclose(full, ablated)


def test_backward_requires_forward_cache():
    with pytest.raises(StateError):
        cafr_backward(None, np.zeros((8, 3, 2)))


@pytest.mark.parametrize("flag", ["use_mul_add", "use_cross_att", "use_fr"])
def test_a_bypassed_run_has_no_cache_and_no_backward(rng, flag):
    pair = random_pair(rng, c=4, h=3, w=2)
    out, cache = cafr_forward(pair, init_cafr_weights(4, seed=3), **{flag: False})
    assert out.shape == (8, 3, 2)
    assert cache is None
    with pytest.raises(StateError, match="every stage on"):
        cafr_backward(cache, np.zeros(out.shape))


def test_backward_rejects_wrong_upstream_shape(rng):
    pair = random_pair(rng, c=4, h=3, w=2)
    w = init_cafr_weights(4, seed=1)
    _, cache = cafr_forward(pair, w)
    with pytest.raises(ShapeError):
        cafr_backward(cache, np.zeros((4, 3, 2)))  # dual output needs 2C


def test_gradcheck_on_default_configuration():
    rng = philox(60)
    pair = FeaturePair(rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 2)))
    w = init_cafr_weights(4, seed=60)
    worst = cafr_gradcheck(pair, w, probes=25, step=1e-5, seed=0)
    assert worst < 1e-5


def array_digest(named: dict) -> str:
    h = hashlib.sha256()
    for name, arr in named.items():
        h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


# (c, h, w) -> (digest of the fused output, digest of every gradient); the
# 40x40 pair's 1 600 tokens take five attention blocks per stream, and the
# bench-scale 65x87 pair's 5 655 tokens 62, pinned by its forward alone
PINNED_CAFR = {
    (3, 1, 1): ("14aff2327de99792", "fd452499b99bc556"),
    (4, 3, 5): ("c70a6a5f73c03d58", "9d623cd1e007b9f5"),
    (6, 40, 40): ("12eb6e16d7abc6d1", "753a58717ae20ac5"),
    (8, 65, 87): ("69449b1f5359d6de", None),
}


@pytest.mark.parametrize("c, h, wdt", sorted(PINNED_CAFR))
def test_forward_and_gradient_bytes_are_pinned(c, h, wdt):
    # bytes, not tolerances: a backward that rebuilds what it needs must
    # redo the forward's ops in the forward's order
    rng = philox(70 + c)
    pair = FeaturePair(rng.standard_normal((c, h, wdt)), rng.standard_normal((c, h, wdt)))
    out, cache = cafr_forward(pair, init_cafr_weights(c, seed=70 + c))
    want_out, want_grads = PINNED_CAFR[c, h, wdt]
    assert array_digest({"out": out}) == want_out
    if want_grads is None:
        return
    grads = cafr_backward(cache, rng.standard_normal(out.shape))
    named = {"frame": grads.frame, "event": grads.event}
    named.update((name, grads.weights[name]) for name in BUNDLE_MEMBERS)
    assert array_digest(named) == want_grads


def test_activation_gradients_match_finite_differences_at_every_coordinate():
    # the 1x1 activation is the one conv the backward differentiates: check
    # both kernels, both biases and both inputs entry by entry
    rng = philox(63)
    pair = FeaturePair(rng.standard_normal((3, 2, 3)), rng.standard_normal((3, 2, 3)))
    w = init_cafr_weights(3, seed=63)
    out, cache = cafr_forward(pair, w)
    r = rng.standard_normal(out.shape)
    grads = cafr_backward(cache, r)
    arrays = weight_arrays(w)
    targets = {"frame": (pair.frame, grads.frame), "event": (pair.event, grads.event)}
    for name in ("conv1x1_f.kernel", "conv1x1_f.bias", "conv1x1_e.kernel", "conv1x1_e.bias"):
        targets[name] = (arrays[name], grads.weights[name])

    def loss(_):
        return float(np.sum(cafr_forward(pair, w)[0] * r))

    for name, (target, analytic) in targets.items():
        numeric = numeric_grad(loss, target)
        worst = max(relative_error(float(a), float(n)) for a, n in zip(analytic.ravel(), numeric.ravel()))
        assert worst < 1e-5, f"{name}: worst {worst:.3e}"


# each stream's half of a 3-channel module's dual output
HALVES = {"frame": slice(None, 3), "event": slice(3, None)}


@pytest.mark.parametrize("half", sorted(HALVES))
def test_one_half_gradient_is_the_dual_backward_with_a_zero_half(half):
    rng = philox(61)
    pair = FeaturePair(rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2)))
    w = init_cafr_weights(3, seed=61)
    _, cache = cafr_forward(pair, w)
    r = rng.standard_normal((3, 2, 2))
    used = HALVES[half]
    upstream = np.zeros((6, 2, 2))
    upstream[used] = r
    grads = cafr_backward(cache, upstream)

    def loss(arr):
        return float(np.sum(cafr_forward(pair, w)[0][used] * r))

    for target, analytic in ((pair.frame, grads.frame), (pair.event, grads.event)):
        numeric = numeric_grad(loss, target)
        worst = max(
            relative_error(float(a), float(n))
            for a, n in zip(analytic.ravel(), numeric.ravel())
        )
        assert worst < 1e-5, f"{half}: worst {worst:.3e}"


def test_unused_value_path_has_zero_gradient():
    # frame half touches wv_f but never wq_f/wk_f/wv_e/we
    rng = philox(62)
    pair = FeaturePair(rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2)))
    w = init_cafr_weights(3, seed=62)
    _, cache = cafr_forward(pair, w)
    upstream = np.concatenate([rng.standard_normal((3, 2, 2)), np.zeros((3, 2, 2))])
    grads = cafr_backward(cache, upstream)
    for name in ("wq_f", "wk_f", "wv_e", "we"):
        assert not grads.weights[name].any(), name
    for name in ("wq_e", "wk_e", "wv_f", "wf"):
        assert grads.weights[name].any(), name


def test_weight_init_over_the_byte_budget_is_refused_before_any_draw(monkeypatch):
    # ten 4 x 4 float64 matrices: two 1x1 conv kernels and eight linear maps
    monkeypatch.setattr(fusion_cafr, "MAX_BYTES", 10 * 4 * 4 * 8)
    init_cafr_weights(4)  # exactly at the budget
    message = "^a CAFR weight set for 5 channels needs 2000 bytes, over the 1280-byte budget$"
    with pytest.raises(DomainError, match=message):
        init_cafr_weights(5)
