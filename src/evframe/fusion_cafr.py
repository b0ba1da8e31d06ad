"""Two-stream feature fusion with verified analytic gradients.

Fuses a frame feature map and an event feature map of identical [C,H,W] shape
through four stages: per-stream 1x1 activation, multiplicative mutual
enhancement, swapped-query attention over spatial tokens (each stream
attends with the other stream's query/key projections), and a
statistics-aligned refinement that concatenates both streams to 2C channels.
Enhancement, attention and refinement can each be bypassed for the paper's
ablations. The full module, every stage on, has one hand-derived backward,
checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, StateError
from .formats_io import weight_arrays
from .tensor_math import (
    ConvWeights,
    channel_stats,
    channel_stats_vjp,
    conv2d_forward,
    conv2d_vjp,
    linear,
    linear_vjp,
    philox,
    relative_error,
    softmax_rows,
    softmax_rows_vjp,
    uniform_conv,
)

LINEAR_NAMES = ("wq_f", "wk_f", "wv_f", "wq_e", "wk_e", "wv_e", "wf", "we")


@dataclass
class FeaturePair:
    """Same-shape [C,H,W] float64 feature maps from the two streams."""

    frame: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=np.float64)
        e = np.asarray(self.event, dtype=np.float64)
        if f.ndim != 3:
            raise ShapeError(f"features must be [C,H,W], got rank {f.ndim}")
        if f.shape != e.shape:
            raise ShapeError(f"stream shapes differ: {f.shape} vs {e.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(e))):
            raise DomainError("features must be finite")
        self.frame = f
        self.event = e

    @property
    def channels(self) -> int:
        return self.frame.shape[0]


@dataclass
class CafrWeights:
    """All fusion parameters; every projection is square C -> C."""

    conv1x1_f: ConvWeights
    conv1x1_e: ConvWeights
    wq_f: np.ndarray
    wk_f: np.ndarray
    wv_f: np.ndarray
    wq_e: np.ndarray
    wk_e: np.ndarray
    wv_e: np.ndarray
    wf: np.ndarray
    we: np.ndarray

    def __post_init__(self):
        c = self.conv1x1_f.out_ch
        for conv in (self.conv1x1_f, self.conv1x1_e):
            if conv.kernel.shape != (c, c, 1, 1):
                raise ShapeError(f"activation conv must be {c}x{c}x1x1, got {conv.kernel.shape}")
        for name in LINEAR_NAMES:
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (c, c):
                raise ShapeError(f"{name} must be {c}x{c}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise DomainError(f"{name} must be finite")
            setattr(self, name, m)

    @property
    def channels(self) -> int:
        return self.conv1x1_f.out_ch


def init_cafr_weights(channels: int, seed: int = 0) -> CafrWeights:
    """Deterministic uniform [-1/sqrt(C), +1/sqrt(C)] init, fixed draw order."""
    if channels < 1:
        raise DomainError(f"channels must be positive, got {channels}")
    rng = philox(seed)
    conv_f = uniform_conv(rng, channels, channels, 1)
    conv_e = uniform_conv(rng, channels, channels, 1)
    bound = 1.0 / math.sqrt(channels)
    mats = [rng.uniform(-bound, bound, size=(channels, channels)) for _ in LINEAR_NAMES]
    return CafrWeights(conv_f, conv_e, *mats)


def _tokens(x: np.ndarray) -> np.ndarray:
    """[C,H,W] -> [H*W, C]: one token per spatial position."""
    return x.reshape(x.shape[0], -1).T


def _untokens(t: np.ndarray, shape: tuple) -> np.ndarray:
    return t.T.reshape(shape)


# -- stage 1: activation ---------------------------------------------------------

def _activate(pair: FeaturePair, w: CafrWeights):
    """Per-stream 1x1 convolution; returns the pair and both conv caches."""
    if pair.channels != w.channels:
        raise ShapeError(f"pair has {pair.channels} channels, weights expect {w.channels}")
    af, cache_f = conv2d_forward(pair.frame, w.conv1x1_f)
    ae, cache_e = conv2d_forward(pair.event, w.conv1x1_e)
    return FeaturePair(af, ae), (cache_f, cache_e)


# -- stage 2: mutual enhancement ---------------------------------------------------

def bci_enhance(activated: FeaturePair) -> FeaturePair:
    """Add the shared elementwise-product map back onto each stream.

    The difference of the two outputs equals the difference of the inputs
    exactly.
    """
    m = activated.frame * activated.event
    return FeaturePair(m + activated.frame, m + activated.event)


def _enhance_vjp(activated: FeaturePair, gf, ge):
    gm = gf + ge
    return gf + gm * activated.event, ge + gm * activated.frame


# -- stage 3: swapped-query attention -------------------------------------------------

# Attention runs over blocks of query rows so that no N x N matrix is ever
# built: each block's B x N float64 score matrix takes at most this many bytes
# (about 90 rows at DAVIS346 scale, 5 655 tokens; never fewer than one row).
# A softmax row needs every key but only its own query, so blocking by rows
# changes no math; results match the dense form to rounding.
ATTN_BLOCK_BYTES = 4 << 20


def _score_blocks(q: np.ndarray, k: np.ndarray, scale: float):
    """Yield (rows, q[rows] @ k.T * scale) block by block.

    Every block is written into one reused buffer, so the loop allocates no
    fresh B x N scores per block; the next block overwrites the yielded view.
    """
    n = q.shape[0]
    b = min(n, max(1, ATTN_BLOCK_BYTES // (8 * k.shape[0])))
    buf = np.empty((b, k.shape[0]))
    for s in range(0, n, b):
        rows = slice(s, min(s + b, n))
        scores = buf[: rows.stop - s]
        np.matmul(q[rows], k.T, out=scores)
        scores *= scale
        yield rows, scores


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax_rows(q @ k.T * scale) @ v, one block of query rows at a time."""
    out = np.empty((q.shape[0], v.shape[1]))
    for rows, scores in _score_blocks(q, k, scale):
        out[rows] = softmax_rows(scores) @ v
    return out


def _attend_vjp(q, k, v, scale: float, g: np.ndarray):
    """(dq, dk, dv) of _attend; each block's attention is recomputed."""
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for rows, scores in _score_blocks(q, k, scale):
        a = softmax_rows(scores)
        dv += a.T @ g[rows]
        ds = softmax_rows_vjp(a, g[rows] @ v.T)
        dq[rows] = ds @ k * scale
        dk += ds.T @ q[rows] * scale
    return dq, dk, dv


@dataclass
class _AttnCache:
    """Tokens and projections only: O(N*C), no attention matrix."""

    tf: np.ndarray
    te: np.ndarray
    qe: np.ndarray
    ke: np.ndarray
    vf: np.ndarray
    qf: np.ndarray
    kf: np.ndarray
    ve: np.ndarray
    scale: float


def _attention(pair: FeaturePair, w: CafrWeights):
    shape = pair.frame.shape
    tf = _tokens(pair.frame)
    te = _tokens(pair.event)
    if not len(tf):
        raise ShapeError(f"attention needs at least one token, got {shape}")
    scale = 1.0 / math.sqrt(pair.channels)
    # each stream's values are mixed under weights derived from the other
    # stream's own query/key pair
    qe, ke, vf = linear(te, w.wq_e), linear(te, w.wk_e), linear(tf, w.wv_f)
    qf, kf, ve = linear(tf, w.wq_f), linear(tf, w.wk_f), linear(te, w.wv_e)
    out = FeaturePair(
        _untokens(_attend(qe, ke, vf, scale), shape),
        _untokens(_attend(qf, kf, ve, scale), shape),
    )
    return out, _AttnCache(tf, te, qe, ke, vf, qf, kf, ve, scale)


def cross_self_attention(enhanced: FeaturePair, w: CafrWeights) -> FeaturePair:
    """Token attention over spatial positions with swapped stream pairing."""
    return _attention(enhanced, w)[0]


def _attention_vjp(cache: _AttnCache, w: CafrWeights, g_caf: np.ndarray, g_cae: np.ndarray):
    """Token-space grads in, (dtf, dte, weight grads) out."""
    dqe, dke, dvf = _attend_vjp(cache.qe, cache.ke, cache.vf, cache.scale, g_caf)
    dqf, dkf, dve = _attend_vjp(cache.qf, cache.kf, cache.ve, cache.scale, g_cae)

    dws = {}
    dtf, dws["wv_f"] = linear_vjp(cache.tf, w.wv_f, dvf)
    d, dws["wq_f"] = linear_vjp(cache.tf, w.wq_f, dqf)
    dtf = dtf + d
    d, dws["wk_f"] = linear_vjp(cache.tf, w.wk_f, dkf)
    dtf = dtf + d
    dte, dws["wq_e"] = linear_vjp(cache.te, w.wq_e, dqe)
    d, dws["wk_e"] = linear_vjp(cache.te, w.wk_e, dke)
    dte = dte + d
    d, dws["wv_e"] = linear_vjp(cache.te, w.wv_e, dve)
    dte = dte + d
    return dtf, dte, dws


# -- stage 4: statistics-aligned refinement -------------------------------------------

@dataclass
class _RefineCache:
    t_caf: np.ndarray
    t_cae: np.ndarray
    xhat_f: np.ndarray
    xhat_e: np.ndarray
    sg_wf: np.ndarray
    sg_we: np.ndarray
    sg_ef: np.ndarray
    sg_ee: np.ndarray


def _refine(attended: FeaturePair, enhanced: FeaturePair, w: CafrWeights):
    if attended.frame.shape != enhanced.frame.shape:
        raise ShapeError(
            f"attended {attended.frame.shape} vs enhanced {enhanced.frame.shape}"
        )
    shape = attended.frame.shape
    t_caf = _tokens(attended.frame)
    t_cae = _tokens(attended.event)
    wf_map = _untokens(linear(t_caf, w.wf), shape)
    we_map = _untokens(linear(t_cae, w.we), shape)

    mu_wf, sg_wf = channel_stats(wf_map)
    mu_we, sg_we = channel_stats(we_map)
    mu_ef, sg_ef = channel_stats(enhanced.frame)
    mu_ee, sg_ee = channel_stats(enhanced.event)

    xhat_f = (wf_map - mu_wf[:, None, None]) / sg_wf[:, None, None]
    xhat_e = (we_map - mu_we[:, None, None]) / sg_we[:, None, None]
    out_f = sg_ef[:, None, None] * xhat_f + mu_ef[:, None, None]
    out_e = sg_ee[:, None, None] * xhat_e + mu_ee[:, None, None]
    out = np.concatenate([out_f, out_e], axis=0)
    cache = _RefineCache(t_caf, t_cae, xhat_f, xhat_e, sg_wf, sg_we, sg_ef, sg_ee)
    return out, cache


def tafr_refine(attended: FeaturePair, enhanced: FeaturePair, w: CafrWeights) -> np.ndarray:
    """Project each attended stream, renormalize it per channel to the
    enhanced stream's mean and scale, and concatenate to [2C,H,W]."""
    return _refine(attended, enhanced, w)[0]


def _half_refine_vjp(g, xhat, sg_w, sg_e, enh, t_ca, wmat):
    """Backward for one stream of _refine.

    out = sg_e * xhat + mu_e with xhat = (x - mu_x)/sg_x. The x path is the
    usual instance-norm gradient; the enhanced stream gets the mu/sigma path.
    """
    g_xhat = g * sg_e[:, None, None]
    mean_g = g_xhat.mean(axis=(1, 2))
    mean_gx = (g_xhat * xhat).mean(axis=(1, 2))
    g_wmap = (g_xhat - mean_g[:, None, None] - xhat * mean_gx[:, None, None]) / sg_w[:, None, None]

    gmu = g.sum(axis=(1, 2))
    gsigma = (g * xhat).sum(axis=(1, 2))
    g_enh = channel_stats_vjp(enh, sg_e, gmu, gsigma)

    g_tca, dwmat = linear_vjp(t_ca, wmat, _tokens(g_wmap))
    return _untokens(g_tca, g.shape), g_enh, dwmat


def _refine_vjp(cache: _RefineCache, enhanced: FeaturePair, w: CafrWeights, gf, ge):
    g_att_f, g_enh_f, dwf = _half_refine_vjp(
        gf, cache.xhat_f, cache.sg_wf, cache.sg_ef, enhanced.frame, cache.t_caf, w.wf
    )
    g_att_e, g_enh_e, dwe = _half_refine_vjp(
        ge, cache.xhat_e, cache.sg_we, cache.sg_ee, enhanced.event, cache.t_cae, w.we
    )
    return g_att_f, g_att_e, g_enh_f, g_enh_e, dwf, dwe


# -- full module -------------------------------------------------------------------

@dataclass
class CafrCache:
    weights: CafrWeights
    conv_caches: tuple
    activated: FeaturePair
    enhanced: FeaturePair
    attn: _AttnCache
    refine: _RefineCache


def cafr_forward(
    pair: FeaturePair,
    w: CafrWeights,
    use_mul_add: bool = True,
    use_cross_att: bool = True,
    use_fr: bool = True,
):
    """Run activation -> enhancement -> attention -> refinement.

    Returns (fused, cache) with fused the dual [2C,H,W] map: frame half, then
    event half. The use_* flags identity-bypass single stages for ablations;
    a run with a bypassed stage returns None as its cache, since cafr_backward
    differentiates the full module only.
    """
    activated, conv_caches = _activate(pair, w)
    enhanced = bci_enhance(activated) if use_mul_add else activated
    attended, attn = _attention(enhanced, w) if use_cross_att else (enhanced, None)
    if use_fr:
        out, refine = _refine(attended, enhanced, w)
    else:
        out, refine = np.concatenate([attended.frame, attended.event], axis=0), None
    if not (use_mul_add and use_cross_att and use_fr):
        return out, None
    return out, CafrCache(w, conv_caches, activated, enhanced, attn, refine)


@dataclass
class CafrGradients:
    """d<output, upstream> by input stream and by weight member name."""

    frame: np.ndarray
    event: np.ndarray
    weights: dict


def cafr_backward(cache: CafrCache, gout: np.ndarray) -> CafrGradients:
    """Analytic gradients of sum(cafr_forward(...)[0] * gout).

    ``gout`` matches the dual [2C,H,W] output; the gradient of one half alone
    is this with zeros on the other half.
    """
    if cache is None:
        raise StateError("cafr_backward needs the cache of a cafr_forward run with every stage on")
    shape = cache.enhanced.frame.shape
    c = shape[0]
    gout = np.asarray(gout, dtype=np.float64)
    if gout.shape != (2 * c,) + shape[1:]:
        raise ShapeError(f"upstream gradient shape {gout.shape} does not match output")

    w = cache.weights
    g_att_f, g_att_e, g_enh_f, g_enh_e, dwf, dwe = _refine_vjp(
        cache.refine, cache.enhanced, w, gout[:c], gout[c:]
    )
    dtf, dte, dws = _attention_vjp(cache.attn, w, _tokens(g_att_f), _tokens(g_att_e))
    g_act_f, g_act_e = _enhance_vjp(
        cache.activated, g_enh_f + _untokens(dtf, shape), g_enh_e + _untokens(dte, shape)
    )
    gframe, dk_f, db_f = conv2d_vjp(cache.conv_caches[0], g_act_f)
    gevent, dk_e, db_e = conv2d_vjp(cache.conv_caches[1], g_act_e)

    grads = {
        "conv1x1_f.kernel": dk_f,
        "conv1x1_f.bias": db_f,
        "conv1x1_e.kernel": dk_e,
        "conv1x1_e.bias": db_e,
        "wf": dwf,
        "we": dwe,
    }
    grads.update(dws)
    return CafrGradients(frame=gframe, event=gevent, weights=grads)


def cafr_gradcheck(
    pair: FeaturePair,
    w: CafrWeights,
    probes: int = 50,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    The loss is the inner product of the fused output with a fixed random
    tensor; probe coordinates are sampled uniformly over the inputs and every
    weight member. Arrays are perturbed in place and restored.
    """
    if probes < 1:
        raise DomainError(f"probes must be positive, got {probes}")
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be finite and positive, got {step}")
    rng = philox(seed)
    out, cache = cafr_forward(pair, w)
    r = rng.standard_normal(out.shape)
    grads = cafr_backward(cache, r)

    arrays = weight_arrays(w)
    params = [(pair.frame, grads.frame), (pair.event, grads.event)]
    params += [(arrays[name], grads.weights[name]) for name in sorted(arrays)]
    sizes = np.array([p.size for p, _ in params])
    bounds = np.cumsum(sizes)

    def loss() -> float:
        return float(np.sum(cafr_forward(pair, w)[0] * r))

    worst = 0.0
    for _ in range(probes):
        gidx = int(rng.integers(int(bounds[-1])))
        ai = int(np.searchsorted(bounds, gidx, side="right"))
        off = gidx - (int(bounds[ai - 1]) if ai else 0)
        arr, ana = params[ai]
        flat = arr.ravel()
        orig = flat[off]
        flat[off] = orig + step
        fp = loss()
        flat[off] = orig - step
        fm = loss()
        flat[off] = orig
        numeric = (fp - fm) / (2.0 * step)
        worst = max(worst, relative_error(float(ana.ravel()[off]), numeric))
    return worst
