"""Two-stream feature fusion with verified analytic gradients.

Fuses a frame feature map and an event feature map of identical [C,H,W] shape
through four stages: per-stream 1x1 activation, multiplicative mutual
enhancement, swapped-query attention over spatial tokens (each stream
attends with the other stream's query/key projections), and a
statistics-aligned refinement that concatenates both streams to 2C channels.
Enhancement, attention and refinement can each be bypassed for the paper's
ablations. The forward calls the public stages in order. The one hand-derived
backward, for the full module and checked against finite differences, keeps
only the stage outputs and recomputes the attention projections and channel
statistics from them with the forward's ops. A weight set is saved to and
loaded from a bundle directory of one tensor file per member.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import MAX_BYTES, DomainError, SchemaError, ShapeError, StateError, check_budget
from .formats_io import read_tensor, write_tensor
from .tensor_math import (
    ConvWeights,
    channel_stats,
    channel_stats_vjp,
    conv2d,
    philox,
    relative_error,
    softmax_rows_inplace,
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
    # ten C x C float64 matrices: two 1x1 conv kernels and the eight linear maps
    check_budget(f"a CAFR weight set for {channels} channels", 80 * channels**2, "byte", MAX_BYTES)
    rng = philox(seed)
    conv_f = uniform_conv(rng, channels, channels, 1)
    conv_e = uniform_conv(rng, channels, channels, 1)
    bound = 1.0 / math.sqrt(channels)
    mats = [rng.uniform(-bound, bound, size=(channels, channels)) for _ in LINEAR_NAMES]
    return CafrWeights(conv_f, conv_e, *mats)


# Weight bundles: a directory with one .ftns file per member and a JSON
# manifest whose "members" table maps each member name to its file (the name
# with "." replaced by "_", plus ".ftns"). Members in CafrWeights field order:
BUNDLE_MEMBERS = (
    "conv1x1_f.kernel", "conv1x1_f.bias", "conv1x1_e.kernel", "conv1x1_e.bias",
) + LINEAR_NAMES
BUNDLE_MANIFEST = "manifest.json"


def weight_arrays(w: CafrWeights) -> dict:
    """Live parameter arrays of a weight set keyed by bundle member name."""
    return {name: attrgetter(name)(w) for name in BUNDLE_MEMBERS}


def save_weights(w: CafrWeights, directory) -> None:
    """Write a weight set as a bundle: one .ftns file per array plus a JSON
    manifest mapping each member name to its file."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    members = {}
    for name, arr in weight_arrays(w).items():
        fname = name.replace(".", "_") + ".ftns"
        write_tensor(d / fname, arr)
        members[name] = fname
    (d / BUNDLE_MANIFEST).write_text(json.dumps({"members": members}, indent=2, sort_keys=True))


def load_weights(directory) -> CafrWeights:
    """Inverse of save_weights; values round through 32-bit storage, load as float64.

    The first member missing in field order, or a member CafrWeights has no
    field for, is a ``SchemaError`` naming it.
    """
    d = Path(directory)
    try:
        manifest = json.loads((d / BUNDLE_MANIFEST).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise SchemaError(f"bundle manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SchemaError("bundle manifest must be a JSON object")
    members = manifest.get("members")
    if not isinstance(members, dict):
        raise SchemaError("bundle manifest has no 'members' table")
    arrays = {}
    for name, fname in members.items():
        if not isinstance(fname, str):
            raise SchemaError(f"bundle member '{name}' must name a file, got {fname!r}")
        arrays[name] = read_tensor(d / fname)
    missing = [name for name in BUNDLE_MEMBERS if name not in arrays]
    if missing:
        raise SchemaError(f"weight bundle is missing member '{missing[0]}'")
    k_f, b_f, k_e, b_e, *mats = (arrays[name] for name in BUNDLE_MEMBERS)
    w = CafrWeights(ConvWeights(k_f, b_f), ConvWeights(k_e, b_e), *mats)
    extra = sorted(set(arrays) - set(BUNDLE_MEMBERS))
    if extra:
        raise SchemaError(f"weight bundle member '{extra[0]}' is not read by CafrWeights")
    return w


def _tokens(x: np.ndarray) -> np.ndarray:
    """[C,H,W] -> [H*W, C]: one token per spatial position."""
    return x.reshape(x.shape[0], -1).T


def _untokens(t: np.ndarray, shape: tuple) -> np.ndarray:
    return t.T.reshape(shape)


# -- stage 1: activation ---------------------------------------------------------

def _check_channels(pair: FeaturePair, w: CafrWeights) -> None:
    if pair.channels != w.channels:
        raise ShapeError(f"pair has {pair.channels} channels, weights expect {w.channels}")


def _activate(pair: FeaturePair, w: CafrWeights) -> FeaturePair:
    """Per-stream 1x1 convolution."""
    _check_channels(pair, w)
    return FeaturePair(conv2d(pair.frame, w.conv1x1_f), conv2d(pair.event, w.conv1x1_e))


def _activate_vjp(x: np.ndarray, conv: ConvWeights, g: np.ndarray):
    """(dx, dkernel, dbias) of one stream's 1x1 conv, per pixel a C x C matmul."""
    c = x.shape[0]
    g = g.reshape(c, -1)
    dk = (g @ x.reshape(c, -1).T).reshape(conv.kernel.shape)
    return (conv.kernel.reshape(c, c).T @ g).reshape(x.shape), dk, g.sum(axis=1)


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

# Most H*W tokens one fusion may attend over: one DSEC frame (640x480) at
# stride 4. The blocks bound attention's memory, but its time is O(tokens^2).
MAX_TOKENS = 160 * 120


def _check_tokens(height: int, width: int) -> None:
    """Refuse a fusion over more than MAX_TOKENS tokens, before any work."""
    check_budget(f"CAFR fusion over {height}x{width} features", height * width, "token", MAX_TOKENS)


def _attention_blocks(q: np.ndarray, k: np.ndarray, scale: float):
    """Yield (rows, softmax_rows(q[rows] @ k.T * scale)) block by block.

    Every block is scored and softmaxed in place in one reused buffer, so the
    loop allocates no B x N array; the next block overwrites the yielded view.
    Finiteness is proven once for the whole attention from the row norms;
    only when that bound fails is each block checked.
    """
    # Cauchy-Schwarz bounds every |q_i . k_j|, and every partial sum of its
    # terms, by max|q_i| * max|k_j|; the margin from 1e300 to float64's
    # 1.8e308 absorbs the rounding. A NaN bound fails the test too.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(q, axis=1).max() * np.linalg.norm(k, axis=1).max() * scale
    check = not bound < 1e300
    n = q.shape[0]
    b = min(n, max(1, ATTN_BLOCK_BYTES // (8 * k.shape[0])))
    buf = np.empty((b, k.shape[0]))
    for s in range(0, n, b):
        rows = slice(s, min(s + b, n))
        scores = buf[: rows.stop - s]
        # an overflow here is refused just below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(q[rows], k.T, out=scores)
            scores *= scale
        if check and not np.all(np.isfinite(scores)):
            raise DomainError("softmax input must be finite")
        yield rows, softmax_rows_inplace(scores)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax_rows(q @ k.T * scale) @ v, one block of query rows at a time."""
    out = np.empty((q.shape[0], v.shape[1]))
    for rows, a in _attention_blocks(q, k, scale):
        np.matmul(a, v, out=out[rows])
    return out


def _attend_vjp(q, k, v, scale: float, g: np.ndarray):
    """(dq, dk, dv) of _attend; each block's attention is recomputed."""
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for rows, a in _attention_blocks(q, k, scale):
        dv += a.T @ g[rows]
        ds = softmax_rows_vjp(a, g[rows] @ v.T)
        dq[rows] = ds @ k * scale
        dk += ds.T @ q[rows] * scale
    return dq, dk, dv


def _projections(enhanced: FeaturePair, w: CafrWeights):
    """(tf, te, scale, (qe, ke, vf), (qf, kf, ve)): both streams' tokens, the
    score scale, and the (query, key, value) triple of each output stream."""
    _check_channels(enhanced, w)
    tf = _tokens(enhanced.frame)
    te = _tokens(enhanced.event)
    if not len(tf):
        raise ShapeError(f"attention needs at least one token, got {enhanced.frame.shape}")
    scale = 1.0 / math.sqrt(enhanced.channels)
    # each stream's values are mixed under weights derived from the other
    # stream's own query/key pair
    qkv_f = (te @ w.wq_e, te @ w.wk_e, tf @ w.wv_f)
    qkv_e = (tf @ w.wq_f, tf @ w.wk_f, te @ w.wv_e)
    return tf, te, scale, qkv_f, qkv_e


def cross_self_attention(enhanced: FeaturePair, w: CafrWeights) -> FeaturePair:
    """Token attention over spatial positions with swapped stream pairing."""
    _, _, scale, qkv_f, qkv_e = _projections(enhanced, w)
    shape = enhanced.frame.shape
    return FeaturePair(
        _untokens(_attend(*qkv_f, scale), shape), _untokens(_attend(*qkv_e, scale), shape)
    )


def _attention_vjp(enhanced: FeaturePair, w: CafrWeights, g_caf: np.ndarray, g_cae: np.ndarray):
    """Token-space grads in, (dtf, dte, weight grads) out; the tokens and
    projections are rebuilt from the attention's input."""
    tf, te, scale, qkv_f, qkv_e = _projections(enhanced, w)
    dqe, dke, dvf = _attend_vjp(*qkv_f, scale, g_caf)
    dqf, dkf, dve = _attend_vjp(*qkv_e, scale, g_cae)

    dtf = dvf @ w.wv_f.T + dqf @ w.wq_f.T + dkf @ w.wk_f.T
    dte = dqe @ w.wq_e.T + dke @ w.wk_e.T + dve @ w.wv_e.T
    dws = {
        "wv_f": tf.T @ dvf, "wq_f": tf.T @ dqf, "wk_f": tf.T @ dkf,
        "wq_e": te.T @ dqe, "wk_e": te.T @ dke, "wv_e": te.T @ dve,
    }
    return dtf, dte, dws


# -- stage 4: statistics-aligned refinement -------------------------------------------

def _normalized(att: np.ndarray, enh: np.ndarray, wmat: np.ndarray):
    """(t_ca, xhat, sg_w, mu_e, sg_e) of one stream: its attended tokens, its
    projection x normalized per channel to xhat = (x - mu_x)/sg_x, sg_x, and
    the enhanced stream's mean and scale."""
    t_ca = _tokens(att)
    w_map = _untokens(t_ca @ wmat, att.shape)
    mu_w, sg_w = channel_stats(w_map)
    mu_e, sg_e = channel_stats(enh)
    xhat = (w_map - mu_w[:, None, None]) / sg_w[:, None, None]
    return t_ca, xhat, sg_w, mu_e, sg_e


def tafr_refine(attended: FeaturePair, enhanced: FeaturePair, w: CafrWeights) -> np.ndarray:
    """Project each attended stream, renormalize it per channel to the
    enhanced stream's mean and scale, and concatenate to [2C,H,W]."""
    if attended.frame.shape != enhanced.frame.shape:
        raise ShapeError(
            f"attended {attended.frame.shape} vs enhanced {enhanced.frame.shape}"
        )
    _check_channels(attended, w)
    halves = []
    for att, enh, wmat in (
        (attended.frame, enhanced.frame, w.wf), (attended.event, enhanced.event, w.we)
    ):
        _, xhat, _, mu_e, sg_e = _normalized(att, enh, wmat)
        halves.append(sg_e[:, None, None] * xhat + mu_e[:, None, None])
    return np.concatenate(halves, axis=0)


def _half_refine_vjp(g, att, enh, wmat):
    """Backward for one stream of tafr_refine, from that stream's inputs.

    out = sg_e * xhat + mu_e with xhat = (x - mu_x)/sg_x. The x path is the
    usual instance-norm gradient; the enhanced stream gets the mu/sigma path.
    """
    t_ca, xhat, sg_w, _, sg_e = _normalized(att, enh, wmat)
    g_xhat = g * sg_e[:, None, None]
    mean_g = g_xhat.mean(axis=(1, 2))
    mean_gx = (g_xhat * xhat).mean(axis=(1, 2))
    g_wmap = (g_xhat - mean_g[:, None, None] - xhat * mean_gx[:, None, None]) / sg_w[:, None, None]

    gmu = g.sum(axis=(1, 2))
    gsigma = (g * xhat).sum(axis=(1, 2))
    g_enh = channel_stats_vjp(enh, sg_e, gmu, gsigma)

    g_tok = _tokens(g_wmap)
    return _untokens(g_tok @ wmat.T, g.shape), g_enh, t_ca.T @ g_tok


# -- full module -------------------------------------------------------------------

@dataclass
class CafrCache:
    weights: CafrWeights
    pair: FeaturePair
    activated: FeaturePair
    enhanced: FeaturePair
    attended: FeaturePair


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
    differentiates the full module only. More than 160x120 = 19 200 tokens
    (H*W) are refused before the activation runs.
    """
    _check_tokens(*pair.frame.shape[1:])
    activated = _activate(pair, w)
    enhanced = bci_enhance(activated) if use_mul_add else activated
    attended = cross_self_attention(enhanced, w) if use_cross_att else enhanced
    if use_fr:
        out = tafr_refine(attended, enhanced, w)
    else:
        out = np.concatenate([attended.frame, attended.event], axis=0)
    if not (use_mul_add and use_cross_att and use_fr):
        return out, None
    return out, CafrCache(w, pair, activated, enhanced, attended)


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
    att, enh = cache.attended, cache.enhanced
    g_att_f, g_enh_f, dwf = _half_refine_vjp(gout[:c], att.frame, enh.frame, w.wf)
    g_att_e, g_enh_e, dwe = _half_refine_vjp(gout[c:], att.event, enh.event, w.we)
    dtf, dte, dws = _attention_vjp(enh, w, _tokens(g_att_f), _tokens(g_att_e))
    g_act_f, g_act_e = _enhance_vjp(
        cache.activated, g_enh_f + _untokens(dtf, shape), g_enh_e + _untokens(dte, shape)
    )
    gframe, dk_f, db_f = _activate_vjp(cache.pair.frame, w.conv1x1_f, g_act_f)
    gevent, dk_e, db_e = _activate_vjp(cache.pair.event, w.conv1x1_e, g_act_e)

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
