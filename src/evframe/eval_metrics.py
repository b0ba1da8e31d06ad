"""Detection metrics: IoU, COCO-style mAP, corruption means, relative curves.

COCO scoring works on detection columns (a ``DetectionTable``): it caps
each image, sorts the predictions by class, image and descending score,
and gives each the ground truth of its (class, image) group. One lockstep
greedy match (``_match``) then scores every group of the call, chunk by
chunk: a chunk is a run of consecutive groups whose padded blocks fit
``BLOCK_BYTES``. It computes the IoU of each of its (prediction,
ground truth) pairs once, in numpy float64 with the same IEEE operations,
in the same order, as the scalar ``iou_tlwh``, and steps through the ranks
of all its groups together, for every IoU threshold at once; the only
Python loop runs over those ranks. AP comes from cumulative TP counts and
a suffix maximum of precision. The divisions are the correctly rounded
ones of Python ``int / int``. The 101 interpolated precisions are summed
left to right, in ascending recall order, by a cumulative sum, and the
threshold and class means are plain Python sums, with fixed iteration
orders (classes ascending, IoU thresholds ascending), so results are
bit-identical to an independent scalar reference computation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .corruption_bench import SEVERITY_COUNT, CorruptionType
from .errors import BLOCK_BYTES, DomainError, check_count
from .formats_io import DetectionRecord, DetectionTable

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
RECALL_POINTS = tuple(i / 100.0 for i in range(101))
DEFAULT_MAX_DETECTIONS = 100

_RECALL_GRID = np.array(RECALL_POINTS)


def _bad_union(a, b, union) -> DomainError:
    why = "their union is 0" if union == 0.0 else f"their union is not finite ({union})"
    return DomainError(f"IoU of boxes {tuple(a)} and {tuple(b)} is undefined: {why}")


def iou_tlwh(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (x, y, w, h) top-left boxes.

    A union that is 0, or not finite because an area or the sum overflows,
    is a ``DomainError`` naming the pair.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    if union == 0.0 or not math.isfinite(union):
        raise _bad_union(a, b, union)
    return inter / union


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of the (..., 4) top-left boxes ``a`` and ``b``, broadcast over
    their leading axes.

    Each entry is computed by the operations of ``iou_tlwh`` in its order,
    so it equals ``iou_tlwh`` of its two boxes bit for bit, and the first
    pair in row-major order whose union is 0 or not finite raises the same
    ``DomainError``.
    """
    ax, ay, aw, ah = (a[..., k] for k in range(4))
    bx, by, bw, bh = (b[..., k] for k in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
    if not (union.all() and np.isfinite(union).all()):
        i = np.unravel_index(np.argmax((union == 0.0) | ~np.isfinite(union)), union.shape)
        a_i, b_i = (np.broadcast_to(x, union.shape + (4,))[i].tolist() for x in (a, b))
        raise _bad_union(a_i, b_i, float(union[i]))
    return inter / union


def _chunks(rows: np.ndarray, width: np.ndarray, n_thresholds: int):
    """(first, end) ranges of consecutive groups whose padded blocks fit
    ``BLOCK_BYTES``.

    Groups with ``rows`` rows and ``width`` ground-truth boxes each are
    padded to the chunk's widest: a (rows, width) IoU block plus two
    (groups, thresholds, width) step blocks, the free-box mask and one
    step's masked IoUs, 8 bytes an entry. A chunk takes as many groups as
    fit, and at least one.
    """
    cap = BLOCK_BYTES // 8
    per_group = 2 * n_thresholds
    ends = np.cumsum(rows)
    s = 0
    while s < len(rows):
        # a group takes at least 1 + per_group entries, so no more than this many fit
        e = min(len(rows), s + cap // (1 + per_group))
        height = ends[s:e] - ends[s] + rows[s] + per_group * np.arange(1, e - s + 1)
        need = height * np.maximum.accumulate(width[s:e])
        e = s + max(1, int(np.count_nonzero(need <= cap)))
        yield s, e
        s = e


def _match(
    boxes: np.ndarray, gt_boxes: np.ndarray, gt_lo: np.ndarray, gt_hi: np.ndarray, thresholds
) -> np.ndarray:
    """(T, D) hit table of the greedy one-to-one match of every group.

    Row i of the (D, 4) ``boxes`` is matched against the ground truth
    ``gt_boxes[gt_lo[i]:gt_hi[i]]``; the rows of one group are consecutive,
    in rank order, and share that range. At each threshold, each row in
    rank order claims the untaken box of highest IoU (strictly above 0,
    first box on a tie) when that IoU meets the threshold, else it is a
    miss and takes nothing.

    Each chunk of groups (``_chunks``) computes the IoU of its (row, box)
    pairs once, in row-major order, so the first undefined one is the
    first in (group, rank, box) order. A row with no IoU at or above the
    lowest threshold can never claim a box and leaves the match; the IoUs
    of the rest are padded with 0 to the chunk's widest group. Then the
    groups step through their ranks together: step k takes the k-th
    remaining row of every group that has one, for every threshold at once.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n_t = len(thresholds)
    # a claim needs an IoU above 0 as well as at or above the threshold
    floor = np.maximum(thresholds, np.nextafter(0.0, 1.0))
    flags = np.zeros((n_t, len(boxes)), dtype=bool)
    rows = np.flatnonzero(gt_hi > gt_lo)
    lo = gt_lo[rows]
    new_group = lo != np.r_[-1, lo[:-1]]
    group = np.cumsum(new_group) - 1
    first = np.r_[np.flatnonzero(new_group), len(rows)]
    width = (gt_hi - gt_lo)[rows]
    for s, e in _chunks(np.diff(first), width[first[:-1]], n_t):
        r, n = rows[first[s]:first[e]], width[first[s]:first[e]]
        pair = np.repeat(np.arange(len(r)), n)
        col = np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
        row = r[pair]
        iou = _iou(np.take(boxes, row, axis=0), np.take(gt_boxes, gt_lo[row] + col, axis=0))
        live = iou >= floor.min()
        kept = np.flatnonzero(np.bincount(pair[live], minlength=len(r)))
        w = n.max()
        block = np.zeros((len(kept), w))
        block[kept.searchsorted(pair[live]), col[live]] = iou[live]
        # groups by descending kept-row count: at step k the first steps[k]
        # of them still match, with their k-th rows at heads + k
        g = group[first[s]:first[e]][kept] - s
        count = np.bincount(g, minlength=e - s)
        order = np.argsort(-count, kind="stable")
        heads = g.searchsorted(order)
        steps = np.searchsorted(-count[order], -np.arange(count[order[0]]))
        # 1.0 where a (group, threshold, box) is still free, 0.0 once taken
        free = np.ones((e - s) * n_t * w)
        slots = np.arange((e - s) * n_t).reshape(-1, n_t) * w
        hit = np.empty((len(kept), n_t), dtype=bool)
        for k, m in enumerate(steps.tolist()):
            at = heads[:m] + k
            v = free[:m * n_t * w].reshape(m, n_t, w) * block[at, None, :]
            best = slots[:m] + v.argmax(axis=2)
            claim = v.reshape(-1)[best] >= floor
            hit[at] = claim
            free[best[claim]] = 0.0
        flags[:, r[kept]] = hit.T
    return flags


def _ap_table(flags: np.ndarray, n_gt: int) -> List[float]:
    """101-point AP of each row of a (T, n) descending-score TP table; n_gt > 0."""
    t, n = flags.shape
    tp = np.cumsum(flags, axis=1)
    prec = tp / np.arange(1, n + 1)
    # best precision at recall >= r: suffix max from the first such index,
    # 0.0 past the end
    best = np.zeros((t, n + 1))
    best[:, :n] = np.maximum.accumulate(prec[:, ::-1], axis=1)[:, ::-1]
    # recall tp / n_gt is monotone in tp, so it reaches r exactly when tp
    # reaches the fewest hits whose recall does; each row's first index
    # there comes from one search over the rows, row k offset by k * (n + 1)
    need = np.minimum(np.searchsorted(np.arange(n_gt + 1) / n_gt, _RECALL_GRID), n + 1)
    row = np.arange(t)[:, None]
    at = np.searchsorted((tp + row * (n + 1)).ravel(), need + row * (n + 1)) - row * n
    # summed left to right, as a scalar loop over the recall points would
    total = np.cumsum(np.take_along_axis(best, at, axis=1), axis=1)[:, -1]
    return (total / len(RECALL_POINTS)).tolist()


def average_precision(flags: Sequence[bool], n_gt: int) -> float:
    """101-point interpolated AP from descending-score TP/FP flags.

    Precision is made monotone by taking, at each recall point, the best
    precision achieved at that recall or beyond. n_gt = 0 yields 0 (callers
    exclude such classes from averaging).
    """
    if n_gt < 0:
        raise DomainError(f"n_gt must be >= 0, got {n_gt}")
    if n_gt == 0:
        return 0.0
    return _ap_table(np.asarray(flags, dtype=bool).reshape(1, -1), n_gt)[0]


def _capped(image_id: np.ndarray, score: np.ndarray, max_dets: int) -> np.ndarray:
    """Rows of the ``max_dets`` best scores of each image, by image then
    descending score, ties in input order."""
    order = np.lexsort((-score, image_id))
    image = image_id[order]
    rank = np.arange(len(order)) - image.searchsorted(image)
    return order[rank < max_dets]


@dataclass
class MapResult:
    """Threshold-averaged mAP, its 0.50 slice, and the per-class breakdown."""

    map: float
    map50: float
    per_class: dict


def map_coco(
    preds: Sequence[DetectionRecord],
    gts: Sequence[DetectionRecord],
    max_detections: int = DEFAULT_MAX_DETECTIONS,
) -> MapResult:
    """COCO-convention mAP over IoU 0.50:0.05:0.95.

    Detections are capped per image across classes; classes with zero
    ground-truth boxes are excluded from the class mean; each class AP is the
    mean over the 10 thresholds of the 101-point AP. Within a class, the
    detections of all images are ranked by descending score, ties in image
    order and then in per-image match order. ``preds`` and ``gts`` are
    DetectionTables, such as decode_detections and decode_head return, or
    sequences of DetectionRecord, read as the columns of one.
    ``max_detections`` is a Python or numpy integer >= 1; a bool or any
    other value is a DomainError.
    """
    max_detections = check_count("max_detections", max_detections)
    preds, gts = DetectionTable.from_records(preds), DetectionTable.from_records(gts)
    unscored = np.flatnonzero(np.isnan(preds.score))
    if len(unscored):
        i = int(unscored[0])
        raise DomainError(
            f"prediction {i} (image {preds.image_id[i]}, category {preds.category_id[i]}) has no score"
        )
    if not len(gts):
        raise DomainError("evaluation needs at least one ground-truth box")
    # predictions by class, image and descending score; ground truth by
    # class and image, in input order within each
    kept = _capped(preds.image_id, preds.score, max_detections)
    rows = kept[np.argsort(preds.category_id[kept], kind="stable")]
    p_cls, p_img = preds.category_id[rows], preds.image_id[rows]
    p_box, p_score = preds.bbox[rows], preds.score[rows]
    g = np.lexsort((gts.image_id, gts.category_id))
    g_cls, g_img, g_box = gts.category_id[g], gts.image_id[g], gts.bbox[g]
    classes, images = np.unique(g_cls), np.unique(g_img)
    # each prediction's ground truth is the run of g with its class and
    # image, found by a (class, image) rank key; -1 where there is none
    g_key = classes.searchsorted(g_cls) * len(images) + images.searchsorted(g_img)
    pc = np.minimum(classes.searchsorted(p_cls), len(classes) - 1)
    pi = np.minimum(images.searchsorted(p_img), len(images) - 1)
    p_key = np.where((classes[pc] == p_cls) & (images[pi] == p_img), pc * len(images) + pi, -1)
    flags = _match(
        p_box, g_box, g_key.searchsorted(p_key), g_key.searchsorted(p_key, "right"), IOU_THRESHOLDS
    )
    p_lo, p_hi = p_cls.searchsorted(classes), p_cls.searchsorted(classes, "right")
    g_lo, g_hi = g_cls.searchsorted(classes), g_cls.searchsorted(classes, "right")

    per_class: Dict[int, float] = {}
    map50_sum = 0.0
    for c, a, b, n_gt in zip(classes.tolist(), p_lo.tolist(), p_hi.tolist(), (g_hi - g_lo).tolist()):
        order = a + np.argsort(-p_score[a:b], kind="stable")
        aps = _ap_table(flags[:, order], n_gt)
        per_class[c] = sum(aps) / len(aps)
        map50_sum += aps[0]
    n = len(per_class)
    return MapResult(
        map=sum(per_class.values()) / n,
        map50=map50_sum / n,
        per_class=per_class,
    )


# -- corruption aggregates ------------------------------------------------------------


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _entries(row):
    """A row's entries as a list; None for a string, a mapping or a non-iterable."""
    try:
        return None if isinstance(row, (str, bytes, Mapping)) else list(row)
    except TypeError:
        return None


def _check_matrix(map_matrix):
    """The rows of a 15x5 matrix of real numbers in [0, 1]; row i is the i-th ``CorruptionType``."""
    rows = _entries(map_matrix)
    if rows is None:
        raise DomainError("corruption matrix must be a sequence of rows")
    rows = [_entries(r) for r in rows]
    if len(rows) != len(CorruptionType):
        lengths = [r if r is None else len(r) for r in rows]
        raise DomainError(
            f"expected a {len(CorruptionType)}x{SEVERITY_COUNT} matrix, got row lengths {lengths}"
        )
    for ctype, r in zip(CorruptionType, rows):
        if r is None or len(r) != SEVERITY_COUNT:
            raise DomainError(f"type {ctype.value!r} needs exactly {SEVERITY_COUNT} severity entries")
    for r in rows:
        for v in r:
            if not (_is_real(v) and 0.0 <= v <= 1.0):
                raise DomainError(f"mAP entry {v!r} is not a number in [0,1]")
    return rows


def mpc(map_matrix) -> float:
    """Mean over corruption types of the per-type mean over severities.

    The matrix is the full 15x5 type-by-severity grid of real numbers in
    [0, 1] (a bool is not one).
    """
    rows = _check_matrix(map_matrix)
    return sum(sum(r) / len(r) for r in rows) / len(rows)


def rpc(map_clean: float, map_matrix) -> tuple:
    """Per-severity mean mAP over types, relative to the clean mAP.

    ``map_clean`` is a real number in (0, 1]; the matrix is checked as in ``mpc``.
    """
    if not (_is_real(map_clean) and 0.0 < map_clean <= 1.0):
        raise DomainError(f"clean mAP must be a number in (0,1], got {map_clean!r}")
    rows = _check_matrix(map_matrix)
    return tuple(
        sum(r[s] for r in rows) / len(rows) / map_clean for s in range(SEVERITY_COUNT)
    )


@dataclass
class MpcReport:
    """Clean mAP, the full type-by-severity matrix, and the aggregates derived from them."""

    map_clean: float
    map_matrix: tuple
    mpc: float = field(init=False)
    rpc_per_severity: tuple = field(init=False)

    def __post_init__(self):
        rows = _check_matrix(self.map_matrix)
        self.map_matrix = tuple(tuple(r) for r in rows)
        self.mpc = mpc(rows)
        self.rpc_per_severity = rpc(self.map_clean, rows)


def build_mpc_report(map_clean: float, map_matrix) -> MpcReport:
    return MpcReport(map_clean, map_matrix)
