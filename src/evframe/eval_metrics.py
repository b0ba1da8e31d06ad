"""Detection metrics: IoU, COCO-style mAP, corruption means, relative curves.

COCO scoring works on detection columns (a ``DetectionTable``): it caps
each image and finds the (class, image) groups by sorting, then computes
one IoU matrix per group in numpy float64 with the same IEEE operations,
in the same order, as the scalar ``iou_tlwh``, runs the greedy match for
each IoU threshold over its rows, and takes AP from cumulative TP counts
and a suffix maximum of precision. The divisions are the correctly rounded
ones of Python ``int / int``. The 101 interpolated precisions are summed in
a Python loop in ascending recall order and the threshold and class means
are plain Python sums, with fixed iteration orders (classes ascending, IoU
thresholds ascending), so results are bit-identical to an independent
scalar reference computation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .formats_io import DetectionRecord, DetectionTable

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
RECALL_POINTS = tuple(i / 100.0 for i in range(101))
DEFAULT_MAX_DETECTIONS = 100
CORRUPTION_TYPE_COUNT = 15
SEVERITY_COUNT = 5

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


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(D, G) IoU of the (D, 4) boxes ``a`` against the (G, 4) boxes ``b``.

    Each entry is computed by the operations of ``iou_tlwh`` in its order,
    so it equals ``iou_tlwh(a[i], b[j])`` bit for bit, and the first pair
    whose union is 0 or not finite raises the same ``DomainError``.
    """
    ax, ay, aw, ah = a.T[:, :, None]
    bx, by, bw, bh = b.T
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
    if not (union.all() and np.isfinite(union).all()):
        i, j = np.argwhere((union == 0.0) | ~np.isfinite(union))[0]
        raise _bad_union(a[i].tolist(), b[j].tolist(), float(union[i, j]))
    return inter / union


def _greedy_flags(ious: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """(T, D) hit table of the greedy one-to-one match at each threshold.

    Rows of ``ious`` are visited in order; each claims the untaken column of
    highest IoU (strictly above 0, first column on a tie) when that IoU meets
    the threshold, else it is a miss and takes nothing. Only entries at or
    above the lowest threshold can decide a match, so only those are scanned.
    """
    flags = np.zeros((len(thresholds), ious.shape[0]), dtype=bool)
    lo = min(thresholds)
    ri, ci = np.nonzero((ious >= lo) & (ious > 0.0))
    rows: Dict[int, list] = {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), ious[ri, ci].tolist()):
        rows.setdefault(i, []).append((j, v))
    for k, t in enumerate(thresholds):
        taken = set()
        for i, cands in rows.items():
            best_j, best_iou = -1, 0.0
            for j, v in cands:
                if v > best_iou and j not in taken:
                    best_j, best_iou = j, v
            if best_j >= 0 and best_iou >= t:
                taken.add(best_j)
                flags[k, i] = True
    return flags


def _hits(boxes: np.ndarray, gt_boxes: np.ndarray, thresholds) -> np.ndarray:
    """(T, D) hit table of (D, 4) boxes in rank order against (G, 4) ground truth."""
    if not len(boxes) or not len(gt_boxes):
        return np.zeros((len(thresholds), len(boxes)), dtype=bool)
    return _greedy_flags(_iou_matrix(boxes, gt_boxes), thresholds)


def _ap_table(flags: np.ndarray, n_gt: int) -> List[float]:
    """101-point AP of each row of a (T, n) descending-score TP table; n_gt > 0."""
    n = flags.shape[1]
    tp = np.cumsum(flags, axis=1)
    prec = tp / np.arange(1, n + 1)
    rec = tp / n_gt
    # best precision at recall >= r: suffix max from the first such index,
    # 0.0 past the end
    best = np.zeros((len(flags), n + 1))
    best[:, :n] = np.maximum.accumulate(prec[:, ::-1], axis=1)[:, ::-1]
    aps = []
    for row_rec, row_best in zip(rec, best):
        total = 0.0
        for v in row_best[np.searchsorted(row_rec, _RECALL_GRID, side="left")].tolist():
            total += v
        aps.append(total / len(RECALL_POINTS))
    return aps


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


def _class_hits(p_img, p_box, g_img, g_box) -> np.ndarray:
    """(T, D) hit table of one class's predictions, image by image.

    Predictions are sorted by image then descending score, ground truth by
    image; each image's rows are matched against that image's ground truth.
    """
    tables = [np.zeros((len(IOU_THRESHOLDS), 0), dtype=bool)]
    if len(p_img):
        cuts = np.flatnonzero(p_img[1:] != p_img[:-1]) + 1
        starts, ends = np.r_[0, cuts], np.r_[cuts, len(p_img)]
        images = p_img[starts]
        g_starts, g_ends = g_img.searchsorted(images), g_img.searchsorted(images, "right")
        for a, b, c, d in zip(starts.tolist(), ends.tolist(), g_starts.tolist(), g_ends.tolist()):
            tables.append(_hits(p_box[a:b], g_box[c:d], IOU_THRESHOLDS))
    return np.concatenate(tables, axis=1)


@dataclass
class MapResult:
    """Threshold-averaged mAP, its 0.50 slice, and the per-class breakdown."""

    map: float
    map50: float
    per_class: dict

    def to_dict(self) -> dict:
        return {"map": self.map, "map50": self.map50, "per_class": dict(self.per_class)}


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
    """
    if (
        not isinstance(max_detections, int)
        or isinstance(max_detections, bool)
        or max_detections < 1
    ):
        raise DomainError(f"max_detections must be an int >= 1, got {max_detections!r}")
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
    classes = np.unique(g_cls)
    p_lo, p_hi = p_cls.searchsorted(classes), p_cls.searchsorted(classes, "right")
    g_lo, g_hi = g_cls.searchsorted(classes), g_cls.searchsorted(classes, "right")

    per_class: Dict[int, float] = {}
    map50_sum = 0.0
    for c, a, b, ga, gb in zip(
        classes.tolist(), p_lo.tolist(), p_hi.tolist(), g_lo.tolist(), g_hi.tolist()
    ):
        flags = _class_hits(p_img[a:b], p_box[a:b], g_img[ga:gb], g_box[ga:gb])
        order = np.argsort(-p_score[a:b], kind="stable")
        aps = _ap_table(flags[:, order], gb - ga)
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


def _check_matrix(map_matrix):
    """The rows of a 15x5 matrix of real numbers in [0, 1]."""
    try:
        rows = [list(r) for r in map_matrix]
    except TypeError:
        raise DomainError("corruption matrix must be a sequence of rows") from None
    lengths = [len(r) for r in rows]
    if lengths != [SEVERITY_COUNT] * CORRUPTION_TYPE_COUNT:
        raise DomainError(
            f"expected a {CORRUPTION_TYPE_COUNT}x{SEVERITY_COUNT} matrix, got row lengths {lengths}"
        )
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
    """Clean mAP, the full type-by-severity matrix, and its aggregates."""

    map_clean: float
    map_matrix: tuple
    mpc: float
    rpc_per_severity: tuple

    def __post_init__(self):
        flat = [v for row in self.map_matrix for v in row]
        mean = sum(sum(r) / len(r) for r in self.map_matrix) / len(self.map_matrix)
        if abs(mean - self.mpc) > 1e-9:
            raise ValidationError("mpc does not match its matrix")
        if any(not 0.0 <= v <= 1.0 for v in flat):
            raise ValidationError("matrix entries must lie in [0,1]")

    def to_dict(self) -> dict:
        return {
            "map_clean": self.map_clean,
            "map_matrix": [list(r) for r in self.map_matrix],
            "mpc": self.mpc,
            "rpc_per_severity": list(self.rpc_per_severity),
        }


def build_mpc_report(map_clean: float, map_matrix) -> MpcReport:
    rows = _check_matrix(map_matrix)
    return MpcReport(
        map_clean=map_clean,
        map_matrix=tuple(tuple(r) for r in rows),
        mpc=mpc(rows),
        rpc_per_severity=rpc(map_clean, rows),
    )
