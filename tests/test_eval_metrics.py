"""Metrics: IoU, greedy matching, interpolated AP, COCO mAP, corruption means."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import philox

from evframe import (
    DetectionRecord,
    DetectionTable,
    DomainError,
    decode_detections,
    encode_detections,
    MpcReport,
    average_precision,
    build_mpc_report,
    iou_tlwh,
    map_coco,
    mpc,
    rpc,
)
from evframe import eval_metrics
from evframe.eval_metrics import IOU_THRESHOLDS, RECALL_POINTS


def det(score, box, image=0, cat=0):
    return DetectionRecord(image_id=image, category_id=cat, bbox=box, score=score)


# -- iou ------------------------------------------------------------------------


def test_iou_identical_boxes():
    assert iou_tlwh((1.0, 2.0, 7.0, 3.0), (1.0, 2.0, 7.0, 3.0)) == 1.0


def test_iou_half_overlap():
    # 10x10 boxes shifted 5: inter 50, union 150
    assert iou_tlwh((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-15)


def test_iou_disjoint_and_touching():
    assert iou_tlwh((0, 0, 4, 4), (10, 10, 4, 4)) == 0.0
    assert iou_tlwh((0, 0, 4, 4), (4, 0, 4, 4)) == 0.0


def test_iou_contained_box():
    assert iou_tlwh((0, 0, 10, 10), (2, 2, 5, 5)) == pytest.approx(0.25, abs=1e-15)


# -- matching --------------------------------------------------------------------


def hits(boxes, gts, iou_threshold):
    """Flags of boxes listed in rank order at one threshold, matched as one group."""
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    gts = np.array(gts, dtype=np.float64).reshape(-1, 4)
    lo, hi = np.zeros(len(boxes), dtype=np.intp), np.full(len(boxes), len(gts))
    return tuple(eval_metrics._match(boxes, gts, lo, hi, (iou_threshold,))[0].tolist())


def test_match_visits_by_descending_score():
    gt = [det(None, (0.0, 0.0, 10.0, 10.0))]
    low_first = [det(0.2, (0, 0, 10, 10)), det(0.9, (1, 0, 10, 10))]
    # the 0.9 det claims the box first despite appearing second, so the
    # ranked flags are (True, False) and AP50 is 1; the other way it is 0.5
    assert map_coco(low_first, gt).map50 == 1.0


def test_match_is_one_to_one():
    gt = [(0.0, 0.0, 10.0, 10.0)]
    assert hits([(0, 0, 10, 10), (0, 0, 10, 10)], gt, 0.5) == (True, False)


def test_match_prefers_highest_iou_ground_truth():
    gts = [(0.0, 0.0, 10.0, 10.0), (2.0, 0.0, 10.0, 10.0)]
    assert hits([(2, 0, 10, 10)], gts, 0.5) == (True,)
    # the exact-overlap box was taken, leaving the shifted one
    assert hits([(2, 0, 10, 10), (2, 0, 10, 10)], gts, 0.6) == (True, True)


def test_match_threshold_is_inclusive():
    gt = [(0.0, 0.0, 10.0, 10.0)]
    assert hits([(5, 0, 10, 10)], gt, 1 / 3) == (True,)


def test_match_score_ties_keep_input_order():
    gt = [det(None, (0.0, 0.0, 10.0, 10.0))]
    a = det(0.5, (0, 0, 10, 10))
    b = det(0.5, (1, 0, 10, 10))  # IoU 90/110 with the ground truth
    # whichever comes first takes the box; b misses at the three thresholds
    # above 0.818, where a coming second is a hit at precision 1/2
    assert map_coco([a, b], gt).map == 1.0
    assert map_coco([b, a], gt).map == (7 * 1.0 + 3 * 0.5) / 10


# -- average precision ----------------------------------------------------------------


def test_ap_perfect_detection():
    assert average_precision([True], 1) == 1.0


def test_ap_half_recall():
    # one TP covering half the ground truth: precision 1 up to recall 0.5
    assert average_precision([True], 2) == pytest.approx(51 / 101, abs=1e-15)


def test_ap_fp_before_tp():
    # precision at full recall is 1/2, and interpolation carries it backward
    assert average_precision([False, True], 1) == pytest.approx(0.5, abs=1e-15)


def test_ap_tp_before_fp():
    # the trailing FP cannot reduce the interpolated curve
    assert average_precision([True, False], 1) == 1.0


def test_ap_no_detections_and_no_gt():
    assert average_precision([], 3) == 0.0
    assert average_precision([True, True], 0) == 0.0
    with pytest.raises(DomainError):
        average_precision([], -1)


def test_ap_brute_force_cross_check():
    # independent evaluation of the interpolation definition
    flags = [True, False, True, True, False, True]
    n_gt = 5
    tp = 0
    prec, rec = [], []
    for i, f in enumerate(flags):
        tp += int(f)
        prec.append(tp / (i + 1))
        rec.append(tp / n_gt)
    want = sum(
        max((p for p, r in zip(prec, rec) if r >= rp), default=0.0)
        for rp in RECALL_POINTS
    ) / len(RECALL_POINTS)
    assert average_precision(flags, n_gt) == want


# -- coco map ---------------------------------------------------------------------


def two_class_scenario():
    gts = [
        det(None, (10.0, 10.0, 20.0, 20.0), cat=0),
        det(None, (50.0, 50.0, 10.0, 10.0), cat=1),
    ]
    preds = [
        # contained box: IoU 361/400 = 0.9025, a TP for 9 of 10 thresholds
        det(0.9, (10.0, 10.0, 19.0, 19.0), cat=0),
        # miss, then a 5/7 ~ 0.714 overlap that survives 5 thresholds
        det(0.95, (0.0, 0.0, 5.0, 5.0), cat=1),
        det(0.8, (50.0, 50.0, 14.0, 10.0), cat=1),
    ]
    return preds, gts


def test_map_two_class_hand_computation():
    preds, gts = two_class_scenario()
    res = map_coco(preds, gts)
    assert res.per_class[0] == pytest.approx(0.9, abs=1e-12)
    assert res.per_class[1] == pytest.approx(0.25, abs=1e-12)
    assert res.map == pytest.approx(0.575, abs=1e-12)
    assert res.map50 == pytest.approx(0.75, abs=1e-12)
    assert set(dataclasses.asdict(res)) == {"map", "map50", "per_class"}


def test_map_ignores_classes_without_ground_truth():
    preds, gts = two_class_scenario()
    preds.append(det(0.99, (0.0, 0.0, 3.0, 3.0), cat=7))
    res = map_coco(preds, gts)
    assert 7 not in res.per_class
    assert res.map == pytest.approx(0.575, abs=1e-12)


def test_map_requires_ground_truth():
    with pytest.raises(DomainError):
        map_coco([det(0.5, (0, 0, 1, 1))], [])


def test_map_caps_detections_per_image():
    gts = [det(None, (0.0, 0.0, 10.0, 10.0), cat=0)]
    preds = [
        det(0.9, (100.0, 0.0, 10.0, 10.0), cat=0),
        det(0.8, (200.0, 0.0, 10.0, 10.0), cat=0),
        det(0.1, (0.0, 0.0, 10.0, 10.0), cat=0),
    ]
    full = map_coco(preds, gts)
    capped = map_coco(preds, gts, max_detections=2)
    assert full.map == pytest.approx(1 / 3, abs=1e-12)
    assert capped.map == 0.0


def test_map_cap_is_per_image_not_global():
    gts = [
        det(None, (0.0, 0.0, 10.0, 10.0), image=0, cat=0),
        det(None, (0.0, 0.0, 10.0, 10.0), image=1, cat=0),
    ]
    preds = [
        det(0.9, (0.0, 0.0, 10.0, 10.0), image=0, cat=0),
        det(0.8, (0.0, 0.0, 10.0, 10.0), image=1, cat=0),
    ]
    res = map_coco(preds, gts, max_detections=1)
    assert res.map == 1.0


def test_map_merges_scores_across_images():
    # an FP on image 1 outscoring the TP on image 0 must precede it globally
    gts = [det(None, (0.0, 0.0, 10.0, 10.0), image=0, cat=0)]
    preds = [
        det(0.5, (0.0, 0.0, 10.0, 10.0), image=0, cat=0),
        det(0.9, (500.0, 0.0, 10.0, 10.0), image=1, cat=0),
    ]
    res = map_coco(preds, gts)
    assert res.map == pytest.approx(0.5, abs=1e-12)


def test_threshold_grid_is_the_coco_ladder():
    assert IOU_THRESHOLDS == tuple((50 + 5 * i) / 100 for i in range(10))
    assert len(RECALL_POINTS) == 101


# -- scalar oracles ---------------------------------------------------------------
# The scalar scoring code that map_coco replaced, kept verbatim as the
# reference: the array path must reproduce every float bit for bit.


def oracle_iou(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def oracle_match_detections(preds, gts, iou_threshold):
    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    taken = [False] * len(gts)
    flags, scores = [], []
    for i in order:
        box = preds[i].bbox
        best_j, best_iou = -1, 0.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = oracle_iou(box, gt)
            if v > best_iou:
                best_j, best_iou = j, v
        hit = best_j >= 0 and best_iou >= iou_threshold
        if hit:
            taken[best_j] = True
        flags.append(hit)
        scores.append(preds[i].score)
    return tuple(flags), tuple(scores), len(gts), taken.count(False)


def oracle_average_precision(flags, n_gt):
    if n_gt == 0:
        return 0.0
    tp = 0
    precisions, recalls = [], []
    for i, flag in enumerate(flags):
        if flag:
            tp += 1
        precisions.append(tp / (i + 1))
        recalls.append(tp / n_gt)
    total = 0.0
    for r in RECALL_POINTS:
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total / len(RECALL_POINTS)


def oracle_group(records):
    by_class = {}
    for r in records:
        by_class.setdefault(r.category_id, {}).setdefault(r.image_id, []).append(r)
    return by_class


def oracle_cap_per_image(preds, max_dets):
    by_image = {}
    for p in preds:
        by_image.setdefault(p.image_id, []).append(p)
    kept = []
    for img in sorted(by_image):
        kept.extend(sorted(by_image[img], key=lambda r: -r.score)[:max_dets])
    return kept


def oracle_class_flags(pred_imgs, gt_imgs, threshold):
    merged = []
    seq = 0
    for img in sorted(set(pred_imgs) | set(gt_imgs)):
        gts = [g.bbox for g in gt_imgs.get(img, [])]
        flags, scores, _, _ = oracle_match_detections(pred_imgs.get(img, []), gts, threshold)
        for s, f in zip(scores, flags):
            merged.append((-s, seq, f))
            seq += 1
    merged.sort()
    return [f for _, _, f in merged]


def oracle_map_coco(preds, gts, max_detections=100):
    classes = sorted({g.category_id for g in gts})
    pred_groups = oracle_group(oracle_cap_per_image(preds, max_detections))
    gt_groups = oracle_group(gts)
    per_class = {}
    map50_sum = 0.0
    for c in classes:
        gt_imgs = gt_groups[c]
        pred_imgs = pred_groups.get(c, {})
        n_gt = sum(len(v) for v in gt_imgs.values())
        aps = [
            oracle_average_precision(oracle_class_flags(pred_imgs, gt_imgs, t), n_gt)
            for t in IOU_THRESHOLDS
        ]
        per_class[c] = sum(aps) / len(aps)
        map50_sum += aps[0]
    n = len(classes)
    return sum(per_class[c] for c in classes) / n, map50_sum / n, per_class


def random_split(seed, score_decimals=4, n_images=30, n_classes=3, preds_per_image=40):
    """A bench-like split: jittered hits on each GT plus uniform false positives.

    Images 0-1 get ground truth only, images past ``n_images`` predictions
    only, class ``n_classes`` has ground truth but no prediction, and every
    other image holds a prediction whose IoU with two class-0 boxes is
    exactly tied.
    """
    rng = philox(seed)
    gts, preds = [], []
    for img in range(n_images + 3):
        n_pred = preds_per_image
        if img < n_images:
            for _ in range(6):
                xy = rng.integers(0, 280, size=2).astype(float)
                wh = rng.integers(8, 60, size=2).astype(float)
                gts.append(det(None, (*xy, *wh), image=img, cat=int(rng.integers(0, n_classes))))
            # the prediction at x=301 overlaps both boxes by 90/110
            gts.append(det(None, (300.0, 300.0, 10.0, 10.0), image=img, cat=0))
            gts.append(det(None, (302.0, 300.0, 10.0, 10.0), image=img, cat=0))
        if img >= 2:
            if img < n_images:
                preds.append(det(0.5, (301.0, 300.0, 10.0, 10.0), image=img, cat=0))
                n_pred -= 1
            own = [g for g in gts if g.image_id == img]
            for _ in range(n_pred):
                if own and rng.random() < 0.6:
                    g = own[int(rng.integers(0, len(own)))]
                    x, y, w, h = g.bbox
                    jit = rng.normal(0.0, 0.08, size=4)
                    box = (
                        round(x + jit[0] * w, 1), round(y + jit[1] * h, 1),
                        max(1.0, round(w * (1 + jit[2]), 1)), max(1.0, round(h * (1 + jit[3]), 1)),
                    )
                    cat = g.category_id if rng.random() < 0.9 else int(rng.integers(0, n_classes))
                else:
                    xy = rng.uniform(0.0, 300.0, size=2).round(1)
                    box = (*xy, *rng.uniform(5.0, 80.0, size=2).round(1))
                    cat = int(rng.integers(0, n_classes))
                if cat == n_classes:
                    cat = 0
                score = round(float(rng.uniform(0.0, 1.0)), score_decimals)
                preds.append(det(score, box, image=img, cat=cat))
    gts.append(det(None, (5.0, 5.0, 20.0, 20.0), image=3, cat=n_classes))
    return preds, gts


def test_oracle_parity_ap_exhaustive_flag_patterns():
    for length in range(11):
        for mask in range(2**length):
            flags = [bool(mask >> i & 1) for i in range(length)]
            for n_gt in range(5):
                assert average_precision(flags, n_gt) == oracle_average_precision(flags, n_gt)


def test_oracle_parity_iou_matrix():
    rng = philox(7)
    a = np.hstack([rng.uniform(0.0, 50.0, (60, 2)), rng.uniform(0.1, 40.0, (60, 2))])
    b = np.vstack([a[:20] + rng.normal(0.0, 1.0, (20, 4)) * [1, 1, 0, 0], a[40:]])
    got = eval_metrics._iou(a[:, None], b)
    want = [[oracle_iou(p, g) for g in b.tolist()] for p in a.tolist()]
    assert got.tolist() == want
    assert (got > 0.5).sum() >= 20


def test_oracle_parity_match_detections():
    for seed in range(40):
        preds, gts = random_split(1_000 + seed, score_decimals=1, n_images=3)
        boxes = [g.bbox for g in gts if g.image_id == 2 and g.category_id == 0]
        mine = [p for p in preds if p.image_id == 2 and p.category_id == 0]
        ranked = [p.bbox for p in sorted(mine, key=lambda p: -p.score)]
        for t in (0.0, 0.3, 0.5, 0.75, 0.95):
            flags, _, n_gt, unmatched = oracle_match_detections(mine, boxes, t)
            assert hits(ranked, boxes, t) == flags
            assert n_gt - sum(flags) == unmatched


@pytest.mark.parametrize(
    "seed, score_decimals, max_detections",
    [
        (11, 4, 100),
        (12, 1, 100),  # many repeated scores
        (13, 2, 25),  # the cap drops 15 of every image's 40 predictions
        (14, 1, 7),
        (16, 1, 1),  # one detection per image
        (17, 1, 7),
        (18, 1, 100),
    ],
)
def test_oracle_parity_map_coco(seed, score_decimals, max_detections):
    preds, gts = random_split(seed, score_decimals)
    assert len(preds) == 31 * 40
    got = map_coco(preds, gts, max_detections=max_detections)
    want = oracle_map_coco(preds, gts, max_detections)
    assert (got.map, got.map50, got.per_class) == want
    assert got.per_class[3] == 0.0  # ground truth only


def shared_groups(preds, gts):
    return {(p.image_id, p.category_id) for p in preds} & {(g.image_id, g.category_id) for g in gts}


@pytest.mark.parametrize(
    "seed, max_detections, block_bytes",
    [(19, 100, 1), (19, 100, 3000), (20, 7, 1), (20, 7, 3000)],
)
def test_oracle_parity_map_coco_in_chunks(monkeypatch, seed, max_detections, block_bytes):
    # 1 byte puts each (class, image) group in a chunk of its own; 3000
    # bytes puts a few groups, padded to the widest, in each chunk
    preds, gts = random_split(seed, score_decimals=1)
    calls = []
    real = eval_metrics._iou

    def spy(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(eval_metrics, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(eval_metrics, "_iou", spy)
    got = map_coco(preds, gts, max_detections=max_detections)
    assert (got.map, got.map50, got.per_class) == oracle_map_coco(preds, gts, max_detections)
    capped = oracle_cap_per_image(preds, max_detections)
    groups = len(shared_groups(capped, gts))
    if block_bytes == 1:
        assert len(calls) == groups
    else:
        assert 1 < len(calls) < groups


@pytest.mark.parametrize("seed, score_decimals, max_detections", [(21, 1, 100), (22, 1, 7), (23, 4, 25)])
def test_map_coco_on_decoded_tables_equals_map_coco_on_records(seed, score_decimals, max_detections):
    preds, gts = random_split(seed, score_decimals)
    # input order decides score ties, so shuffle it the same way for both
    order = philox(seed).permutation(len(preds)).tolist()
    preds = [preds[i] for i in order]
    tables = [decode_detections(encode_detections(r)) for r in (preds, gts)]
    assert tables == [preds, gts]
    got = map_coco(*tables, max_detections=max_detections)
    want = map_coco(preds, gts, max_detections=max_detections)
    assert (got.map, got.map50, got.per_class) == (want.map, want.map50, want.per_class)
    assert (want.map, want.map50, want.per_class) == oracle_map_coco(preds, gts, max_detections)


def test_match_exact_iou_tie_goes_to_the_first_ground_truth():
    gts = [(0.0, 0.0, 10.0, 10.0), (2.0, 0.0, 10.0, 10.0)]
    tied = det(0.9, (1, 0, 10, 10))
    assert iou_tlwh(tied.bbox, gts[0]) == iou_tlwh(tied.bbox, gts[1])
    # the runner-up overlaps box 1 by 90/110 and box 0 by 70/130: it can
    # clear 0.8 only if the tied detection took box 0
    assert hits([tied.bbox, (3, 0, 10, 10)], gts, 0.8) == (True, True)


def test_map_computes_each_pair_iou_once(monkeypatch):
    preds, gts = random_split(15)
    pairs = []
    real = eval_metrics._iou

    def spy(a, b):
        pairs.extend(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        return real(a, b)

    def no_scalar_iou(a, b):
        raise AssertionError("map_coco called the scalar IoU")

    monkeypatch.setattr(eval_metrics, "_iou", spy)
    monkeypatch.setattr(eval_metrics, "iou_tlwh", no_scalar_iou)
    map_coco(preds, gts)
    # every (prediction, ground truth) pair of each shared (class, image)
    # group, D_g * G_g of them per group, and nothing else
    want = [
        (p.bbox, g.bbox)
        for p in preds for g in gts
        if (p.image_id, p.category_id) == (g.image_id, g.category_id)
    ]
    size = lambda recs, key: sum((r.image_id, r.category_id) == key for r in recs)
    assert len(pairs) == sum(size(preds, k) * size(gts, k) for k in shared_groups(preds, gts))
    assert sorted(pairs) == sorted(want)


def crowded_split(n_small=1000, n_big=500, big_preds=20):
    """Class-0 tables: ``n_small`` images with one ground-truth box and two
    predictions (a hit and a miss) each, and image ``n_small // 2`` also
    crowded with ``n_big`` boxes on a grid, ``big_preds`` of them hit."""
    rng = philox(5)
    small = np.hstack([rng.uniform(0.0, 200.0, (n_small, 2)), np.full((n_small, 2), 20.0)])
    k = np.arange(n_big)
    big = np.stack([k % 25 * 30.0, k // 25 * 30.0, np.full(n_big, 20.0), np.full(n_big, 20.0)], 1)
    crowded = n_small // 2
    p_box = np.vstack([small + [1.0, 0.0, 0.0, 0.0], small + [100.0, 100.0, 0.0, 0.0],
                       big[:big_preds] + [2.0, 0.0, 0.0, 0.0]])
    p_img = np.r_[np.arange(n_small), np.arange(n_small), np.full(big_preds, crowded)]
    g_img = np.r_[np.arange(n_small), np.full(n_big, crowded)]
    zeros = lambda n: np.zeros(n, dtype=np.int64)
    preds = DetectionTable(p_img, zeros(len(p_img)), p_box, rng.uniform(0.0, 1.0, len(p_img)))
    gts = DetectionTable(g_img, zeros(len(g_img)), np.vstack([small, big]), np.full(len(g_img), np.nan))
    return preds, gts


def match_peak_bytes(preds, gts):
    tracemalloc.start()
    try:
        result = map_coco(preds, gts)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_match_memory_is_bounded_by_the_chunk_not_the_crowded_image(monkeypatch):
    # one chunk's padded blocks (at most BLOCK_BYTES = 4 MiB) plus its
    # pair arrays and the sorted input columns stay under 8 MiB; padding
    # every row to the crowded image's 501 boxes takes ~80 MiB here
    bound = 8 << 20
    preds, gts = crowded_split()
    peak, chunked = match_peak_bytes(preds, gts)
    assert peak < bound
    monkeypatch.setattr(eval_metrics, "BLOCK_BYTES", 1 << 40)
    global_peak, padded = match_peak_bytes(preds, gts)
    assert global_peak > bound
    assert (padded.map, padded.per_class) == (chunked.map, chunked.per_class)


@pytest.mark.parametrize("block_bytes", [eval_metrics.BLOCK_BYTES, 1])
def test_map_names_the_undefined_pair_the_per_group_order_meets_first(monkeypatch, block_bytes):
    monkeypatch.setattr(eval_metrics, "BLOCK_BYTES", block_bytes)
    huge = (0.0, 0.0, 1e200, 1e200)
    tiny = lambda x: (x, 4.0, 1e-200, 1e-200)
    gts = [
        det(None, huge, image=0, cat=1),  # overflows, but class 1 comes after class 0
        det(None, (0.0, 0.0, 10.0, 10.0), image=2, cat=0),
        det(None, tiny(3.0), image=2, cat=0),
        det(None, tiny(5.0), image=2, cat=0),
        det(None, tiny(7.0), image=4, cat=0),
        det(None, (0.0, 0.0, 10.0, 10.0), image=1, cat=0),
    ]
    preds = [
        det(0.9, huge, image=0, cat=1),
        det(0.3, tiny(5.0), image=2, cat=0),  # listed first, ranked second
        det(0.8, tiny(3.0), image=2, cat=0),  # zero union with both tiny boxes
        det(0.9, tiny(7.0), image=4, cat=0),  # a later image
        det(0.9, (1.0, 0.0, 10.0, 10.0), image=1, cat=0),
    ]
    # class 0, image 2, its best-scored row, then its first tiny ground-truth box
    want = f"IoU of boxes {tiny(3.0)} and {tiny(3.0)} is undefined: their union is 0"
    with pytest.raises(DomainError) as exc:
        map_coco(preds, gts)
    assert str(exc.value) == want


# -- input domain ----------------------------------------------------------------------


def test_map_rejects_unscored_predictions():
    preds, gts = two_class_scenario()
    with pytest.raises(DomainError, match="no score"):
        map_coco(preds + [det(None, (0.0, 0.0, 4.0, 4.0), cat=1)], gts)
    # ground truth passed as predictions: no record has a score
    with pytest.raises(DomainError, match="no score"):
        map_coco(gts, gts)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3", None])
def test_map_rejects_bad_max_detections(bad):
    preds, gts = two_class_scenario()
    with pytest.raises(DomainError, match="max_detections"):
        map_coco(preds, gts, max_detections=bad)


@pytest.mark.parametrize("bad", [np.float64(2.0), np.bool_(True), np.int64(0)])
def test_map_rejects_numpy_max_detections_that_are_not_positive_integers(bad):
    preds, gts = two_class_scenario()
    with pytest.raises(DomainError) as exc:
        map_coco(preds, gts, max_detections=bad)
    assert str(exc.value) == f"max_detections must be an int >= 1, got {bad!r}"


def test_map_takes_a_numpy_integer_max_detections():
    preds, gts = two_class_scenario()
    assert map_coco(preds, gts, max_detections=np.int64(1)) == map_coco(preds, gts, max_detections=1)


def test_iou_of_two_zero_area_boxes_is_a_domain_error():
    tiny = (3.0, 4.0, 1e-200, 1e-200)
    with pytest.raises(DomainError, match="union is 0"):
        iou_tlwh(tiny, tiny)
    with pytest.raises(DomainError, match="union is 0"):
        map_coco([det(0.9, tiny)], [det(None, tiny)])
    with pytest.raises(DomainError, match="union is 0"):
        hits([tiny], [tiny], 0.5)
    # one such box against an ordinary one is well defined
    assert iou_tlwh(tiny, (0.0, 0.0, 10.0, 10.0)) == 0.0
    assert map_coco([det(0.9, tiny)], [det(None, (0.0, 0.0, 10.0, 10.0))]).map == 0.0


def test_iou_whose_union_overflows_is_a_domain_error():
    # finite boxes whose areas overflow: inf - inf in the union used to give nan
    huge = (0.0, 0.0, 1e200, 1e200)
    with pytest.raises(DomainError, match=r"\(0\.0, 0\.0, 1e\+200, 1e\+200\).*not finite"):
        iou_tlwh(huge, huge)
    # areas finite, their sum not
    wide = (0.0, 0.0, 1e300, 1.5e8)
    with pytest.raises(DomainError, match="not finite"):
        iou_tlwh(wide, (5.0, 0.0, 1e300, 1.5e8))


def test_iou_matrix_names_the_first_pair_whose_union_overflows():
    a = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 1e200, 1e200]])
    b = np.array([[1.0, 1.0, 5.0, 5.0], [0.0, 0.0, 1e200, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning first
        with pytest.raises(DomainError, match="not finite") as exc:
            eval_metrics._iou(a[:, None], b)
    # row-major: a[0] against b[1] is the first bad pair
    assert "(0.0, 0.0, 10.0, 10.0) and (0.0, 0.0, 1e+200, 1e+200)" in str(exc.value)


def test_map_and_nms_refuse_boxes_whose_union_overflows():
    from evframe.detect_head import _nms_keep

    huge = (0.0, 0.0, 1e200, 1e200)
    with pytest.raises(DomainError, match="not finite"):
        map_coco([det(0.9, huge)], [det(None, huge)])
    # two identical boxes: the scalar loop's nan IoU kept both
    with pytest.raises(DomainError, match="not finite"):
        _nms_keep(np.array([huge, huge]), np.array([0.9, 0.8]), np.zeros(2, np.intp), 0.5)


# -- corruption aggregates ------------------------------------------------------------


def full_matrix(value=0.4):
    return [[value] * 5 for _ in range(15)]


def graded_matrix():
    """A 15x5 matrix whose row r, column s holds (5r + s) / 100."""
    return [[(5 * r + s) / 100 for s in range(5)] for r in range(15)]


def test_mpc_nested_equals_flat_mean():
    m = graded_matrix()
    flat = sum(v for r in m for v in r) / 75
    assert abs(mpc(m) - flat) < 1e-12


def test_mpc_strict_enforces_full_grid():
    assert mpc(full_matrix()) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(DomainError):
        mpc(full_matrix()[:14])
    with pytest.raises(DomainError):
        mpc([r[:4] for r in full_matrix()])


def test_matrix_validation():
    with pytest.raises(DomainError, match=r"15x5 matrix, got row lengths \[\]"):
        mpc([])
    ragged = full_matrix()
    ragged[7] = ragged[7][:4]
    with pytest.raises(DomainError, match="^type 'fog' needs exactly 5 severity entries$"):
        mpc(ragged)
    out_of_range = full_matrix()
    out_of_range[3][2] = 1.5
    with pytest.raises(DomainError, match=r"mAP entry 1.5 is not a number in \[0,1\]"):
        mpc(out_of_range)


def test_rpc_relative_to_clean():
    # column s averages to (35 + s) / 100 over the 15 rows
    out = rpc(0.5, graded_matrix())
    assert out == pytest.approx(tuple((35 + s) / 50 for s in range(5)), abs=1e-12)


def test_rpc_identity_when_nothing_degrades():
    assert rpc(0.4, full_matrix(0.4)) == pytest.approx((1.0,) * 5, abs=1e-12)


def test_rpc_rejects_non_positive_clean():
    with pytest.raises(DomainError):
        rpc(0.0, full_matrix())


def test_report_builder_is_consistent():
    rep = build_mpc_report(0.5, full_matrix(0.25))
    assert rep.mpc == pytest.approx(0.25, abs=1e-12)
    assert rep.rpc_per_severity == pytest.approx((0.5,) * 5, abs=1e-12)
    d = dataclasses.asdict(rep)
    assert set(d) == {"map_clean", "map_matrix", "mpc", "rpc_per_severity"}
    assert len(d["map_matrix"]) == 15


def test_report_derives_its_aggregates_from_the_matrix():
    clean, m = 0.5, graded_matrix()
    rep = MpcReport(clean, m)
    assert rep.mpc == mpc(m)
    assert rep.rpc_per_severity == rpc(clean, m)
    assert rep == build_mpc_report(clean, m)
    with pytest.raises(TypeError):
        MpcReport(clean, m, mpc=0.9)


def test_report_rejects_out_of_range_entries():
    m = full_matrix()
    m[3][2] = 1.2
    with pytest.raises(DomainError, match=r"^mAP entry 1.2 is not a number in \[0,1\]$"):
        MpcReport(0.5, m)


@pytest.mark.parametrize("entry", ["x", None, True, np.bool_(True), [0.5]])
def test_matrix_entries_must_be_real_numbers(entry):
    m = full_matrix()
    m[3][2] = entry
    for call in (lambda: mpc(m), lambda: rpc(0.5, m), lambda: build_mpc_report(0.5, m)):
        with pytest.raises(DomainError, match=r"mAP entry .* is not a number in \[0,1\]"):
            call()


@pytest.mark.parametrize("clean", [float("nan"), True, 1.5, "0.5", None])
def test_rpc_refuses_a_clean_map_outside_the_unit_interval(clean):
    for call in (lambda: rpc(clean, full_matrix()), lambda: build_mpc_report(clean, full_matrix())):
        with pytest.raises(DomainError, match=r"clean mAP must be a number in \(0,1\]"):
            call()


def test_integer_and_numpy_entries_are_numbers():
    m = [[1, np.float32(0.5), np.int64(0), 0.25, 1.0] for _ in range(15)]
    assert mpc(m) == pytest.approx(0.55, abs=1e-12)
    assert rpc(1, m)[0] == 1.0
