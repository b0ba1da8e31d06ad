"""Codec roundtrips and malformed-input rejection for every file format."""

import json
import sys

import numpy as np
import pytest

from evframe import (
    CameraRig,
    DetectionRecord,
    DetectionTable,
    DomainError,
    Event,
    EvframeError,
    EventStream,
    FormatError,
    ImagePNM,
    ParseError,
    SchemaError,
    ValidationError,
    decode_detections,
    decode_events,
    decode_image,
    decode_tensor,
    encode_detections,
    encode_events,
    encode_image,
    encode_tensor,
    parse_calibration,
)
from evframe import formats_io
from conftest import calibration_json, philox, rgb_image, small_rig


# -- event CSV ---------------------------------------------------------------------


def test_event_csv_roundtrip_preserves_order_and_values():
    events = [Event(3, 1, 10, 1), Event(0, 2, 10, -1), Event(5, 5, 42, 1)]
    stream = EventStream(sensor_width=8, sensor_height=6, events=events)
    back = decode_events(encode_events(stream), 8, 6)
    assert back.events == events
    assert (back.sensor_width, back.sensor_height) == (8, 6)


def test_event_csv_header_is_required():
    with pytest.raises(ParseError) as info:
        decode_events(b"1,2,3,4\n", 8, 8)
    assert info.value.line == 1


def test_event_csv_rejects_wrong_field_count():
    with pytest.raises(ParseError) as info:
        decode_events(b"t,x,y,p\n1,2,3\n", 8, 8)
    assert info.value.line == 2


def test_event_csv_rejects_non_integer_fields():
    with pytest.raises(ParseError):
        decode_events(b"t,x,y,p\n1,2,x,1\n", 8, 8)


def test_event_csv_rejects_bad_polarity():
    with pytest.raises(DomainError):
        decode_events(b"t,x,y,p\n1,2,3,0\n", 8, 8)


def test_event_csv_rejects_out_of_bounds_when_dims_given():
    with pytest.raises(DomainError):
        decode_events(b"t,x,y,p\n1,9,3,1\n", 8, 8)


def test_event_csv_rejects_negative_coordinates_always():
    with pytest.raises(DomainError):
        decode_events(b"t,x,y,p\n1,-1,3,1\n")


def test_event_csv_rejects_decreasing_timestamps():
    with pytest.raises(ValidationError):
        decode_events(b"t,x,y,p\n5,1,1,1\n4,1,1,1\n", 8, 8)


def test_event_csv_infers_sensor_dims_from_max_coordinate():
    stream = decode_events(b"t,x,y,p\n1,7,2,1\n2,3,5,-1\n")
    assert (stream.sensor_width, stream.sensor_height) == (8, 6)


def test_event_csv_cannot_infer_dims_from_empty_stream():
    with pytest.raises(DomainError):
        decode_events(b"t,x,y,p\n")


def test_event_csv_dims_must_come_in_pairs():
    with pytest.raises(DomainError):
        decode_events(b"t,x,y,p\n1,1,1,1\n", sensor_width=8)


def test_event_csv_empty_stream_roundtrip_with_dims():
    stream = decode_events(b"t,x,y,p\n", 4, 4)
    assert stream.events == []


# -- PNM images --------------------------------------------------------------------


def test_pnm_roundtrip_grayscale_and_color():
    rng = philox(1)
    for channels in (1, 3):
        pixels = rng.integers(0, 256, size=(5, 7, channels)).astype(np.uint8)
        img = ImagePNM(width=7, height=5, channels=channels, pixels=pixels)
        back = decode_image(encode_image(img))
        assert back.width == 7 and back.height == 5 and back.channels == channels
        assert np.array_equal(back.pixels, pixels)


def test_pnm_rejects_unknown_magic():
    with pytest.raises(FormatError):
        decode_image(b"P3\n1 1\n255\n0")


def test_pnm_rejects_wrong_maxval():
    with pytest.raises(FormatError):
        decode_image(b"P5\n1 1\n65535\n\x00\x00")


def test_pnm_rejects_truncated_payload():
    with pytest.raises(FormatError):
        decode_image(b"P5\n2 2\n255\nab")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n2 ", "truncated PNM header"),  # a token is missing
        (b"P5\n2 1 255", "truncated PNM header"),  # no byte ends maxval
        (b"P5\n# only a comment", "truncated PNM header"),
        (b"P6\n2 x\n255\nAB", "non-numeric PNM header field"),
        (b"P5\n0 1\n255\n", "invalid dimensions 0x1"),
        (b"P5\n2 -1\n255\n", "invalid dimensions 2x-1"),
    ],
    ids=["missing-token", "maxval-unterminated", "comment-only", "non-numeric", "zero-width", "negative-height"],
)
def test_pnm_refuses_a_bad_header(data, message):
    with pytest.raises(FormatError) as exc:
        decode_image(data)
    assert str(exc.value) == message


def test_pnm_skips_header_comments():
    img = decode_image(b"P5\n# a comment\n2 1\n255\nAB")
    assert img.pixels[0, 0, 0] == ord("A")
    assert img.pixels[0, 1, 0] == ord("B")


def test_pnm_payload_may_start_with_whitespace_byte():
    # 0x20 is a legal first pixel; only one separator byte is consumed
    img = decode_image(b"P5\n1 1\n255\n ")
    assert img.pixels[0, 0, 0] == 0x20


def test_image_float_conversion_roundtrip():
    rng = philox(2)
    img = rgb_image(rng, 6, 4)
    back = ImagePNM.from_float01(img.to_float01())
    assert np.array_equal(back.pixels, img.pixels)


def test_image_rejects_mismatched_buffer():
    with pytest.raises(ValidationError):
        ImagePNM(width=4, height=4, channels=1, pixels=np.zeros((4, 5, 1), np.uint8))


def test_image_refuses_two_channels():
    with pytest.raises(ValidationError) as exc:
        ImagePNM(width=2, height=2, channels=2, pixels=np.zeros((2, 2, 2), np.uint8))
    assert str(exc.value) == "channels must be 1 or 3, got 2"


def test_image_from_float01_refuses_a_four_dimensional_array():
    with pytest.raises(ValidationError) as exc:
        ImagePNM.from_float01(np.zeros((2, 2, 1, 1)))
    assert str(exc.value) == "expected (H, W, 1|3) array, got shape (2, 2, 1, 1)"


# -- tensor container ----------------------------------------------------------------


def test_tensor_roundtrip_is_bit_exact_for_float32():
    rng = philox(3)
    for shape in ((4,), (3, 5), (2, 3, 4), (2, 2, 2, 2)):
        arr = rng.standard_normal(shape).astype(np.float32)
        back = decode_tensor(encode_tensor(arr))
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)


def test_tensor_rejects_bad_magic():
    with pytest.raises(FormatError):
        decode_tensor(b"NOPE" + b"\x00" * 16)


def test_tensor_rejects_payload_size_mismatch():
    good = encode_tensor(np.zeros((2, 2), np.float32))
    with pytest.raises(FormatError):
        decode_tensor(good[:-4])


def test_tensor_rejects_rank_zero():
    with pytest.raises(DomainError):
        encode_tensor(np.float32(1.0))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"FTNS" + (0).to_bytes(4, "little"), "tensor rank must be 1..4, got 0"),
        (b"FTNS" + (5).to_bytes(4, "little") + bytes(20), "tensor rank must be 1..4, got 5"),
        (b"FTNS" + (3).to_bytes(4, "little") + bytes(8), "truncated tensor header"),
    ],
    ids=["rank-0", "rank-5", "truncated-dims"],
)
def test_tensor_decode_refuses_a_bad_header(data, message):
    with pytest.raises(FormatError) as exc:
        decode_tensor(data)
    assert str(exc.value) == message


# -- calibration ----------------------------------------------------------------------


def test_calibration_roundtrip():
    rig = small_rig()
    back = parse_calibration(calibration_json(rig))
    for name in ("k_rgb", "k_event", "r_rgb", "r_event", "r_event_rgb"):
        assert np.allclose(getattr(back, name), getattr(rig, name), atol=1e-12)


def test_calibration_rejects_missing_key():
    rig = small_rig()
    data = json.loads(calibration_json(rig))
    del data["R_event"]
    with pytest.raises(SchemaError):
        parse_calibration(json.dumps(data).encode())


def test_calibration_that_is_not_json_is_a_parse_error():
    for data in (b"{", b"\xff{}"):
        with pytest.raises(ParseError, match="^calibration is not valid JSON: "):
            parse_calibration(data)


@pytest.mark.parametrize(
    "patch, message",
    [
        ([1, 2], "calibration root must be a JSON object"),
        ({"K_rgb": [1, 0, 0, 0, 1, 0, 0, 0]}, "'K_rgb' must be a 9-element row-major array"),
        ({"R_event": "identity"}, "'R_event' must be a 9-element row-major array"),
        ({"K_event": [1, 0, 0, 0, 1, 0, 0, 0, "x"]}, "'K_event' contains a non-numeric entry"),
        ({"R_rgb": [1, 0, 0, 0, 1, 0, 0, 0, None]}, "'R_rgb' contains a non-numeric entry"),
        ({"K_rgb": [True, 0, 0, 0, 1, 0, 0, 0, 1]}, "'K_rgb' contains a non-numeric entry"),
        ({"K_rgb": ["2", 0, 0, 0, 1, 0, 0, 0, 1]}, "'K_rgb' contains a non-numeric entry"),
        ({"R_event": [float("nan")] + [0] * 8}, "'R_event' contains a non-finite entry"),
        ({"R_event": [float("inf")] + [0] * 8}, "'R_event' contains a non-finite entry"),
    ],
    ids=[
        "array-root", "eight-entries", "string-matrix", "string-entry", "null-entry",
        "bool-entry", "numeric-string-entry", "nan-entry", "infinity-entry",
    ],
)
def test_calibration_refuses_a_malformed_document(patch, message):
    doc = json.loads(calibration_json(small_rig()))
    doc = patch if isinstance(patch, list) else {**doc, **patch}
    with pytest.raises(SchemaError) as exc:
        parse_calibration(json.dumps(doc).encode())
    assert str(exc.value) == message


def test_rig_rejects_non_orthonormal_rotation():
    rig = small_rig()
    with pytest.raises(ValidationError):
        CameraRig(
            k_rgb=rig.k_rgb,
            k_event=rig.k_event,
            r_rgb=np.eye(3) * 2.0,
            r_event=rig.r_event,
            r_event_rgb=rig.r_event_rgb,
        )


def test_rig_rejects_non_triangular_intrinsics():
    rig = small_rig()
    bad_k = rig.k_rgb.copy()
    bad_k[1, 0] = 3.0
    with pytest.raises(ValidationError):
        CameraRig(
            k_rgb=bad_k,
            k_event=rig.k_event,
            r_rgb=rig.r_rgb,
            r_event=rig.r_event,
            r_event_rgb=rig.r_event_rgb,
        )


# -- detections ------------------------------------------------------------------------


def test_detections_roundtrip_with_and_without_score():
    records = [
        DetectionRecord(image_id=0, category_id=2, bbox=(1.0, 2.0, 3.0, 4.0), score=0.75),
        DetectionRecord(image_id=1, category_id=0, bbox=(0.5, 0.5, 2.0, 2.0), score=None),
    ]
    back = decode_detections(encode_detections(records))
    assert back == records


def test_score_is_omitted_from_encoding_when_absent():
    rec = DetectionRecord(image_id=0, category_id=0, bbox=(1, 1, 2, 2), score=None)
    line = encode_detections([rec]).decode().strip()
    assert "score" not in json.loads(line)


def test_detections_reject_non_numeric_bbox():
    line = b'{"image_id": 0, "category_id": 0, "bbox": [1, "x", 2, 2]}\n'
    with pytest.raises(ParseError):
        decode_detections(line)


def test_detections_reject_malformed_json():
    with pytest.raises(ParseError):
        decode_detections(b"not json\n")


def test_detection_record_rejects_non_positive_dims():
    with pytest.raises(DomainError):
        DetectionRecord(image_id=0, category_id=0, bbox=(0, 0, 0.0, 2.0), score=None)


def test_detection_record_rejects_out_of_range_score():
    with pytest.raises(DomainError):
        DetectionRecord(image_id=0, category_id=0, bbox=(0, 0, 1, 1), score=1.5)


@pytest.mark.parametrize(
    "bbox",
    [
        (float("nan"), 0, 1, 1),
        (0, float("-inf"), 1, 1),
        (0, 0, float("inf"), 1),
        (0, 0, 1, float("nan")),
        (0, 0, 10**400, 1),
    ],
)
def test_detection_record_rejects_non_finite_bbox(bbox):
    with pytest.raises(DomainError, match="finite"):
        DetectionRecord(image_id=0, category_id=0, bbox=bbox, score=None)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_detections_name_the_line_of_a_non_finite_bbox(entry):
    good = b'{"image_id": 0, "category_id": 0, "bbox": [1, 1, 2, 2]}\n'
    bad = b'{"image_id": 0, "category_id": 0, "bbox": [1, %s, 2, 2]}\n' % entry.encode()
    with pytest.raises(DomainError, match="^line 2: bbox entries must be finite"):
        decode_detections(good + bad)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("image_id", '"a"', "image_id must be an integer, got 'a'"),
        ("category_id", '"a"', "category_id must be an integer, got 'a'"),
        ("category_id", "[1]", "category_id must be an integer, got [1]"),
        ("image_id", "Infinity", "image_id must be an integer, got inf"),
        ("score", '"x"', "score must be a number, got 'x'"),
        ("score", "{}", "score must be a number, got {}"),
    ],
)
def test_detections_name_the_line_of_a_non_numeric_field(field, value, message):
    doc = {"image_id": "0", "category_id": "1", "bbox": "[1, 1, 2, 2]", "score": "0.5"}
    doc[field] = value
    good = b'{"image_id": 0, "category_id": 0, "bbox": [1, 1, 2, 2]}\n'
    bad = ("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}\n").encode()
    with pytest.raises(ParseError) as exc:
        decode_detections(good + good + bad)
    assert str(exc.value) == f"line 3: {message}"
    assert exc.value.line == 3


# -- columnar detection decode --------------------------------------------------------


def scanned(data: bytes) -> DetectionTable:
    """What the line scanner alone makes of a body."""
    return DetectionTable.from_records(formats_io._scan_detection_lines(data))


def seeded_records(seed: int, n: int = 60) -> list:
    """Predictions and ground truth whose JSON covers every number form
    json.dumps writes: exponents both ways, negative coordinates, -0.0."""
    rng = philox(seed)
    records = []
    for k in range(n):
        xy = rng.uniform(-50.0, 400.0, size=2)
        wh = rng.uniform(0.5, 90.0, size=2)
        if k % 7 == 0:
            xy = (-0.0, -(10.0 ** -int(rng.integers(5, 12))))
            wh = (10.0 ** int(rng.integers(16, 22)), 1e-05)
        score = None if k % 5 == 0 else float(rng.choice([0.0, 1.0, 1e-05, rng.random()]))
        image = int(rng.integers(-3, 2**40)) if k % 11 == 0 else int(rng.integers(0, 4))
        records.append(DetectionRecord(image, int(rng.integers(0, 3)), (*xy, *wh), score))
    return records


@pytest.mark.parametrize("seed", range(4))
def test_canonical_detections_decode_to_the_scanner_columns(seed):
    records = seeded_records(seed)
    data = encode_detections(records)
    for text in (b"1e-05", b"e+", b"-0.0"):
        assert text in data
    table = decode_detections(data)
    assert isinstance(table, DetectionTable)
    assert table == scanned(data)
    assert table == records
    assert encode_detections(table) == data


def test_integer_bbox_entries_and_scores_decode_as_floats():
    data = (
        b'{"image_id": 0, "category_id": 1, "bbox": [1, -2, 3, 4], "score": 1}\n'
        b'{"image_id": -0, "category_id": 2, "bbox": [0, 1E2, 2e0, 0.5E-3]}\n'
    )
    table = decode_detections(data)
    assert table == scanned(data)
    assert table.bbox.tolist() == [[1.0, -2.0, 3.0, 4.0], [0.0, 100.0, 2.0, 0.0005]]
    assert table.score[0] == 1.0 and np.isnan(table.score[1])


def test_canonical_detections_skip_the_line_scanner(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line scanner ran")

    monkeypatch.setattr(formats_io, "_scan_detection_lines", refuse)
    for seed in range(4):
        records = seeded_records(seed)
        assert decode_detections(encode_detections(records)) == records
    preds = [r for r in seeded_records(9) if r.score is not None]
    data = encode_detections(preds)
    assert decode_detections(data) == preds
    assert decode_detections(b"") == []


@pytest.mark.parametrize(
    "data",
    [
        b'{"image_id": 0, "category_id": 0, "bbox": [1.0, 1.0, 2.0, 2.0]}',  # no final LF
        b'{"image_id": 0, "category_id": 0, "bbox": [1.0, 1.0, 2.0, 2.0]}\r\n',
        b'{"category_id": 0, "image_id": 0, "bbox": [1.0, 1.0, 2.0, 2.0]}\n',
        b'{"image_id":0,"category_id":0,"bbox":[1.0,1.0,2.0,2.0]}\n\n',
        b'{"image_id": 1.0, "category_id": 0, "bbox": [1.0, 1.0, 2.0, 2.0], "score": null}\n',
    ],
)
def test_other_json_forms_decode_like_the_scanner(data):
    table = decode_detections(data)
    assert table == scanned(data)
    image_id = json.loads(data.splitlines()[0])["image_id"]
    assert table == [DetectionRecord(image_id, 0, (1.0, 1.0, 2.0, 2.0), None)]


def test_detection_table_is_a_read_only_sequence_of_records():
    records = seeded_records(5, n=6)
    table = decode_detections(encode_detections(records))
    assert len(table) == 6 and repr(table) == "DetectionTable(6 records)"
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[1:4] == records[1:4] and isinstance(table[1:4], DetectionTable)
    assert list(table) == records and table == DetectionTable.from_records(records)
    assert table != records[:-1] and table != DetectionTable.from_records(records[:-1])
    assert table.image_id.dtype == table.category_id.dtype == np.int64
    assert table.bbox.shape == (6, 4) and table.score.dtype == np.float64
    for column in (table.image_id, table.category_id, table.bbox, table.score):
        with pytest.raises(ValueError):
            column[0] = 1


def oracle_encode_detections(records) -> bytes:
    """The reference writer: one json.dumps line per record."""
    lines = []
    for r in records:
        doc = {"image_id": r.image_id, "category_id": r.category_id, "bbox": list(r.bbox)}
        if r.score is not None:
            doc["score"] = r.score
        lines.append(json.dumps(doc) + "\n")
    return "".join(lines).encode("utf-8")


def test_records_and_their_table_encode_like_json_dumps():
    corners = [-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e-05, 1e16, 0.1 + 0.2, 2.5]
    sizes = [5e-324, 1e308, 1e-05, 1e16, 0.1 + 0.2, 123456789.125]
    scores = [None, 0.0, -0.0, 5e-324, 1e-05, 0.1 + 0.2, 1.0]
    ids = [-(2**63), 2**63 - 1, 0, -1, 2**53 + 1]
    rng = philox(31)
    records = [
        DetectionRecord(
            *(ids[i] for i in rng.integers(0, len(ids), size=2)),
            (*(corners[i] for i in rng.integers(0, len(corners), size=2)),
             *(sizes[i] for i in rng.integers(0, len(sizes), size=2))),
            scores[int(rng.integers(0, len(scores)))],
        )
        for _ in range(300)
    ]
    data = oracle_encode_detections(records)
    for text in (b"-0.0", b"5e-324", b"1e+308", b"-9223372036854775808", b"9223372036854775807"):
        assert text in data
    assert b"score" in data and data.count(b"score") < len(records)
    assert encode_detections(records) == data
    assert encode_detections(DetectionTable.from_records(records)) == data
    assert decode_detections(data) == records
    assert encode_detections([]) == encode_detections(DetectionTable([], [], [], [])) == b""


GOOD_BOX = (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "column, values, message",
    [
        pytest.param(
            "image_id", np.array([0.0, 0.5, 2.0, 0.5]),
            "row 1: image_id must be an integer within int64, got 0.5", id="float-id",
        ),
        pytest.param(
            "category_id", np.array([False, True, False, True]),
            "row 0: category_id must be an integer within int64, got False", id="bool-id",
        ),
        pytest.param(
            "image_id", np.array([0, 2**63, 2, 2**64 - 1], dtype=np.uint64),
            "row 1: image_id 9223372036854775808 is outside the int64 range", id="uint64-id",
        ),
        pytest.param(
            "category_id", [0, 2**64, 2, 3],
            "row 1: category_id 18446744073709551616 is outside the int64 range", id="python-id",
        ),
        pytest.param(
            "bbox", [GOOD_BOX, (1.0, np.nan, 3.0, 4.0), GOOD_BOX, (np.inf,) * 4],
            "row 1: bbox entries must be finite, got (1.0, nan, 3.0, 4.0)", id="non-finite-box",
        ),
        pytest.param(
            "bbox", [GOOD_BOX, (1.0, 2.0, 0.0, 4.0), GOOD_BOX, (1.0, 2.0, 3.0, -4.0)],
            "row 1: bbox width/height must be positive, got w=0.0, h=4.0", id="zero-width",
        ),
        pytest.param(
            "bbox", [GOOD_BOX, (1.0, 2.0, 3.0, -4.0), GOOD_BOX, (1.0, 2.0, 0.0, 4.0)],
            "row 1: bbox width/height must be positive, got w=3.0, h=-4.0", id="negative-height",
        ),
        pytest.param(
            "score", [0.5, -0.25, np.nan, 2.0],
            "row 1: score must be in [0, 1], got -0.25", id="negative-score",
        ),
        pytest.param(
            "score", [0.5, np.inf, np.nan, -1.0],
            "row 1: score must be in [0, 1], got inf", id="infinite-score",
        ),
        pytest.param(
            "bbox", [GOOD_BOX, (1.0, 2.0, "x", 4.0), GOOD_BOX, (1.0, "y", 3.0, 4.0)],
            "row 1: bbox entry 'x' is not a number", id="non-numeric-box",
        ),
        pytest.param(
            "score", [0.5, "x", np.nan, "y"], "row 1: score entry 'x' is not a number", id="non-numeric-score",
        ),
        pytest.param(
            "bbox", [GOOD_BOX, (10**400, 2.0, 3.0, 4.0), GOOD_BOX, GOOD_BOX],
            f"row 1: bbox entries must be finite, got {10**400}", id="box-beyond-float64",
        ),
    ],
)
def test_detection_table_names_the_first_bad_row(column, values, message):
    columns = {
        "image_id": [0, 1, 2, 3],
        "category_id": [4, 5, 6, 7],
        "bbox": [GOOD_BOX] * 4,
        "score": [0.5, np.nan, 1.0, 0.0],
    }
    columns[column] = values
    with pytest.raises(DomainError) as exc:
        DetectionTable(**columns)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "columns, shapes",
    [
        pytest.param(
            ([0, 1], [0, 1], [GOOD_BOX] * 2, [0.5]),
            "image_id (2,), category_id (2,), bbox (2, 4), score (1,)", id="short-score",
        ),
        pytest.param(
            ([0, 1, 2], [0, 1], [GOOD_BOX] * 2, [0.5, 0.5]),
            "image_id (3,), category_id (2,), bbox (2, 4), score (2,)", id="long-image-id",
        ),
        pytest.param(
            ([0], [0], GOOD_BOX * 2, [0.5]),
            "image_id (1,), category_id (1,), bbox (8,), score (1,)", id="flat-bbox",
        ),
        pytest.param(
            ([0, 1], [0, 1], [GOOD_BOX] * 2, [0.5, 0.5, 0.5]),
            "image_id (2,), category_id (2,), bbox (2, 4), score (3,)", id="long-score",
        ),
        pytest.param(
            (0, 0, GOOD_BOX, 0.5),
            "image_id (), category_id (), bbox (4,), score ()", id="scalars",
        ),
    ],
)
def test_detection_table_refuses_columns_of_different_lengths(columns, shapes):
    with pytest.raises(ValidationError) as exc:
        DetectionTable(*columns)
    assert str(exc.value) == (
        f"detection columns must be n ids, n ids, (n, 4) boxes and n scores, got {shapes}"
    )


@pytest.mark.parametrize(
    "column, values",
    [
        pytest.param("image_id", [0, [1, 2], 2, 3], id="image-id"),
        pytest.param("category_id", [4, 5, [6], 7], id="category-id"),
        pytest.param("bbox", [GOOD_BOX, (1.0, 2.0, 3.0), GOOD_BOX, GOOD_BOX], id="bbox"),
        pytest.param("score", [0.5, [0.5, 0.25], 1.0, 0.0], id="score"),
    ],
)
def test_detection_table_refuses_a_ragged_column(column, values):
    columns = {
        "image_id": [0, 1, 2, 3],
        "category_id": [4, 5, 6, 7],
        "bbox": [GOOD_BOX] * 4,
        "score": [0.5, np.nan, 1.0, 0.0],
    }
    columns[column] = values
    with pytest.raises(ValidationError) as exc:
        DetectionTable(**columns)
    assert str(exc.value) == f"{column} column is ragged: its entries differ in shape"


def test_detection_table_takes_integral_ids_of_any_dtype_and_nan_scores():
    table = DetectionTable(
        np.array([3.0, -0.0]), np.array([2**63 - 1, 0], dtype=np.uint64), [GOOD_BOX] * 2, [np.nan, 1.0]
    )
    assert table.image_id.tolist() == [3, 0] and table.category_id.tolist() == [2**63 - 1, 0]
    assert table == [DetectionRecord(3, 2**63 - 1, GOOD_BOX, None), DetectionRecord(0, 0, GOOD_BOX, 1.0)]


@pytest.mark.parametrize(
    "bbox, score, message",
    [
        pytest.param(
            (1.0, 2.0, "x", 4.0), 0.5, "bbox entries must be numbers, got (1.0, 2.0, 'x', 4.0)", id="str-box",
        ),
        pytest.param(
            (None, 2.0, 3.0, 4.0), 0.5, "bbox entries must be numbers, got (None, 2.0, 3.0, 4.0)", id="none-box",
        ),
        pytest.param(GOOD_BOX, "x", "score must be a number in [0, 1], got 'x'", id="str-score"),
        pytest.param(GOOD_BOX, [0.5], "score must be a number in [0, 1], got [0.5]", id="list-score"),
        pytest.param(
            GOOD_BOX, 10**400, f"score must be a number in [0, 1], got {10**400}", id="score-beyond-float64",
        ),
    ],
)
def test_detection_record_refuses_entries_that_are_not_numbers(bbox, score, message):
    with pytest.raises(DomainError) as exc:
        DetectionRecord(0, 0, bbox, score)
    assert str(exc.value) == message


def test_detection_record_refuses_a_nan_score():
    with pytest.raises(DomainError, match=r"^score must be in \[0, 1\], got nan$"):
        DetectionRecord(0, 0, GOOD_BOX, float("nan"))


def test_detection_table_refuses_ids_outside_int64():
    with pytest.raises(DomainError, match="int64"):
        DetectionTable.from_records([DetectionRecord(2**63, 0, (0, 0, 1, 1), None)])
    with pytest.raises(DomainError, match="int64"):
        DetectionTable.from_records([DetectionRecord(0.5, 0, (0, 0, 1, 1), None)])


@pytest.mark.parametrize("line", [b"5", b"null", b'"x"', b"[1, 2]", b"true"])
def test_a_line_that_is_not_an_object_names_its_line(line):
    good = b'{"image_id": 0, "category_id": 0, "bbox": [1, 1, 2, 2]}\n'
    with pytest.raises(ParseError) as exc:
        decode_detections(good + line + b"\n")
    assert str(exc.value) == "line 2: record must be a JSON object"


@pytest.mark.parametrize(
    "line, reason",
    [
        pytest.param(
            b'{"image_id": ' + b"1" * 5000 + b"}",
            "Exceeds the limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
            ),
        ),
        (b"[" * 100_000, "recursion"),
    ],
)
def test_json_python_cannot_hold_names_its_line(line, reason):
    with pytest.raises(ParseError, match=f"^line 2: invalid JSON record: .*{reason}"):
        decode_detections(b"\n" + line + b"\n")


@pytest.mark.parametrize("data, line", [(b"\xff\xfe{}\n", 1), (b"\n\n{\"a\xc3\": 1}\n", 3)])
def test_bytes_that_are_not_utf8_name_their_line(data, line):
    with pytest.raises(ParseError, match=f"^line {line}: record is not valid UTF-8"):
        decode_detections(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("image_id", "0.5", "image_id must be an integer, got 0.5"),
        ("category_id", "-1.25", "category_id must be an integer, got -1.25"),
        ("image_id", "true", "image_id must be an integer, got True"),
        ("category_id", "false", "category_id must be an integer, got False"),
        ("image_id", '"5"', "image_id must be an integer, got '5'"),
        ("score", "true", "score must be a number, got True"),
        ("score", '"0.5"', "score must be a number, got '0.5'"),
        ("bbox", "[1, true, 2, 2]", "bbox entries must be numeric"),
    ],
)
def test_booleans_and_non_integral_ids_are_parse_errors(field, value, message):
    doc = {"image_id": "0", "category_id": "1", "bbox": "[1, 1, 2, 2]", "score": "0.5"}
    doc[field] = value
    bad = ("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}\n").encode()
    with pytest.raises(ParseError) as exc:
        decode_detections(b"\n" + bad)
    assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 1e300])
def test_ids_outside_int64_are_domain_errors(value):
    data = b'{"image_id": 0, "category_id": %s, "bbox": [1, 1, 2, 2]}\n' % json.dumps(value).encode()
    with pytest.raises(DomainError) as exc:
        decode_detections(data)
    assert str(exc.value) == f"line 1: category_id {value!r} is outside the int64 range"


def test_integral_float_ids_and_the_int64_ends_decode():
    data = (
        b'{"image_id": 3.0, "category_id": -0.0, "bbox": [1, 1, 2, 2]}\n'
        b'{"image_id": 9223372036854775807, "category_id": -9223372036854775808, "bbox": [1, 1, 2, 2]}\n'
    )
    table = decode_detections(data)
    assert table.image_id.tolist() == [3, 2**63 - 1]
    assert table.category_id.tolist() == [0, -(2**63)]


def test_single_byte_mutations_decode_like_the_scanner_or_raise_a_typed_error():
    rng = philox(2024)
    records = seeded_records(17, n=8)
    data = bytearray(encode_detections(records))
    typed = 0
    for case in range(400):
        mutated = bytearray(data)
        i = int(rng.integers(0, len(mutated)))
        if case % 2:
            del mutated[i]
        else:
            mutated[i] = int(rng.integers(0, 256))
        mutated = bytes(mutated)
        try:
            table = decode_detections(mutated)
        except EvframeError:
            typed += 1
            with pytest.raises(EvframeError):
                scanned(mutated)
            continue
        assert table == scanned(mutated)
    assert 100 < typed < 400


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("image_id", 0.5, "image_id must be an integer within int64, got 0.5"),
        ("category_id", True, "category_id must be an integer within int64, got True"),
        ("image_id", "3", "image_id must be an integer within int64, got '3'"),
        ("image_id", 2**63, "image_id 9223372036854775808 is outside the int64 range"),
        ("category_id", np.uint64(2**64 - 1), "category_id 18446744073709551615 is outside the int64 range"),
    ],
)
def test_detection_record_refuses_ids_that_are_not_int64_integers(field, value, message):
    ids = {"image_id": 0, "category_id": 0, field: value}
    with pytest.raises(DomainError) as exc:
        DetectionRecord(ids["image_id"], ids["category_id"], (0, 0, 1, 1), None)
    assert str(exc.value) == message


def test_detection_record_stores_numpy_and_integral_float_ids_as_int():
    rec = DetectionRecord(np.int64(3), 2.0, (0, 0, 1, 1), 0.5)
    assert type(rec.image_id) is int and type(rec.category_id) is int
    data = encode_detections([rec])
    assert data == b'{"image_id": 3, "category_id": 2, "bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.5}\n'
    assert decode_detections(data) == [rec]
